// The benchmark's workloads: which sweeps one unit of work runs, and how a
// reader replays each of their cells with bil_run. README.md in the
// benchmark directory gives the reason for every workload and cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment.h"

namespace perfbench {

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The sweeps (one SweepRunner each, run in order) of unit `unit` of a run
/// of `workload` seeded with `seed`. Pure in its arguments: the same
/// (workload, seed, unit, threads) always yields the same specs, hence the
/// same SweepResults. `threads` is the sweep thread budget. Throws
/// std::invalid_argument for an unknown workload.
[[nodiscard]] std::vector<bil::api::ExperimentSpec> make_unit(
    const std::string& workload, std::uint64_t seed, std::uint32_t unit,
    std::uint32_t threads);

/// Unit passes a run of `workload` makes for a --seconds budget: the
/// budget divided by the unit's wall time on the reference machine (4
/// cores; README.md), at least 2 — unit 0 runs twice, then units 1, 2, ...
/// Fixing the count, rather than stopping on the clock, keeps a run's
/// inputs and every count it reports a pure function of its arguments.
[[nodiscard]] std::uint32_t unit_passes(const std::string& workload,
                                        double seconds);

/// The bil_run command line that reproduces the rows of `cell` (a cell of
/// `spec`) outside the benchmark.
[[nodiscard]] std::string replay_command(const bil::api::ExperimentSpec& spec,
                                         const bil::api::CellConfig& cell);

}  // namespace perfbench
