// Crash-free entry point of the single-view simulator, for large-n
// complexity experiments.
//
// The paper's analysis (§5) observes: "Without crashes, local views of the
// tree are always identical, and we therefore focus on one local view." The
// full message-passing engine materializes n local views and delivers n²
// messages per round, capping practical sweeps near n ≈ 2¹¹; the
// single-view simulator evolves the one common view directly, runs in
// O(n log n) per phase, and sweeps past n = 2¹⁸. For identical seeds it is
// round-for-round and placement-for-placement identical to the engine
// execution (asserted by tests), because both draw each ball's coins from
// the same derived stream and process movements in the same <R order.
//
// run_fast_sim is core::run_fast_sim_crash with no adversary, reported in
// phases. Runs with crashes go through run_fast_sim_crash itself, which
// replays the registered adversaries (core/fast_sim_crash.h).
#pragma once

#include <cstdint>
#include <vector>

#include "core/observer.h"
#include "core/policy.h"

namespace bil::core {

struct FastSimOptions {
  std::uint32_t n = 0;
  std::uint64_t seed = 0;
  PathPolicy policy = PathPolicy::kRandomWeighted;
};

struct FastSimResult {
  bool completed = false;
  /// Phases executed until every ball sat at a leaf.
  std::uint32_t phases = 0;
  /// Per-phase statistics (bmax, path loads, ...), one entry per phase.
  std::vector<PhaseSnapshot> per_phase;
  /// Decided name per ball label (1-based).
  std::vector<std::uint64_t> names;

  /// Engine-equivalent communication rounds: one init round plus two rounds
  /// per phase.
  [[nodiscard]] std::uint32_t rounds() const { return 1 + 2 * phases; }
};

/// Runs the crash-free simulation to completion.
[[nodiscard]] FastSimResult run_fast_sim(const FastSimOptions& options);

}  // namespace bil::core
