// The traced pass: re-executes one run layer by layer through the public
// API, timing each call from outside the program.
//
// A one-shot engine run is rebuilt the way harness::run_renaming builds it
// (TreeShape::make, harness::make_processes, harness::make_adversary or
// make_scheduler, sim::Engine) and driven by Engine::step() — or
// Engine::run() on the event-queue path — then checked with
// sim::validate_renaming. A fast-sim run calls core::run_fast_sim,
// run_fast_sim_crash or run_fast_sim_targeted the way api::FastSimBackend
// does. A service horizon runs service::RenamingService over the runner
// api::make_instance_runner builds. Adversaries, delivery schedulers and
// instance runners are wrapped in thin forwarders that time each call and
// count what passes through, so nothing inside src/ is instrumented.
//
// Every decomposed run must reproduce the record the untraced sweep
// produced for the same (cell, seed) on every field; otherwise the traced
// numbers would describe a different program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/backend.h"
#include "service/service.h"

namespace perfbench {

/// Per-layer times (seconds) and counts gathered by the traced pass. Each
/// worker thread fills its own; merge() folds them after the pass.
struct Ledger {
  // -- sim::Engine, lock-step path ---------------------------------------
  /// Wall time of every Engine::step().
  std::vector<double> step_s;
  /// Steps whose forwarded CrashPlan was non-empty.
  std::vector<double> crash_step_s;
  double step_total_s = 0;
  /// Forwarded Adversary::schedule + corrupt time inside those steps.
  double step_adversary_s = 0;
  std::uint64_t step_deliveries = 0;
  /// Committed crashes and Σ CrashPlan deliver_to sizes on engine runs.
  std::uint64_t crashes = 0;
  std::uint64_t subset_recipients = 0;
  // -- sim::Engine, event-queue path -------------------------------------
  std::vector<double> async_run_s;
  /// Forwarded DeliveryScheduler::deliver_at time and call count.
  double scheduler_s = 0;
  std::uint64_t batches = 0;
  std::uint64_t async_ticks = 0;
  std::uint64_t async_rounds = 0;
  // -- harness: per engine run -------------------------------------------
  std::uint64_t engine_runs = 0;
  /// Shape + processes + adversary/scheduler + Engine construction.
  double build_s = 0;
  double validate_s = 0;
  /// Build + execute + validate, one entry per engine run.
  std::vector<double> run_s;
  // -- core: fast simulators ---------------------------------------------
  std::vector<double> fast_sim_s;
  std::vector<double> fast_sim_crash_s;
  std::vector<double> fast_sim_targeted_s;
  /// Forwarded adversary time inside the crash and targeted fast sims.
  double fast_sim_adversary_s = 0;
  // -- service ------------------------------------------------------------
  /// Wall time of every forwarded InstanceRunner call.
  std::vector<double> instance_s;
  double service_run_s = 0;
  double service_instances_s = 0;
  std::uint64_t horizons = 0;
  std::uint64_t instances = 0;
  std::uint64_t joined = 0;
  // -- all runs -------------------------------------------------------------
  /// Σ wall time of every decomposed run (a worker's busy time).
  double busy_s = 0;
  std::uint64_t runs = 0;

  void merge(const Ledger& other);
};

/// Re-executes run `seed` of the one-shot `cell` layer by layer into
/// `ledger`. Returns "" when the result equals `reference` on every field,
/// otherwise names the first field that differs. Throws what the program
/// throws (a violated renaming property is a ContractViolation).
[[nodiscard]] std::string traced_run(const bil::api::CellConfig& cell,
                                     std::uint64_t seed,
                                     const bil::api::RunRecord& reference,
                                     Ledger& ledger);

/// Re-executes one service horizon of the churn `cell` with a timed
/// instance runner. Same return and throw contract as traced_run, against
/// the ServiceMetrics of the untraced sweep.
[[nodiscard]] std::string traced_horizon(
    const bil::api::CellConfig& cell, const bil::service::ChurnSpec& churn,
    std::uint64_t seed, const bil::service::ServiceMetrics& reference,
    Ledger& ledger);

}  // namespace perfbench
