// The single-view simulator: exact symbolic execution of a tree-descent
// run, crash-free or under a crash adversary, on one canonical tree view.
//
// It rests on the paper's §5 observation: "without crashes, local views of
// the tree are always identical, and we therefore focus on one local view".
// With a null adversary that one view is the whole execution (the
// crash-free entry point core/fast_sim.h is a thin wrapper over this case).
// Crashes with subset delivery ("some balls may receive this broadcast,
// while others do not", §4) make views diverge — but the divergence is
// *transient and structured*, which is what this module exploits:
//
//   1. A victim crashed during a **path round** (2φ−1) affects only that
//      round's movement pass: recipients of its candidate path simulate its
//      capacity-clipped descent, non-recipients remove it at its <R turn.
//      The next position round removes it from every view (silent), and
//      position processing has no capacity interactions — so the crash's
//      entire effect is captured by which victims' paths each alive ball
//      received. A ball's descent reads only the state built by the balls
//      before it in <R order, so only the victims ahead of it matter: its
//      *effective prefix*. Every ball's announced position — which round 2
//      makes canonical everywhere — is the movement pass's outcome under
//      its own inbox, and balls that share an effective prefix share that
//      pass up to their turn.
//   2. A victim crashed during the **init round or a position round**
//      persists one extra round as a *ghost*: a stale entry present only in
//      the views that received its final broadcast. A ghost influences
//      exactly two things — its holders' next target choice (subtree
//      capacities, node-mate ranks, halving mates) and the end-of-phase
//      halt check (a non-leaf ghost blocks its holders' "all balls at
//      leaves" test) — and is then purged at its <R turn in the next path
//      round. It can never deflect a correct ball's movement: a stale entry
//      at node μ inflates only the counts of μ's ancestors, and every ball
//      whose descent reads an ancestor of μ is iterated after μ's occupant
//      in <R order (the Proposition 1 argument in
//      core/balls_into_leaves.h), so movement simulations may simply omit
//      ghosts. Target choices are evaluated against a per-ball
//      ghost-adjusted capacity overlay instead of materialized views.
//
// The adversary is replayed **bit-for-bit**: the simulator drives the same
// sim::Adversary object the engine harness would construct
// (harness::make_adversary), through sim::make_schedule_view, so victim
// selection, crash rounds and delivery-subset coin flips come from the
// identical RNG stream. Per-ball protocol coins likewise derive from
// (seed, kSeedDomainProcess, id). tests/fastsim_crash_test.cpp asserts
// equality with the engine — rounds, total rounds, crash counts, decided
// names and delivery counts — for every tree algorithm × oblivious
// adversary × subset policy on a shared grid.
//
// Cost: O(n log n) per phase, plus, for a path round with k victims, one
// depth-first walk over the trie of effective prefixes. The victims cut
// the round's <R order into k + 1 segments; segment j (the balls between
// victims j−1 and j) is simulated once per distinct j-victim prefix that
// some ball at or after it carries, so the walk costs
// O(log n · Σ_j P_j · |segment j|) descents and undos, plus
// O(log n · Σ_b (victims ahead of b)) membership tests, on top of the
// O(Σ|subset|) the adversary spends materializing delivery subsets. P_j is
// 1 for kSilent/kAll deliveries, at most 2 for kAlternating, and at most
// min(2^j, balls at or after segment j) for kRandomHalf — never more than
// the C realized delivery classes, so the walk is never costlier than one
// full movement pass per class (C · n descents). In the worst case, where
// every one of S survivors carries its own prefix, P_j is the number of
// survivors at or after segment j and the walk makes about S²/2 descents,
// against S · n for one pass per class.
//
// Protocol-aware adversaries — strategies that decode the round's traffic
// off the wire instead of consulting only the schedule — are served through
// an AdversaryViewOracle: a per-round hook that synthesizes, from the same
// symbolic state, exactly the outbox contents the engine's processes would
// have broadcast, so Adversary::schedule decodes identical messages and
// commits the identical plan. core/fast_sim_targeted.h provides the oracle
// for the Balls-into-Leaves wire protocol (Init/Path/Position traffic) and
// is how the targeted collision adversaries run symbolically; with a null
// oracle the adversary sees the schedule-only view (sim::make_schedule_view)
// as before.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/observer.h"
#include "core/policy.h"
#include "sim/adversary.h"
#include "tree/local_view.h"

namespace bil::core {

struct CrashFastSimOptions {
  std::uint32_t n = 0;
  std::uint64_t seed = 0;
  PathPolicy policy = PathPolicy::kRandomWeighted;
  /// Adversary crash budget t (sim::EngineConfig::max_crashes); must be < n.
  std::uint32_t max_crashes = 0;
  /// Safety cap on rounds; 0 selects the engine default 16·n + 64.
  sim::RoundNumber max_rounds = 0;
};

struct CrashFastSimResult {
  /// True when every non-crashed ball halted before the round cap.
  bool completed = false;
  /// Rounds until the last correct ball decided (the paper's metric;
  /// harness::RunSummary::rounds).
  std::uint32_t rounds = 0;
  /// Engine rounds executed until the protocol wound down.
  std::uint32_t total_rounds = 0;
  /// Crashes the adversary actually committed (≤ max_crashes; planned
  /// victims that halt before their crash round never crash).
  std::uint32_t crashes = 0;
  /// Physical deliveries, analytically exact: per round,
  /// (alive − crashed)² broadcast deliveries plus each victim's final
  /// messages to its surviving delivery subset — identical to what the
  /// engine's metrics would measure (asserted by tests).
  std::uint64_t deliveries = 0;
  /// The canonical view at the end of every phase (after the position
  /// round, with that round's victims removed), one entry per phase.
  /// Crash-free, every process's local view equals it, so it matches the
  /// engine's PhaseObserver snapshots (asserted by tests).
  std::vector<PhaseSnapshot> per_phase;
  /// Decided name per ball label (1-based), or 0 for crashed balls.
  std::vector<std::uint64_t> names;
};

/// Supplies the RoundView the adversary schedules against, called once per
/// round at the engine's exact observation point: after every alive ball's
/// round-r send (and, on path rounds, after this round's protocol coins were
/// consumed computing targets), before any crash or delivery. `canonical` is
/// the simulator's single tree view at that instant — every alive ball's own
/// position in its own local view equals canonical.current(id), which is
/// precisely what the ball stamps into its round-r broadcast. `targets`
/// holds this round's candidate target per ball id; entries are meaningful
/// for alive balls on path rounds (odd) only. Implementations synthesize
/// round traffic from these and return a view over it (sim/oracle_view.h).
class AdversaryViewOracle {
 public:
  AdversaryViewOracle() = default;
  AdversaryViewOracle(const AdversaryViewOracle&) = delete;
  AdversaryViewOracle& operator=(const AdversaryViewOracle&) = delete;
  virtual ~AdversaryViewOracle() = default;

  [[nodiscard]] virtual sim::RoundView round_view(
      sim::RoundNumber round, std::span<const sim::ProcessId> alive,
      std::uint32_t crash_budget_remaining,
      const tree::LocalTreeView& canonical,
      std::span<const tree::NodeId> targets) = 0;
};

/// Runs the simulation to completion. A null `adversary` is a failure-free
/// run (the case core::run_fast_sim wraps); a non-null one must be freshly
/// constructed for this run's seed, since its internal RNG state is
/// consumed exactly as an engine run would. With a null `oracle` the
/// adversary is driven through the schedule-only view
/// (sim::make_schedule_view) and must be schedule-only-drivable; a non-null
/// oracle additionally serves protocol-aware adversaries by synthesizing
/// the traffic they decode (core/fast_sim_targeted.h).
[[nodiscard]] CrashFastSimResult run_fast_sim_crash(
    const CrashFastSimOptions& options, sim::Adversary* adversary,
    AdversaryViewOracle* oracle = nullptr);

/// Holds a fast-sim run's `names` to the engine path's standard
/// (sim::validate_renaming): exactly `crashes` balls carry the crashed
/// sentinel 0 (every correct ball decided), names lie in 1..n, and no name
/// repeats. Throws ContractViolation otherwise.
void validate_fast_names(const std::vector<std::uint64_t>& names,
                         std::uint32_t n, std::uint32_t crashes);

}  // namespace bil::core
