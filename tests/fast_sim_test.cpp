// Tests for the single-view fast simulator, including its headline
// guarantee: bit-identical equivalence with the message-passing engine on
// failure-free runs with the same seed. The init-round crash cases drive
// the same simulator through the registered burst adversary.
#include <gtest/gtest.h>

#include <vector>

#include "core/fast_sim.h"
#include "core/fast_sim_crash.h"
#include "harness/runner.h"
#include "sim/adversaries.h"

namespace bil {
namespace {

using core::CrashFastSimResult;
using core::FastSimOptions;
using core::FastSimResult;
using core::PathPolicy;

FastSimResult run(std::uint32_t n, std::uint64_t seed,
                  PathPolicy policy = PathPolicy::kRandomWeighted) {
  FastSimOptions options;
  options.n = n;
  options.seed = seed;
  options.policy = policy;
  return core::run_fast_sim(options);
}

/// `count` balls crash during the init broadcast (Theorem 4's f), each
/// delivering its label to `subset`; victims are the lowest labels when
/// `lowest` holds (the §6 pattern), random otherwise.
CrashFastSimResult run_init_crashes(std::uint32_t n, std::uint64_t seed,
                                    std::uint32_t count,
                                    sim::SubsetPolicy subset, bool lowest) {
  sim::BurstCrashAdversary adversary(
      sim::BurstCrashAdversary::Options{.count = count,
                                        .when = 0,
                                        .subset_policy = subset,
                                        .lowest_ids = lowest},
      seed);
  return core::run_fast_sim_crash(
      core::CrashFastSimOptions{.n = n,
                                .seed = seed,
                                .policy = PathPolicy::kEarlyTerminating,
                                .max_crashes = count},
      &adversary);
}

/// Phase in which the last correct ball decided.
std::uint32_t phases(const CrashFastSimResult& result) {
  return (result.rounds - 1) / 2;
}

template <typename Result>
void expect_valid_names(const Result& result, std::uint32_t n) {
  ASSERT_TRUE(result.completed);
  std::vector<bool> used(n + 1, false);
  for (std::uint64_t name : result.names) {
    if (name == 0) {
      continue;  // crashed
    }
    ASSERT_GE(name, 1u);
    ASSERT_LE(name, n);
    EXPECT_FALSE(used[name]) << "duplicate name " << name;
    used[name] = true;
  }
}

TEST(FastSim, TrivialSizes) {
  for (std::uint32_t n : {1u, 2u, 3u}) {
    const FastSimResult result = run(n, 5);
    expect_valid_names(result, n);
  }
}

TEST(FastSim, AssignsAllNamesFaultFree) {
  for (std::uint32_t n : {16u, 100u, 1024u}) {
    const FastSimResult result = run(n, 11);
    expect_valid_names(result, n);
    std::uint32_t assigned = 0;
    for (std::uint64_t name : result.names) {
      assigned += name != 0 ? 1 : 0;
    }
    EXPECT_EQ(assigned, n);  // tight renaming: every name used
  }
}

TEST(FastSim, DeterministicForSeed) {
  const FastSimResult a = run(256, 77);
  const FastSimResult b = run(256, 77);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.names, b.names);
}

TEST(FastSim, MatchesEngineExecutionFaultFree) {
  // The core cross-check: engine run and fast-sim run with the same seed
  // must produce the same names and the same number of phases, for every
  // policy. This pins the fast simulator to the real protocol.
  const std::vector<std::pair<harness::Algorithm, PathPolicy>> pairs = {
      {harness::Algorithm::kBallsIntoLeaves, PathPolicy::kRandomWeighted},
      {harness::Algorithm::kEarlyTerminating, PathPolicy::kEarlyTerminating},
      {harness::Algorithm::kRankDescent, PathPolicy::kRankedSlack},
      {harness::Algorithm::kHalving, PathPolicy::kHalvingSplit},
  };
  for (const auto& [algorithm, policy] : pairs) {
    for (std::uint32_t n : {4u, 16u, 37u, 64u, 300u}) {
      for (std::uint64_t seed : {1ULL, 9ULL}) {
        harness::RunConfig config;
        config.algorithm = algorithm;
        config.n = n;
        config.seed = seed;
        config.observe = true;
        const harness::RunSummary engine_run = harness::run_renaming(config);
        const FastSimResult fast = run(n, seed, policy);
        ASSERT_TRUE(fast.completed);
        EXPECT_EQ(fast.rounds(), engine_run.rounds)
            << to_string(algorithm) << " n=" << n << " seed=" << seed;
        for (std::uint32_t i = 0; i < n; ++i) {
          EXPECT_EQ(fast.names[i], engine_run.raw.outcomes[i].name)
              << to_string(algorithm) << " n=" << n << " seed=" << seed
              << " ball=" << i;
        }
        // Crash-free, the observed process's local view is the one view.
        ASSERT_EQ(fast.per_phase.size(), engine_run.phases.size())
            << to_string(algorithm) << " n=" << n << " seed=" << seed;
        for (std::size_t k = 0; k < fast.per_phase.size(); ++k) {
          const core::PhaseSnapshot& got = fast.per_phase[k];
          const core::PhaseSnapshot& want = engine_run.phases[k];
          EXPECT_EQ(got.phase, want.phase);
          EXPECT_EQ(got.balls_total, want.balls_total);
          EXPECT_EQ(got.balls_inner, want.balls_inner);
          EXPECT_EQ(got.bmax, want.bmax);
          EXPECT_EQ(got.max_path_load, want.max_path_load)
              << to_string(algorithm) << " n=" << n << " seed=" << seed
              << " phase=" << k + 1;
        }
      }
    }
  }
}

TEST(FastSim, ScalesToLargeN) {
  const FastSimResult result = run(1u << 16, 3);
  expect_valid_names(result, 1u << 16);
  // Theorem 2 head-room check: 2^16 balls should need very few phases.
  EXPECT_LE(result.phases, 12u);
}

TEST(FastSim, PhaseSnapshotsAreComplete) {
  const FastSimResult result = run(512, 4);
  ASSERT_EQ(result.per_phase.size(), result.phases);
  EXPECT_EQ(result.per_phase.back().balls_inner, 0u);
  for (std::size_t i = 0; i < result.per_phase.size(); ++i) {
    EXPECT_EQ(result.per_phase[i].phase, i + 1);
  }
}

TEST(FastSim, EarlyTerminatingIsOnePhaseFaultFree) {
  for (std::uint32_t n : {8u, 128u, 4096u}) {
    const FastSimResult result = run(n, 21, PathPolicy::kEarlyTerminating);
    EXPECT_EQ(result.phases, 1u) << "n=" << n;
  }
}

TEST(FastSim, RankDescentIsOrderPreservingFaultFree) {
  const FastSimResult result = run(64, 2, PathPolicy::kRankedSlack);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(result.names[i], i + 1);
  }
}

TEST(FastSim, HalvingDescendsOneLevelPerPhase) {
  for (std::uint32_t n : {16u, 64u, 256u}) {
    const FastSimResult result = run(n, 2, PathPolicy::kHalvingSplit);
    EXPECT_EQ(result.phases, tree::TreeShape(n).height()) << "n=" << n;
  }
}

// ---- Init-round crashes (Theorem 4's setting) -------------------------------

TEST(FastSim, InitCrashesStillRename) {
  for (sim::SubsetPolicy subset :
       {sim::SubsetPolicy::kAlternating, sim::SubsetPolicy::kRandomHalf,
        sim::SubsetPolicy::kSilent}) {
    const CrashFastSimResult result =
        run_init_crashes(256, 5, 32, subset, /*lowest=*/false);
    expect_valid_names(result, 256);
    std::uint32_t crashed = 0;
    for (std::uint64_t name : result.names) {
      crashed += name == 0 ? 1 : 0;
    }
    EXPECT_EQ(crashed, 32u);
  }
}

TEST(FastSim, SilentInitCrashesCauseNoCollisions) {
  // A silent crasher is invisible: ranks do not shift, so the §6 scheme
  // still finishes in one phase.
  const CrashFastSimResult result = run_init_crashes(
      512, 6, 100, sim::SubsetPolicy::kSilent, /*lowest=*/false);
  EXPECT_EQ(phases(result), 1u);
}

TEST(FastSim, PartialInitDeliveryCausesCollisions) {
  // The paper §6: one crasher delivering to every second ball shifts half
  // the ranks, so phase 1 alone cannot finish.
  const CrashFastSimResult result = run_init_crashes(
      512, 6, 1, sim::SubsetPolicy::kAlternating, /*lowest=*/true);
  expect_valid_names(result, 512);
  EXPECT_GT(phases(result), 1u);
}

TEST(FastSim, CollisionDepthMatchesAppendixB) {
  // Appendix B: with f init failures, phase-1 collisions are confined to
  // depth >= log n - ceil(log f) — i.e. the surviving contention lives in
  // subtrees of size O(f). Check via the phase-1 snapshot: every remaining
  // inner ball sits deep.
  const CrashFastSimResult result = run_init_crashes(
      1024, 9, 8, sim::SubsetPolicy::kRandomHalf,  // log n = 10, log f = 3
      /*lowest=*/false);
  expect_valid_names(result, 1024);
  // bmax after phase 1 is at most f+1 (at most f rank shifts can pile up).
  ASSERT_FALSE(result.per_phase.empty());
  EXPECT_LE(result.per_phase[0].bmax, 9u);
}

TEST(FastSim, RejectsBadOptions) {
  EXPECT_THROW((void)core::run_fast_sim(FastSimOptions{.n = 0}),
               ContractViolation);
  // The crash budget must leave at least one ball (t < n).
  EXPECT_THROW((void)core::run_fast_sim_crash(
                   core::CrashFastSimOptions{.n = 4, .max_crashes = 4},
                   nullptr),
               ContractViolation);
}

}  // namespace
}  // namespace bil
