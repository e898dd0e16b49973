// End-to-end integration tests: the paper's comparative claims, checked at
// test scale with generous margins (the report presets in
// src/report/presets.cpp check them at scale).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fast_sim.h"
#include "core/fast_sim_crash.h"
#include "harness/runner.h"
#include "sim/adversaries.h"
#include "stats/binomial.h"
#include "stats/fit.h"
#include "util/math.h"

namespace bil {
namespace {

using harness::AdversaryKind;
using harness::AdversarySpec;
using harness::Algorithm;
using harness::RunConfig;

double mean_rounds(Algorithm algorithm, std::uint32_t n,
                   std::uint32_t seeds,
                   AdversarySpec adversary = {}) {
  double total = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    RunConfig config;
    config.algorithm = algorithm;
    config.n = n;
    config.seed = seed;
    config.adversary = adversary;
    total += harness::run_renaming(config).rounds;
  }
  return total / seeds;
}

TEST(Separation, BiLBeatsLinearGossipBadly) {
  // n = 128: gossip needs 128 rounds, BiL needs ~9.
  const double bil = mean_rounds(Algorithm::kBallsIntoLeaves, 128, 3);
  const double gossip = mean_rounds(Algorithm::kGossip, 128, 1);
  EXPECT_LT(bil * 5, gossip);
}

TEST(Separation, BiLBeatsHalvingAtModerateN) {
  // Halving pays one phase per level (2·log n rounds); BiL converges in a
  // near-constant number of phases.
  const double bil = mean_rounds(Algorithm::kBallsIntoLeaves, 512, 3);
  const double halving = mean_rounds(Algorithm::kHalving, 512, 1);
  EXPECT_LT(bil, halving);
}

TEST(Separation, SandwichForcesRankDescentCollisions) {
  // §6: the lowest-labelled ball crashing mid-label-exchange (delivered to
  // every second peer) shifts half the ranks, so the deterministic scheme
  // collides and needs extra phases — while a *silent* init crash shifts no
  // rank and costs it nothing.
  const AdversarySpec sandwich{.kind = AdversaryKind::kSandwich,
                               .crashes = 63,
                               .per_round = 1};
  const double attacked =
      mean_rounds(Algorithm::kRankDescent, 64, 4, sandwich);
  EXPECT_GT(attacked, 3.0);

  const AdversarySpec silent{.kind = AdversaryKind::kBurst,
                             .crashes = 8,
                             .when = 0,
                             .subset = sim::SubsetPolicy::kSilent};
  const double unshaken =
      mean_rounds(Algorithm::kRankDescent, 64, 4, silent);
  EXPECT_DOUBLE_EQ(unshaken, 3.0);
}

TEST(Theorem2Shape, PhasesGrowMuchSlowerThanLogN) {
  // Fast-sim sweep n = 2^6..2^16: the log-model slope of the phase count
  // must be far below the halving baseline's 1-level-per-phase slope, and
  // the absolute phase count must stay tiny at every size.
  std::vector<double> log_n;
  std::vector<double> phases;
  for (std::uint32_t exp = 6; exp <= 16; exp += 2) {
    const std::uint32_t n = 1u << exp;
    core::FastSimOptions options;
    options.n = n;
    options.seed = 17 + exp;
    const auto result = core::run_fast_sim(options);
    ASSERT_TRUE(result.completed);
    log_n.push_back(exp);
    phases.push_back(result.phases);
    EXPECT_LE(result.phases, 12u) << "n=2^" << exp;
  }
  const stats::LinearFit fit = stats::fit_linear(log_n, phases);
  EXPECT_LT(fit.slope, 0.5) << "phase count grows too fast with log n";
}

TEST(Theorem3, EarlyTerminatingIsConstantFaultFree) {
  for (std::uint32_t exp = 4; exp <= 14; exp += 2) {
    core::FastSimOptions options;
    options.n = 1u << exp;
    options.seed = 5;
    options.policy = core::PathPolicy::kEarlyTerminating;
    const auto result = core::run_fast_sim(options);
    EXPECT_EQ(result.rounds(), 3u) << "n=2^" << exp;
  }
}

TEST(Theorem4Shape, RoundsTrackFailuresNotN) {
  // Fix n = 4096, sweep f: the phase count must grow with f only, and
  // stay near-constant once f is small relative to n.
  const std::uint32_t n = 4096;
  std::vector<std::uint32_t> phases_at_f;
  for (std::uint32_t f : {1u, 16u, 256u, 2048u}) {
    // f random balls crash during the label exchange, each delivering its
    // label to a random half of the survivors.
    sim::BurstCrashAdversary adversary(
        sim::BurstCrashAdversary::Options{
            .count = f,
            .when = 0,
            .subset_policy = sim::SubsetPolicy::kRandomHalf,
            .lowest_ids = false},
        23);
    const auto result = core::run_fast_sim_crash(
        core::CrashFastSimOptions{.n = n,
                                  .seed = 23,
                                  .policy = core::PathPolicy::kEarlyTerminating,
                                  .max_crashes = f},
        &adversary);
    ASSERT_TRUE(result.completed);
    phases_at_f.push_back((result.rounds - 1) / 2);
  }
  // Few failures -> very few phases; the full-failure case stays sane too.
  EXPECT_LE(phases_at_f[0], 3u);
  EXPECT_LE(phases_at_f[1], 5u);
  EXPECT_LE(phases_at_f.back(), 12u);
}

TEST(Lemma6Shape, ContentionCollapsesDoublyExponentially) {
  // bmax after phase 1 is ~sqrt(n·log n); after a couple more phases it
  // must be polylog (the paper's O(log² n) w.h.p. at c₂·log log n phases).
  core::FastSimOptions options;
  options.n = 1u << 14;
  options.seed = 31;
  const auto result = core::run_fast_sim(options);
  ASSERT_TRUE(result.completed);
  ASSERT_GE(result.per_phase.size(), 3u);
  const double n = options.n;
  const double lemma4 = stats::lemma4_contention_bound(n, 0, 3.0);
  EXPECT_LE(result.per_phase[0].bmax, lemma4);
  const double lemma6 = stats::lemma6_contention_bound(n, 2.0);
  EXPECT_LE(result.per_phase[2].bmax, lemma6);
}

TEST(Section52Shape, BallsEscapePathsAtAConstantRate) {
  // Lemmas 7–10: every two phases at least a constant fraction of the balls
  // still on inner nodes escapes to a leaf, so paths drain within O(log M)
  // phases of reaching population M. Balls only ever move down, so no
  // root-path population can grow.
  core::FastSimOptions options;
  options.n = 1u << 14;
  options.seed = 31;
  const auto result = core::run_fast_sim(options);
  ASSERT_TRUE(result.completed);
  const auto& phases = result.per_phase;
  ASSERT_GE(phases.size(), 3u);
  for (std::size_t p = 2; p < phases.size(); ++p) {
    if (phases[p - 2].balls_inner > 0) {
      EXPECT_LE(phases[p].balls_inner, 0.5 * phases[p - 2].balls_inner)
          << "phase " << p + 1;
    }
  }
  for (std::size_t p = 1; p < phases.size(); ++p) {
    EXPECT_LE(phases[p].max_path_load, phases[p - 1].max_path_load)
        << "phase " << p + 1;
  }
}

TEST(Section53, CrashesDoNotSlowBiLDownMuch) {
  // Compare adversarial vs fault-free mean rounds at n=64 over seeds. The
  // paper argues crashes cannot hurt; allow a one-phase slack for the
  // stale-entry purge phases.
  const double fault_free = mean_rounds(Algorithm::kBallsIntoLeaves, 64, 5);
  for (AdversaryKind kind :
       {AdversaryKind::kOblivious, AdversaryKind::kBurst,
        AdversaryKind::kTargetedWinner}) {
    const AdversarySpec spec{.kind = kind,
                             .crashes = 32,
                             .when = 1,
                             .horizon = 6,
                             .per_round = 2,
                             .subset = sim::SubsetPolicy::kRandomHalf};
    const double attacked =
        mean_rounds(Algorithm::kBallsIntoLeaves, 64, 5, spec);
    EXPECT_LE(attacked, fault_free + 6.0) << to_string(kind);
  }
}

TEST(MessageCost, PayloadsStayLogarithmic) {
  // Candidate paths are endpoint-encoded: even at n=512 no payload should
  // exceed a couple dozen bytes.
  RunConfig config;
  config.n = 512;
  config.seed = 2;
  const auto summary = harness::run_renaming(config);
  EXPECT_LE(summary.raw.metrics.max_payload_bytes, 32u);
}

TEST(MessageCost, TotalTrafficIsQuadraticPerRound) {
  RunConfig config;
  config.n = 64;
  config.seed = 2;
  const auto summary = harness::run_renaming(config);
  // Full-information broadcast: ~n deliveries per process per round.
  const double per_round =
      static_cast<double>(summary.messages_delivered) / summary.total_rounds;
  EXPECT_NEAR(per_round, 64.0 * 64.0, 64.0 * 64.0 * 0.35);
}

TEST(Determinism, FullRunsReproduceUnderEveryAdversary) {
  // The repository's reproducibility contract: a run is a pure function of
  // (algorithm, n, adversary, seed) — including who crashes, when, and
  // which subsets see the final broadcasts.
  for (AdversaryKind kind :
       {AdversaryKind::kOblivious, AdversaryKind::kBurst,
        AdversaryKind::kSandwich, AdversaryKind::kEager,
        AdversaryKind::kTargetedWinner, AdversaryKind::kTargetedAnnouncer}) {
    RunConfig config;
    config.n = 48;
    config.seed = 77;
    config.adversary = AdversarySpec{.kind = kind,
                                     .crashes = 20,
                                     .when = 1,
                                     .horizon = 8,
                                     .per_round = 2};
    const auto a = harness::run_renaming(config);
    const auto b = harness::run_renaming(config);
    EXPECT_EQ(a.rounds, b.rounds) << to_string(kind);
    EXPECT_EQ(a.crashes, b.crashes) << to_string(kind);
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered) << to_string(kind);
    for (std::size_t i = 0; i < a.raw.outcomes.size(); ++i) {
      EXPECT_EQ(a.raw.outcomes[i].name, b.raw.outcomes[i].name)
          << to_string(kind) << " process " << i;
      EXPECT_EQ(a.raw.outcomes[i].crashed, b.raw.outcomes[i].crashed)
          << to_string(kind) << " process " << i;
    }
  }
}

TEST(TightRenaming, EveryNameIsUsedFaultFree) {
  // m = n: the assignment must be a bijection, not merely injective.
  RunConfig config;
  config.n = 128;
  config.seed = 6;
  const auto summary = harness::run_renaming(config);
  std::vector<bool> used(129, false);
  for (const auto& outcome : summary.raw.outcomes) {
    used[outcome.name] = true;
  }
  for (std::uint32_t name = 1; name <= 128; ++name) {
    EXPECT_TRUE(used[name]) << "name " << name << " unused";
  }
}

}  // namespace
}  // namespace bil
