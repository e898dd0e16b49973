// E3 — Theorems 3 and 4: the early-terminating extension finishes in O(1)
// rounds failure-free and O(log log f) rounds with f failures.
//
// Setup (fast sim replaying the burst adversary — see
// core/fast_sim_crash.h): n = 4096 fixed; f random balls crash during the
// label exchange, each delivering its label to a random half of the
// survivors, which shifts ranks and makes the §6 deterministic first phase
// collide. The randomized phases then clear subtrees of size O(f).
//
// Expected shape: rounds ≈ 3 at f=0 (Theorem 3), then grows with
// log log f, not with n (Theorem 4); the engine cross-check at n=512 shows
// the same behaviour under genuinely divergent mid-run views.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/fast_sim.h"
#include "core/fast_sim_crash.h"
#include "sim/adversaries.h"

namespace {

using namespace bil;

void fast_sweep() {
  constexpr std::uint32_t kSeeds = 30;
  const std::uint32_t n = 4096;
  stats::Table table({"f", "mean rounds", "p99", "max", "phases(mean)"});
  std::vector<double> f_values;
  std::vector<double> means;
  for (std::uint32_t f : {0u, 1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u,
                          512u, 1024u, 2048u}) {
    std::vector<double> rounds;
    double phases = 0;
    for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
      sim::BurstCrashAdversary adversary(
          sim::BurstCrashAdversary::Options{
              .count = f,
              .when = 0,
              .subset_policy = sim::SubsetPolicy::kRandomHalf,
              .lowest_ids = false},
          seed);
      const auto result = core::run_fast_sim_crash(
          core::CrashFastSimOptions{
              .n = n,
              .seed = seed,
              .policy = core::PathPolicy::kEarlyTerminating,
              .max_crashes = f},
          &adversary);
      rounds.push_back(static_cast<double>(result.rounds));
      phases += (result.rounds - 1) / 2;
    }
    const stats::Summary summary = stats::summarize(rounds);
    table.add_row({stats::fmt_int(f), stats::fmt_fixed(summary.mean, 2),
                   stats::fmt_fixed(summary.p99, 1),
                   stats::fmt_fixed(summary.max, 0),
                   stats::fmt_fixed(phases / kSeeds, 2)});
    if (f >= 2) {
      f_values.push_back(f);
      means.push_back(summary.mean);
    }
  }
  std::cout << "\n(a) fast sim, n=" << n << ", f init-round crashes, "
            << kSeeds << " seeds\n\n";
  table.print(std::cout);
  std::cout << "\nfits over f >= 2:\n";
  bench::print_model_fits(f_values, means, "f");
}

void engine_check() {
  constexpr std::uint32_t kSeeds = 8;
  const std::uint32_t n = 512;
  stats::Table table({"f", "mean rounds", "max"});
  for (std::uint32_t f : {0u, 1u, 8u, 64u, 255u}) {
    harness::RunConfig config;
    config.algorithm = harness::Algorithm::kEarlyTerminating;
    config.n = n;
    if (f > 0) {
      config.adversary =
          harness::AdversarySpec{.kind = harness::AdversaryKind::kBurst,
                                 .crashes = f,
                                 .when = 0,
                                 .subset = sim::SubsetPolicy::kRandomHalf};
    }
    const stats::Summary summary = bench::rounds_summary(config, kSeeds);
    table.add_row({stats::fmt_int(f), stats::fmt_fixed(summary.mean, 2),
                   stats::fmt_fixed(summary.max, 0)});
  }
  std::cout << "\n(b) engine cross-check, n=" << n
            << ", f crashes during the init broadcast\n\n";
  table.print(std::cout);
}

void comparison_with_plain_bil() {
  // Theorem 3's point: with f=0 the extension is O(1) while plain BiL still
  // pays its O(log log n) phases.
  constexpr std::uint32_t kSeeds = 15;
  stats::Table table({"n", "early-terminating", "plain BiL"});
  for (std::uint32_t exp = 6; exp <= 16; exp += 2) {
    const std::uint32_t n = 1u << exp;
    double early = 0;
    double plain = 0;
    for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
      core::FastSimOptions options;
      options.n = n;
      options.seed = seed;
      options.policy = core::PathPolicy::kEarlyTerminating;
      early += core::run_fast_sim(options).rounds();
      options.policy = core::PathPolicy::kRandomWeighted;
      plain += core::run_fast_sim(options).rounds();
    }
    table.add_row({stats::fmt_int(n), stats::fmt_fixed(early / kSeeds, 2),
                   stats::fmt_fixed(plain / kSeeds, 2)});
  }
  std::cout << "\n(c) failure-free: early-terminating (Theorem 3, O(1)) vs "
               "plain BiL (Theorem 2, O(log log n))\n\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner(
      "E3  bench_early_termination   [Theorems 3 and 4]",
      "The early-terminating extension runs in O(1) rounds failure-free and "
      "O(log log f) rounds with f crashes.");
  fast_sweep();
  engine_check();
  comparison_with_plain_bil();
  return 0;
}
