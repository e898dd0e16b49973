// Tests for the engine's delivery schedulers (sim/event_queue.h,
// sim/scheduler.h, Engine::step): deterministic event ordering,
// bit-identity of the d = 1 bounded-delay schedule with the lock-step
// engine, thread-width invariance, tick bounds under bounded delay and
// partial synchrony (GST), the crash plane composed with the delay plane,
// traces under delay, timeout-based early termination, the clean capped
// exit under a starved delivery schedule, and the layer diagnostics
// (make_adversary / make_scheduler / fast-sim routing) for the delay kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/backend.h"
#include "api/registry.h"
#include "core/seeds.h"
#include "harness/runner.h"
#include "search/contract.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "tree/shape.h"
#include "util/contract.h"
#include "util/rng.h"
#include "wire/wire.h"

namespace bil {
namespace {

// ---- event queue ------------------------------------------------------------

TEST(EventQueue, PopsByTimeThenSenderThenSeq) {
  sim::EventQueue queue;
  queue.push({.time = 5, .sender = 2, .seq = 9, .round = 0});
  queue.push({.time = 3, .sender = 7, .seq = 8, .round = 0});
  queue.push({.time = 5, .sender = 2, .seq = 4, .round = 0});
  queue.push({.time = 5, .sender = 0, .seq = 6, .round = 0});
  queue.push({.time = 3, .sender = 1, .seq = 7, .round = 0});

  std::vector<std::uint64_t> seqs;
  while (!queue.empty()) {
    seqs.push_back(queue.pop().seq);
  }
  // (3,1,7) (3,7,8) (5,0,6) (5,2,4) (5,2,9)
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 8, 6, 4, 9}));
}

// ---- helpers ----------------------------------------------------------------

harness::RunConfig base_config(std::uint32_t n, std::uint64_t seed) {
  harness::RunConfig config;
  config.algorithm = harness::Algorithm::kBallsIntoLeaves;
  config.n = n;
  config.seed = seed;
  return config;
}

harness::AdversarySpec bounded_delay(std::uint32_t max_delay,
                                     sim::VirtualTime timeout = 0) {
  return harness::AdversarySpec{
      .kind = harness::AdversaryKind::kBoundedDelay,
      .delay = {.max_delay = max_delay, .gst = 0, .timeout = timeout}};
}

harness::AdversarySpec gst_adversary(sim::VirtualTime gst,
                                     std::uint32_t max_delay = 4,
                                     sim::VirtualTime timeout = 0) {
  return harness::AdversarySpec{
      .kind = harness::AdversaryKind::kGst,
      .delay = {.max_delay = max_delay, .gst = gst, .timeout = timeout}};
}

void expect_identical(const harness::RunSummary& a,
                      const harness::RunSummary& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  ASSERT_EQ(a.raw.outcomes.size(), b.raw.outcomes.size());
  for (std::size_t i = 0; i < a.raw.outcomes.size(); ++i) {
    EXPECT_EQ(a.raw.outcomes[i].name, b.raw.outcomes[i].name) << "ball " << i;
    EXPECT_EQ(a.raw.outcomes[i].decide_round, b.raw.outcomes[i].decide_round)
        << "ball " << i;
  }
}

// ---- lockstep bit-identity --------------------------------------------------

// d = 1 delivers every batch exactly one tick after the send — the
// synchronous schedule — and consumes no scheduling randomness, so the
// event-queue executor must reproduce the lock-step engine's full result:
// same rounds, same traffic, same names, same per-ball decide rounds.
TEST(AsyncEngine, BoundedDelayOneIsBitIdenticalToSynchronous) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    harness::RunConfig sync = base_config(64, seed);
    harness::RunConfig async = base_config(64, seed);
    async.adversary = bounded_delay(1);
    expect_identical(harness::run_renaming(sync),
                     harness::run_renaming(async));
  }
}

// Same check across the GST boundary: after the stabilization tick the GST
// scheduler is the synchronous schedule, so gst = 0 (stabilized from the
// start) is also bit-identical to the lock-step run.
TEST(AsyncEngine, GstZeroIsBitIdenticalToSynchronous) {
  harness::RunConfig sync = base_config(64, 5);
  harness::RunConfig async = base_config(64, 5);
  async.adversary = gst_adversary(/*gst=*/0, /*max_delay=*/4);
  expect_identical(harness::run_renaming(sync), harness::run_renaming(async));
}

// ---- determinism and thread-width invariance --------------------------------

TEST(AsyncEngine, AsyncRunsAreDeterministic) {
  for (const harness::AdversarySpec& spec :
       {bounded_delay(4), gst_adversary(8)}) {
    harness::RunConfig config = base_config(128, 11);
    config.adversary = spec;
    const harness::RunSummary first = harness::run_renaming(config);
    const harness::RunSummary second = harness::run_renaming(config);
    expect_identical(first, second);
  }
}

// Delays move whole rounds on the clock, never the work inside one, so the
// send and receive fan-outs shard under a delay scheduler exactly as in
// lock-step and any engine_threads width must produce the same result.
TEST(AsyncEngine, ThreadWidthDoesNotChangeAsyncResults) {
  harness::RunConfig serial = base_config(128, 3);
  serial.adversary = bounded_delay(4);
  serial.engine_threads = 1;
  harness::RunConfig wide = base_config(128, 3);
  wide.adversary = bounded_delay(4);
  wide.engine_threads = 0;  // resolves to one thread per hardware thread
  expect_identical(harness::run_renaming(serial), harness::run_renaming(wide));
}

// ---- tick bounds ------------------------------------------------------------

// Under delay bound d every protocol round spans at most d ticks, so the
// async run's virtual time is at most d times the synchronous round count.
TEST(AsyncEngine, BoundedDelayTicksStayWithinDelayFactor) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    harness::RunConfig sync = base_config(256, seed);
    const harness::RunSummary sync_summary = harness::run_renaming(sync);

    harness::RunConfig async = base_config(256, seed);
    async.adversary = bounded_delay(4);
    const harness::RunSummary async_summary = harness::run_renaming(async);
    EXPECT_TRUE(async_summary.completed);
    EXPECT_LE(async_summary.raw.rounds, 4u * sync_summary.raw.rounds);
    // Delays reorder nothing at batch granularity: the protocol trajectory
    // (and hence its traffic) is the synchronous one, only the clock moves.
    EXPECT_EQ(async_summary.messages_delivered,
              sync_summary.messages_delivered);
  }
}

// Partial synchrony property: from the stabilization tick on, delivery is
// synchronous, so total virtual time obeys GST + the synchronous
// O(log log n) contract band (search/contract.h) at every size.
TEST(AsyncEngine, GstRunsObeyContractBoundAfterStabilization) {
  constexpr sim::VirtualTime kGst = 8;
  for (std::uint32_t n : {64u, 256u, 1024u}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      harness::RunConfig config = base_config(n, seed);
      config.adversary = gst_adversary(kGst);
      const harness::RunSummary summary = harness::run_renaming(config);
      EXPECT_TRUE(summary.completed);
      EXPECT_LE(static_cast<double>(summary.raw.rounds),
                static_cast<double>(kGst) + search::loglog_round_bound(n))
          << "n=" << n << " seed=" << seed;
    }
  }
}

// ---- crash plane x delay plane ------------------------------------------------

/// Delays every batch uniformly in [1, max_delay] ticks (the bounded-delay
/// draw, same seed domain) while carrying a crash adversary: the composition
/// of the two planes, which the harness does not offer as one kind.
class CrashingDelayScheduler final : public sim::DeliveryScheduler {
 public:
  CrashingDelayScheduler(std::unique_ptr<sim::Adversary> adversary,
                         std::uint32_t max_delay, std::uint64_t run_seed)
      : adversary_(std::move(adversary)),
        delays_(sim::DelaySpec{.max_delay = max_delay},
                derive_seed(run_seed, core::kSeedDomainDelay, 0)) {}

  [[nodiscard]] sim::Adversary* adversary() noexcept override {
    return adversary_.get();
  }
  [[nodiscard]] sim::VirtualTime deliver_at(
      const sim::SendBatch& batch) override {
    return delays_.deliver_at(batch);
  }

 private:
  std::unique_ptr<sim::Adversary> adversary_;
  sim::BoundedDelayScheduler delays_;
};

constexpr std::uint32_t kComposedN = 128;

harness::AdversarySpec oblivious_crashes() {
  return harness::AdversarySpec{.kind = harness::AdversaryKind::kOblivious,
                                .crashes = kComposedN / 16};
}

/// Runs balls-into-leaves at kComposedN under `seed` with the oblivious crash
/// plane (or none) and the delay plane at `max_delay` (0 = lock-step
/// SynchronousScheduler).
sim::RunResult run_planes(std::uint64_t seed, bool crashes,
                          std::uint32_t max_delay) {
  harness::RunConfig config = base_config(kComposedN, seed);
  if (crashes) {
    config.adversary = oblivious_crashes();
  }
  const auto shape = tree::TreeShape::make(config.n);
  std::unique_ptr<sim::Adversary> adversary =
      harness::make_adversary(config.adversary, config.n, seed, shape);
  std::unique_ptr<sim::DeliveryScheduler> scheduler;
  if (max_delay == 0) {
    scheduler = std::make_unique<sim::SynchronousScheduler>(
        std::move(adversary));
  } else {
    scheduler = std::make_unique<CrashingDelayScheduler>(std::move(adversary),
                                                         max_delay, seed);
  }
  sim::Engine engine(
      sim::EngineConfig{.num_processes = config.n,
                        .max_crashes = config.adversary.crashes},
      harness::make_processes(config, shape), std::move(scheduler));
  return engine.run();
}

// Each plane alone first: the test scheduler with no adversary is the
// harness's bounded-delay run, and the lock-step helper with the crash
// adversary is the harness's oblivious run.
TEST(ComposedPlanes, EachPlaneAloneMatchesTheHarness) {
  for (std::uint64_t seed : {1u, 2u}) {
    harness::RunConfig delayed = base_config(kComposedN, seed);
    delayed.adversary = bounded_delay(4);
    EXPECT_EQ(run_planes(seed, /*crashes=*/false, 4),
              harness::run_renaming(delayed).raw);

    harness::RunConfig crashing = base_config(kComposedN, seed);
    crashing.adversary = oblivious_crashes();
    const sim::RunResult crashed = run_planes(seed, /*crashes=*/true, 0);
    EXPECT_EQ(crashed, harness::run_renaming(crashing).raw);
    EXPECT_GT(std::count_if(crashed.outcomes.begin(), crashed.outcomes.end(),
                            [](const sim::ProcessOutcome& outcome) {
                              return outcome.crashed;
                            }),
              0);
  }
}

// At d = 1 the composed scheduler is the lock-step schedule: the whole
// result, crash rounds included, must be bit-identical.
TEST(ComposedPlanes, CrashesUnderDelayOneAreBitIdenticalToLockStep) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    EXPECT_EQ(run_planes(seed, /*crashes=*/true, 1),
              run_planes(seed, /*crashes=*/true, 0))
        << "seed " << seed;
  }
}

// At d = 4 the clock stretches but the protocol trajectory does not: the
// same processes crash, the same names are decided, and the traffic is
// equal; each round spans at most 4 ticks, and the renaming is valid.
TEST(ComposedPlanes, CrashesUnderDelayFourKeepTheLockStepTrajectory) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const sim::RunResult lock_step = run_planes(seed, /*crashes=*/true, 0);
    const sim::RunResult delayed = run_planes(seed, /*crashes=*/true, 4);
    ASSERT_EQ(delayed.outcomes.size(), lock_step.outcomes.size());
    for (std::size_t i = 0; i < delayed.outcomes.size(); ++i) {
      EXPECT_EQ(delayed.outcomes[i].crashed, lock_step.outcomes[i].crashed)
          << "seed " << seed << " ball " << i;
      EXPECT_EQ(delayed.outcomes[i].name, lock_step.outcomes[i].name)
          << "seed " << seed << " ball " << i;
    }
    EXPECT_EQ(delayed.metrics.total_deliveries,
              lock_step.metrics.total_deliveries);
    EXPECT_EQ(delayed.metrics.total_bytes_delivered,
              lock_step.metrics.total_bytes_delivered);
    EXPECT_GT(delayed.rounds, lock_step.rounds);
    EXPECT_LE(delayed.rounds, 4u * lock_step.rounds);
    EXPECT_NO_THROW(sim::validate_renaming(delayed, kComposedN));
  }
}

// ---- timeout-based early termination ----------------------------------------

// With a timeout budget, a ball already parked at a leaf decides when the
// round's delivery is late instead of waiting out the delay. The run must
// still validate (run_renaming checks uniqueness/tightness) and can only
// get faster, never slower.
TEST(AsyncEngine, TimeoutDecidesLeafBallsEarly) {
  for (std::uint64_t seed : {1u, 9u}) {
    harness::RunConfig plain = base_config(128, seed);
    plain.adversary = bounded_delay(6);
    const harness::RunSummary without = harness::run_renaming(plain);

    harness::RunConfig timed = base_config(128, seed);
    timed.adversary = bounded_delay(6, /*timeout=*/2);
    const harness::RunSummary with = harness::run_renaming(timed);

    EXPECT_TRUE(with.completed);
    EXPECT_LE(with.rounds, without.rounds);
  }
}

// ---- round cap under starvation ----------------------------------------------

/// A scheduler that starves delivery: every batch is pushed far beyond any
/// reasonable cap. The engine must end the run cleanly at max_rounds ticks
/// with completed = false — not loop, not throw.
class StarvingScheduler final : public sim::DeliveryScheduler {
 public:
  [[nodiscard]] sim::VirtualTime deliver_at(
      const sim::SendBatch& batch) override {
    return batch.send_tick + 1000000;
  }
};

/// Broadcasts every round and never halts on its own — keeps the protocol
/// running so only the cap can end it.
class ChattyProcess final : public sim::ProcessBase {
 public:
  void on_send(sim::RoundNumber /*round*/, sim::Outbox& out) override {
    wire::Writer writer;
    writer.varint(1);
    out.broadcast(std::move(writer).take());
  }
  void on_receive(sim::RoundNumber /*round*/,
                  std::span<const sim::Envelope> /*inbox*/) override {}
};

TEST(AsyncEngine, StarvedDeliveryHitsTickCapCleanly) {
  constexpr std::uint32_t kN = 4;
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    processes.push_back(std::make_unique<ChattyProcess>());
  }
  sim::Engine engine(sim::EngineConfig{.num_processes = kN},
                     std::move(processes),
                     std::make_unique<StarvingScheduler>());
  const sim::RunResult result = engine.run();
  EXPECT_FALSE(result.completed);
  // max_rounds = 0 resolves to the documented default 16n + 64, enforced in
  // virtual-time ticks.
  EXPECT_EQ(result.rounds, 16 * kN + 64);
}

// ---- layer contracts and diagnostics ----------------------------------------

// Delay adversaries assume the DeliveryScheduler role; the harness keeps
// them crash-free, so combining a delay kind with a crash or Byzantine
// budget must fail loudly at scheduler construction.
TEST(AsyncLayers, MakeSchedulerRejectsFailureBudgets) {
  harness::AdversarySpec crashing = bounded_delay(4);
  crashing.crashes = 2;
  EXPECT_THROW((void)harness::make_scheduler(crashing, 16, 1),
               ContractViolation);

  harness::AdversarySpec byzantine = gst_adversary(8);
  byzantine.byzantine = 1;
  EXPECT_THROW((void)harness::make_scheduler(byzantine, 16, 1),
               ContractViolation);
}

TEST(AsyncLayers, MakeAdversaryRejectsDelayKinds) {
  EXPECT_THROW((void)harness::make_adversary(bounded_delay(4), 16, 1),
               ContractViolation);
}

// A one-tick delay schedule is the lock-step schedule, so the trace it
// streams must match the lock-step trace byte for byte.
TEST(AsyncLayers, TraceUnderDelayOneMatchesLockStep) {
  const auto trace_of = [](const harness::AdversarySpec& spec) {
    sim::TextTrace trace;
    harness::RunConfig config = base_config(16, 1);
    config.adversary = spec;
    config.trace = &trace;
    (void)harness::run_renaming(config);
    std::ostringstream os;
    trace.dump(os);
    return os.str();
  };
  const std::string lock_step = trace_of(harness::AdversarySpec{});
  EXPECT_FALSE(lock_step.empty());
  EXPECT_EQ(trace_of(bounded_delay(1)), lock_step);
}

// Timeouts decide on a partial view, which is only sound when silence means
// lateness; the engine refuses a timeout scheduler under a crash budget.
TEST(AsyncLayers, EngineRejectsTimeoutsUnderCrashBudget) {
  harness::RunConfig config = base_config(16, 1);
  const auto shape = tree::TreeShape::make(config.n);
  EXPECT_THROW(
      sim::Engine(sim::EngineConfig{.num_processes = 16, .max_crashes = 1},
                  harness::make_processes(config, shape),
                  std::make_unique<sim::BoundedDelayScheduler>(
                      sim::DelaySpec{.max_delay = 2, .timeout = 1}, 1)),
      ContractViolation);
}

// Registry metadata: the delay kinds are async-only and engine-only, and
// the fast-sim diagnostic for them is actionable (names the engine).
TEST(AsyncLayers, RegistryAndFastSimDiagnostics) {
  for (harness::AdversaryKind kind : {harness::AdversaryKind::kBoundedDelay,
                                      harness::AdversaryKind::kGst}) {
    const api::AdversaryInfo& info = api::adversary_info(kind);
    EXPECT_EQ(info.fault_model, "delay");
    EXPECT_EQ(info.timing, "async-only");
    EXPECT_FALSE(info.fast_sim_capable);

    api::CellConfig cell;
    cell.n = 64;
    cell.adversary = info.make(api::AdversaryKnobs{});
    const std::string diagnostic = api::fast_sim_incompatibility(cell);
    EXPECT_NE(diagnostic.find("engine"), std::string::npos) << diagnostic;
    // kAuto must route delay cells to the engine, never the fast path.
    EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
  }
  // The synchronous kinds keep timing "sync".
  EXPECT_EQ(api::adversary_info(harness::AdversaryKind::kNone).timing, "sync");
}

}  // namespace
}  // namespace bil
