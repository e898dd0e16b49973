// The delivery scheduler: the adversary role generalized from "who crashes"
// to "when does each message arrive".
//
// Lock-step delivery is one scheduling policy — every message sent in round
// r is delivered at the start of round r's receive phase. The engine factors
// that policy out: a DeliveryScheduler assigns every (sender, round) message
// batch a delivery tick on the virtual clock (sim/event_queue.h), and the
// engine fires a protocol round as soon as its inbox is complete. The
// scheduler *is* the timing adversary.
//
// Contract (checked by the engine):
//   * Progress: deliver_at(batch) > batch.send_tick — delivery takes at
//     least one tick, never zero or negative (no causality violations).
//   * Fairness / eventual delivery: every batch gets a finite delivery tick;
//     a scheduler cannot drop messages, only delay them. A scheduler that
//     starves delivery anyway (delays past EngineConfig::max_rounds, which
//     the engine enforces in ticks) ends the run at the cap with
//     completed = false — it cannot loop the engine forever.
//   * Determinism: deliver_at must be a pure function of (construction
//     arguments, batches seen so far). All randomness comes from a generator
//     seeded at construction (kSeedDomainDelay), so delay schedules never
//     perturb process coin flips or crash schedules.
//
// The synchronous model is the special case deliver_at = send_tick + 1
// (SynchronousScheduler), and a run through it is bit-identical to the
// pre-scheduler lock-step engine: every round-r batch arrives at the same
// tick, so each round completes one tick after it sends and the clock reads
// the round number. Every scheduler drives the same engine round loop, and
// any scheduler may carry a crash/corruption Adversary (adversary()); the
// engine consults it between the send phase and scheduling, exactly as in
// lock-step. The harness's delay kinds still carry none
// (harness::make_scheduler rejects mixing a delay kind with crash or
// Byzantine budgets), and timeouts require zero budgets in the engine.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/adversary.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace bil::sim {

/// Numeric knobs for the delay schedulers, carried by
/// harness::AdversarySpec::delay and api::ExperimentSpec::delay. The
/// defaults describe lock-step timing (max_delay = 1, no timeouts), so a
/// default-constructed DelaySpec through the event queue reproduces the
/// synchronous schedule tick for tick.
struct DelaySpec {
  /// Bounded-delay bound d: each batch's delay is drawn uniformly from
  /// [1, d] ticks. d = 1 is special-cased to consume no randomness at all,
  /// so a bounded-delay run at d = 1 is bit-identical to the synchronous
  /// scheduler (tests/async_test.cpp relies on this). For the GST scheduler this is the *pre-GST* delay bound.
  std::uint32_t max_delay = 1;
  /// Global stabilization tick for the GST scheduler: batches sent at
  /// tick >= gst are delivered in exactly one tick (synchrony holds from
  /// GST on); earlier batches get the bounded [1, max_delay] treatment.
  VirtualTime gst = 0;
  /// Timeout in ticks (0 = disabled): when a process has waited this many
  /// ticks for its next round's inbox to complete, the engine fires
  /// ProcessBase::on_timeout once for the waiting round — the hook
  /// timeout-based early termination (core::BallsIntoLeavesProcess) hangs
  /// off.
  VirtualTime timeout = 0;

  bool operator==(const DelaySpec&) const = default;
};

/// One (sender, round) batch presented to the scheduler at send time.
struct SendBatch {
  ProcessId sender = kNoProcess;
  RoundNumber round = 0;
  VirtualTime send_tick = 0;
  std::uint32_t num_messages = 0;
};

/// The role the adversary assumes in the event-driven executor. See the
/// file comment for the progress/fairness/determinism contract.
class DeliveryScheduler {
 public:
  DeliveryScheduler() = default;
  DeliveryScheduler(const DeliveryScheduler&) = delete;
  DeliveryScheduler& operator=(const DeliveryScheduler&) = delete;
  virtual ~DeliveryScheduler();

  /// True = lock-step timing (every batch arrives one tick after it is
  /// sent). Descriptive only: the engine runs the same loop for every
  /// scheduler and does not read it.
  [[nodiscard]] virtual bool synchronous() const noexcept { return false; }

  /// The crash/corruption adversary this scheduler carries; null means no
  /// crashes or corruption (the harness's delay schedulers carry none).
  /// Borrowed, owned by the scheduler.
  [[nodiscard]] virtual Adversary* adversary() noexcept { return nullptr; }

  /// Assigns the delivery tick for `batch`. Must satisfy the progress
  /// contract (result > batch.send_tick); the engine validates it.
  [[nodiscard]] virtual VirtualTime deliver_at(const SendBatch& batch) = 0;

  /// Tick budget a process waits before ProcessBase::on_timeout fires
  /// (0 = timeouts disabled).
  [[nodiscard]] virtual VirtualTime timeout_ticks() const noexcept {
    return 0;
  }
};

/// Lock-step timing: every batch is delivered one tick after it is sent.
/// Carries the crash/corruption Adversary (may be null = failure-free).
class SynchronousScheduler final : public DeliveryScheduler {
 public:
  explicit SynchronousScheduler(std::unique_ptr<Adversary> adversary)
      : adversary_(std::move(adversary)) {}

  [[nodiscard]] bool synchronous() const noexcept override { return true; }
  [[nodiscard]] Adversary* adversary() noexcept override {
    return adversary_.get();
  }
  [[nodiscard]] VirtualTime deliver_at(const SendBatch& batch) override {
    return batch.send_tick + 1;
  }

 private:
  std::unique_ptr<Adversary> adversary_;
};

/// Bounded-delay asynchrony: each batch's delay is an independent uniform
/// draw from [1, max_delay] ticks. max_delay = 1 consumes no randomness and
/// reproduces the synchronous schedule exactly.
class BoundedDelayScheduler final : public DeliveryScheduler {
 public:
  /// `seed` should come from derive_seed(run_seed, kSeedDomainDelay, 0) so
  /// the delay stream is independent of every process / adversary stream.
  BoundedDelayScheduler(const DelaySpec& spec, std::uint64_t seed);

  [[nodiscard]] VirtualTime deliver_at(const SendBatch& batch) override;
  [[nodiscard]] VirtualTime timeout_ticks() const noexcept override {
    return spec_.timeout;
  }

 private:
  DelaySpec spec_;
  Rng rng_;
};

/// Partial synchrony with a global stabilization time (GST): batches sent
/// before tick `gst` are delayed by a uniform draw from [1, max_delay];
/// batches sent at or after `gst` are delivered in exactly one tick. From
/// GST on the run is indistinguishable from a synchronous one, which is why
/// rounds-to-decide measured from GST obeys the synchronous O(log log n)
/// contract (search/contract.h) — the `async-delay` preset claims it.
class GstScheduler final : public DeliveryScheduler {
 public:
  GstScheduler(const DelaySpec& spec, std::uint64_t seed);

  [[nodiscard]] VirtualTime deliver_at(const SendBatch& batch) override;
  [[nodiscard]] VirtualTime timeout_ticks() const noexcept override {
    return spec_.timeout;
  }

 private:
  DelaySpec spec_;
  Rng rng_;
};

}  // namespace bil::sim
