// Virtual-time event queue for the engine's round loop (sim/scheduler.h).
//
// The engine advances a virtual clock measured in *ticks*; a lock-step round
// is one tick. Every in-flight message batch is an event; the queue pops
// events in deterministic order — keyed by (time, sender, seq) — so two
// batches scheduled for the same tick always resolve the same way regardless
// of insertion order. That tie-break is what makes every run a pure function
// of (algorithm, n, scheduler, seed) under any delivery scheduler.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "util/contract.h"

namespace bil::sim {

/// Virtual clock value in ticks. Tick 0 is the instant every process emits
/// its round-0 messages; a synchronous round occupies exactly one tick
/// (every batch sent at tick T is delivered at T + 1).
using VirtualTime = std::uint64_t;

/// One scheduled delivery: the (sender, round) message batch emitted at some
/// earlier tick, due to arrive at `time`. Payloads stay in the sender's
/// outbox (see Engine::step for the lifetime argument); the event only
/// names the batch.
struct DeliveryEvent {
  VirtualTime time = 0;
  ProcessId sender = kNoProcess;
  /// Enqueue counter — the final tie-break, so even hypothetical
  /// duplicate (time, sender) keys pop in a defined order.
  std::uint64_t seq = 0;
  /// Protocol round of the batch (the round argument its recipients will be
  /// called with; distinct from `time` once delays exceed one tick).
  RoundNumber round = 0;
};

/// Min-heap of delivery events with the deterministic (time, sender, seq)
/// ordering. A thin wrapper over std::push_heap/std::pop_heap so the
/// comparator — the part correctness hinges on — is stated once.
class EventQueue {
 public:
  void push(const DeliveryEvent& event) {
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), fires_later);
  }

  /// Removes and returns the earliest event. Requires !empty().
  DeliveryEvent pop() {
    BIL_REQUIRE(!heap_.empty(), "pop() on an empty event queue");
    std::pop_heap(heap_.begin(), heap_.end(), fires_later);
    DeliveryEvent event = heap_.back();
    heap_.pop_back();
    return event;
  }

  /// The earliest event without removing it. Requires !empty().
  [[nodiscard]] const DeliveryEvent& top() const {
    BIL_REQUIRE(!heap_.empty(), "top() on an empty event queue");
    return heap_.front();
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  /// Heap predicate: `a` fires strictly after `b` (std::push_heap builds a
  /// max-heap, so "comes later" on top-of-comparison yields a min-heap).
  static bool fires_later(const DeliveryEvent& a,
                          const DeliveryEvent& b) noexcept {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    if (a.sender != b.sender) {
      return a.sender > b.sender;
    }
    return a.seq > b.seq;
  }

  std::vector<DeliveryEvent> heap_;
};

}  // namespace bil::sim
