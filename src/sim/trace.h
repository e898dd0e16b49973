// Structured execution tracing.
//
// Debugging a distributed algorithm means reconstructing "who knew what
// when"; a TraceSink receives the engine's life-cycle events as they happen
// so a run can be rendered, diffed against another seed, or asserted on in
// tests. Tracing is optional and zero-cost when disabled (null sink).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <vector>

#include "sim/types.h"

namespace bil::sim {

/// Engine life-cycle callbacks, invoked in execution order. All callbacks
/// have empty default implementations so sinks override only what they use.
/// on_round_begin and on_send carry the protocol round; on_crash, on_decide
/// and on_halt carry the virtual tick the outcome records (ProcessOutcome),
/// which equals the round under lock-step timing.
class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  virtual ~TraceSink() = default;

  virtual void on_round_begin(RoundNumber /*round*/) {}
  /// `sends` is the number of logical messages the process emitted.
  virtual void on_send(RoundNumber /*round*/, ProcessId /*sender*/,
                       std::size_t /*sends*/) {}
  /// `delivered_to` is the size of the adversary's delivery subset.
  virtual void on_crash(RoundNumber /*round*/, ProcessId /*victim*/,
                        std::size_t /*delivered_to*/) {}
  virtual void on_decide(RoundNumber /*round*/, ProcessId /*process*/,
                         std::uint64_t /*name*/) {}
  virtual void on_halt(RoundNumber /*round*/, ProcessId /*process*/) {}
};

/// Renders one line per event into an in-memory log (dumpable to a stream).
class TextTrace final : public TraceSink {
 public:
  void on_round_begin(RoundNumber round) override {
    std::ostringstream os;
    os << "---- round " << round << " ----";
    lines_.push_back(os.str());
  }
  void on_send(RoundNumber /*round*/, ProcessId sender,
               std::size_t sends) override {
    std::ostringstream os;
    os << "p" << sender << " sends " << sends << " message"
       << (sends == 1 ? "" : "s");
    lines_.push_back(os.str());
  }
  void on_crash(RoundNumber /*round*/, ProcessId victim,
                std::size_t delivered_to) override {
    std::ostringstream os;
    os << "p" << victim << " CRASHES mid-broadcast, delivered to "
       << delivered_to << " recipient" << (delivered_to == 1 ? "" : "s");
    lines_.push_back(os.str());
  }
  void on_decide(RoundNumber /*round*/, ProcessId process,
                 std::uint64_t name) override {
    std::ostringstream os;
    os << "p" << process << " decides name " << name;
    lines_.push_back(os.str());
  }
  void on_halt(RoundNumber /*round*/, ProcessId process) override {
    std::ostringstream os;
    os << "p" << process << " halts";
    lines_.push_back(os.str());
  }

  [[nodiscard]] const std::vector<std::string>& lines() const noexcept {
    return lines_;
  }
  /// Writes every line to `os`, newline-terminated.
  void dump(std::ostream& os) const;

 private:
  std::vector<std::string> lines_;
};

/// Counts events; handy for tests and cheap run statistics.
class CountingTrace final : public TraceSink {
 public:
  void on_round_begin(RoundNumber) override { ++rounds; }
  void on_send(RoundNumber, ProcessId, std::size_t) override { ++sends; }
  void on_crash(RoundNumber, ProcessId, std::size_t) override { ++crashes; }
  void on_decide(RoundNumber, ProcessId, std::uint64_t) override {
    ++decisions;
  }
  void on_halt(RoundNumber, ProcessId) override { ++halts; }

  std::uint64_t rounds = 0;
  std::uint64_t sends = 0;
  std::uint64_t crashes = 0;
  std::uint64_t decisions = 0;
  std::uint64_t halts = 0;
};

}  // namespace bil::sim
