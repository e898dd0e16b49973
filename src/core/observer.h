// Per-phase instrumentation hooks.
//
// The complexity experiments need quantities the paper's analysis talks
// about — bmax(φ) (Lemma 6), path populations (§5.2), balls left on inner
// nodes — sampled at every phase boundary. A PhaseObserver attached to one
// process receives a snapshot at the end of each phase's second round,
// after position synchronization; the single-view simulator records the
// same snapshots of its one view (CrashFastSimResult::per_phase).
#pragma once

#include <cstdint>
#include <vector>

#include "tree/local_view.h"

namespace bil::core {

/// Phase-boundary statistics of one local view.
struct PhaseSnapshot {
  /// 1-based phase index (a phase is two communication rounds; the init
  /// round is not part of any phase).
  std::uint32_t phase = 0;
  /// Balls alive in the view.
  std::uint32_t balls_total = 0;
  /// Balls not yet at a leaf.
  std::uint32_t balls_inner = 0;
  /// Max balls at any single node — the paper's bmax(φ).
  std::uint32_t bmax = 0;
  /// Max over leaves of the ball count on the inner nodes of its root path —
  /// the path population of §5.2.
  std::uint32_t max_path_load = 0;
};

/// Computes a snapshot from a view.
[[nodiscard]] inline PhaseSnapshot snapshot_view(
    const tree::LocalTreeView& view, std::uint32_t phase) {
  PhaseSnapshot snap;
  snap.phase = phase;
  snap.balls_total = view.ball_count();
  snap.balls_inner = view.balls_on_inner_nodes();
  snap.bmax = view.max_balls_at_node();
  snap.max_path_load = view.max_inner_path_load();
  return snap;
}

/// Phase-boundary callback. Implementations must not mutate the view.
class PhaseObserver {
 public:
  PhaseObserver() = default;
  PhaseObserver(const PhaseObserver&) = delete;
  PhaseObserver& operator=(const PhaseObserver&) = delete;
  virtual ~PhaseObserver() = default;

  virtual void on_phase_end(const tree::LocalTreeView& view,
                            const PhaseSnapshot& snapshot) = 0;
};

/// Observer that simply records every snapshot (the common case).
class RecordingObserver final : public PhaseObserver {
 public:
  void on_phase_end(const tree::LocalTreeView& /*view*/,
                    const PhaseSnapshot& snapshot) override {
    snapshots_.push_back(snapshot);
  }

  [[nodiscard]] const std::vector<PhaseSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }

 private:
  std::vector<PhaseSnapshot> snapshots_;
};

}  // namespace bil::core
