// A process's local view of the tree: which balls it believes exist and
// where they currently sit (paper §4, "each ball keeps a local tree,
// containing the current position of each ball, including itself").
//
// The view maintains per-subtree ball counts so that
//   RemainingCapacity(η) = leaves(η) − balls-in-subtree(η)
// is O(1), and implements the capacity-clipped descent of Algorithm 1
// (lines 12–18): a ball advances along its candidate path while the next
// subtree still has remaining capacity, and stops where the collision
// occurs. Because the descent only ever enters a subtree with spare
// capacity, Lemma 1's invariant (no subtree ever holds more balls than it
// has leaves) holds by construction; `check_capacity_invariant` re-verifies
// it explicitly and is called at every phase boundary in debug-heavy tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/types.h"
#include "tree/shape.h"
#include "util/contract.h"

namespace bil::tree {

using sim::Label;

class LocalTreeView {
 public:
  explicit LocalTreeView(std::shared_ptr<const TreeShape> shape);

  [[nodiscard]] const TreeShape& shape() const noexcept { return *shape_; }

  // ---- Ball registry -----------------------------------------------------

  /// Registers all balls at the root in one batch (the initialization round,
  /// Algorithm 1 line 1). Labels must be distinct; the batch replaces any
  /// previous registry contents.
  void insert_all_at_root(std::span<const Label> labels);

  /// Removes a ball (Algorithm 1 lines 20 / 27: the ball has crashed).
  void remove(Label ball);

  /// Inverse of remove: puts a removed ball back at `node`, the node it was
  /// removed from. Requires the ball to be registered and removed.
  void restore(Label ball, NodeId node);

  [[nodiscard]] bool contains(Label ball) const {
    const std::size_t slot = find_slot(ball);
    return slot != kNoSlot && node_of_[slot] != kNoNode;
  }
  [[nodiscard]] NodeId current(Label ball) const {
    const std::size_t slot = index_of(ball);
    BIL_REQUIRE(node_of_[slot] != kNoNode,
                "ball " + std::to_string(ball) + " was removed");
    return node_of_[slot];
  }
  [[nodiscard]] std::uint32_t ball_count() const noexcept {
    return alive_count_;
  }
  /// Alive labels in increasing label order.
  [[nodiscard]] std::vector<Label> balls() const;

  // ---- Capacity ----------------------------------------------------------

  [[nodiscard]] std::uint32_t balls_in_subtree(NodeId node) const {
    return subtree_count_.at(node);
  }
  /// Leaves of the subtree minus balls in the subtree (paper's
  /// RemainingCapacity), saturating at 0.
  ///
  /// Saturation matters: the paper's Lemma 1 bounds the number of *correct*
  /// balls per subtree; a local view can additionally contain stale entries
  /// for balls that crashed mid-broadcast (received by this view but not by
  /// the crashed ball's other peers), and round-2 position reports can
  /// transiently push a subtree's *total* count past its leaf count until
  /// the stale entries are purged at their turn in the next phase's <R
  /// iteration. Movement treats such subtrees as full, which is always safe.
  [[nodiscard]] std::uint32_t remaining_capacity(NodeId node) const {
    const std::uint32_t leaves = shape_->leaf_count(node);
    const std::uint32_t balls = subtree_count_.at(node);
    // Saturate: stale crashed entries can transiently overfill a view's
    // subtree (see above); a full-or-overfull subtree admits no more balls.
    return balls >= leaves ? 0 : leaves - balls;
  }
  /// Balls sitting exactly at `node`.
  [[nodiscard]] std::uint32_t balls_at(NodeId node) const;
  /// Smallest-label ball sitting exactly at `node`, if any. O(registry).
  [[nodiscard]] std::optional<Label> find_ball_at(NodeId node) const;

  // ---- Movement ----------------------------------------------------------

  /// Moves `ball` from its current node toward `target` along the unique
  /// downward path, advancing into each next subtree only while that subtree
  /// has remaining capacity (Algorithm 1 lines 14–18). Returns the node
  /// where the ball stops. Requires `target` to lie in the subtree of the
  /// ball's current node. (`target` is a leaf for every candidate-path
  /// policy except the one-level halving baseline.)
  NodeId descend_toward(Label ball, NodeId target);

  /// Inverse of descend_toward: returns `ball` to `start`, the node its
  /// descent began at, and takes back the subtree counts the descent added.
  /// Requires `start` to be an ancestor of (or equal to) the ball's node.
  /// Counts are additive, so undoing every descent made since some earlier
  /// state, in any order, restores that state exactly.
  void undo_descend(Label ball, NodeId start);

  /// Unconditionally repositions a ball (round-2 position synchronization,
  /// Algorithm 1 line 25). The position is the sender's self-report and is
  /// authoritative.
  void reposition(Label ball, NodeId node);

  // ---- Priority order and termination ------------------------------------

  /// All alive balls in <R order (Definition 1): deeper balls first, ties
  /// broken by smaller label. The span aliases per-thread scratch shared by
  /// every view (this is the hottest call in the engine's per-recipient
  /// simulation — twice per recipient per round — so it must not allocate,
  /// and a per-view buffer would cost 8 B per (process, ball)): it is
  /// invalidated by the next ordered_balls() call on the same thread, on
  /// any view, but stays valid across movement mutations (remove/restore/
  /// reposition/descend_toward/undo_descend), which is exactly the
  /// iterate-while-moving pattern every caller uses. Callers must not ask
  /// another view for its order while iterating one.
  [[nodiscard]] std::span<const Label> ordered_balls() const;

  /// True iff every ball in the view sits at a leaf (Algorithm 1 line 29).
  [[nodiscard]] bool all_at_leaves() const;

  // ---- Instrumentation (feeds experiments E4/E5) --------------------------

  /// Max balls at any single node — the paper's bmax(φ).
  [[nodiscard]] std::uint32_t max_balls_at_node() const;

  /// Max over all leaves of the number of balls at *inner* nodes on the
  /// root→leaf path — the path population of §5.2.
  [[nodiscard]] std::uint32_t max_inner_path_load() const;

  /// Number of balls not yet at a leaf.
  [[nodiscard]] std::uint32_t balls_on_inner_nodes() const;

  // ---- Invariants ----------------------------------------------------------

  /// Re-verifies internal count consistency and, when `strict` (the default,
  /// valid whenever the view holds no stale crashed entries — e.g. in
  /// failure-free runs), the total-ball form of Lemma 1: balls in subtree <=
  /// leaves for every subtree. Throws ContractViolation on failure.
  void check_capacity_invariant(bool strict = true) const;

  /// Heap bytes the view owns (vector capacities): the footprint that
  /// multiplies by n processes in the exact engine. Excludes the shared
  /// shape and the per-thread ordered_balls scratch.
  [[nodiscard]] std::size_t heap_bytes() const noexcept;

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Registry slot of `ball`; throws if the label was never inserted. The
  /// exact engine calls this once or twice per ball per recipient per round
  /// (Θ(n²·rounds) total), so the common case — the harness's unit-stride
  /// labelling — must stay a handful of inlined instructions; everything
  /// else takes the cold path.
  [[nodiscard]] std::size_t index_of(Label ball) const {
    if (dense_stride_ == 1 && ball >= dense_base_) {
      const Label slot = ball - dense_base_;
      if (slot < node_of_.size()) {
        return static_cast<std::size_t>(slot);
      }
    }
    return slow_index_of(ball);
  }
  [[nodiscard]] std::size_t slow_index_of(Label ball) const;
  /// Registry slot of `ball`, or kNoSlot if the label was never inserted.
  [[nodiscard]] std::size_t find_slot(Label ball) const;
  /// Label of a registry slot: arithmetic on the dense layouts, the stored
  /// label on the irregular one. Never overflows: slot·stride stays within
  /// the span of the inserted labels.
  [[nodiscard]] Label label_at(std::size_t slot) const {
    return dense_stride_ != 0 ? dense_base_ + slot * dense_stride_
                              : labels_[slot];
  }
  void add_contribution(NodeId node, std::int32_t delta);

  std::shared_ptr<const TreeShape> shape_;
  /// Balls in every subtree, indexed by NodeId (2n−1 entries, ~8 B per
  /// ball).
  std::vector<std::uint32_t> subtree_count_;
  /// Position per registry slot; kNoNode marks a removed ball or a hole.
  /// The only per-slot array on the arithmetic layouts (4 B per ball).
  std::vector<NodeId> node_of_;
  /// Sorted distinct registry labels, one per slot — kept only for
  /// irregular label sets (dense_stride_ == 0); empty otherwise.
  std::vector<Label> labels_;
  std::uint32_t alive_count_ = 0;
  /// When the labels form an arithmetic sequence (the harness's
  /// offset + stride·id labelling), slot s holds label
  /// dense_base_ + s·dense_stride_ and index_of is O(1) arithmetic. A
  /// unit-stride label set with holes — the label set of every view that
  /// missed an init-round crash victim's broadcast — is stored the same
  /// way, each hole a slot tombstoned from the start (see
  /// insert_all_at_root). dense_stride_ == 0 marks irregular labels
  /// (binary search over labels_).
  Label dense_base_ = 0;
  Label dense_stride_ = 0;
};

}  // namespace bil::tree
