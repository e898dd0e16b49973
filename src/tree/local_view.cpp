#include "tree/local_view.h"

#include <algorithm>
#include <utility>

#include "util/contract.h"

namespace bil::tree {

LocalTreeView::LocalTreeView(std::shared_ptr<const TreeShape> shape)
    : shape_(std::move(shape)) {
  BIL_REQUIRE(shape_ != nullptr, "LocalTreeView needs a shape");
  subtree_count_.assign(shape_->num_nodes(), 0);
}

std::size_t LocalTreeView::find_slot(Label ball) const {
  if (dense_stride_ != 0) {
    if (ball < dense_base_) {
      return kNoSlot;
    }
    const Label offset = ball - dense_base_;
    if (offset % dense_stride_ != 0) {
      return kNoSlot;
    }
    const Label slot = offset / dense_stride_;
    return slot < node_of_.size() ? static_cast<std::size_t>(slot) : kNoSlot;
  }
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), ball);
  return it != labels_.end() && *it == ball
             ? static_cast<std::size_t>(it - labels_.begin())
             : kNoSlot;
}

std::size_t LocalTreeView::slow_index_of(Label ball) const {
  // Unit-stride label sets — holes included — only reach here to fail (the
  // inlined fast path already covered the hits).
  const std::size_t slot = find_slot(ball);
  BIL_REQUIRE(slot != kNoSlot,
              "ball " + std::to_string(ball) + " is not registered");
  return slot;
}

void LocalTreeView::add_contribution(NodeId node, std::int32_t delta) {
  // A ball at `node` is counted in every subtree containing it: walk up to
  // the root adjusting counts.
  for (NodeId v = node; v != kNoNode; v = shape_->parent(v)) {
    if (delta > 0) {
      subtree_count_[v] += static_cast<std::uint32_t>(delta);
    } else {
      BIL_ENSURE(subtree_count_[v] > 0, "subtree count underflow");
      subtree_count_[v] -= static_cast<std::uint32_t>(-delta);
    }
  }
}

void LocalTreeView::insert_all_at_root(std::span<const Label> balls) {
  std::vector<Label> sorted(balls.begin(), balls.end());
  std::sort(sorted.begin(), sorted.end());
  BIL_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end(),
              "ball labels must be distinct");
  const std::size_t count = sorted.size();
  subtree_count_.assign(shape_->num_nodes(), 0);
  subtree_count_[TreeShape::root()] = static_cast<std::uint32_t>(count);
  alive_count_ = static_cast<std::uint32_t>(count);
  labels_ = {};

  // Detect a constant stride so labels are pure arithmetic on the slot.
  // Differences are compared pairwise, so no overflow-prone
  // base + slot·stride is ever formed beyond the largest label.
  dense_base_ = count == 0 ? 0 : sorted.front();
  dense_stride_ = count <= 1 ? 1 : sorted[1] - sorted[0];
  for (std::size_t slot = 2; slot < count; ++slot) {
    if (sorted[slot] - sorted[slot - 1] != dense_stride_) {
      dense_stride_ = 0;
      break;
    }
  }
  if (dense_stride_ != 0) {
    node_of_.assign(count, TreeShape::root());
    return;
  }
  // Not an arithmetic sequence. A unit-stride span with holes — every view
  // that missed an init-round crash victim's broadcast, for the rest of the
  // run — gets one slot per label of the span, each hole a slot tombstoned
  // from the start, so labels stay arithmetic. Only while the holes are
  // no more than the labels present (the registry at most doubles); sparser
  // label sets keep their labels and fall back to binary search. The hole
  // count is formed from differences of sorted distinct labels, so it
  // cannot overflow.
  const Label holes = (sorted.back() - dense_base_) - (count - 1);
  if (holes > count) {
    labels_ = std::move(sorted);
    node_of_.assign(count, TreeShape::root());
    return;
  }
  node_of_.assign(count + static_cast<std::size_t>(holes), kNoNode);
  for (const Label label : sorted) {
    node_of_[static_cast<std::size_t>(label - dense_base_)] =
        TreeShape::root();
  }
  dense_stride_ = 1;
}

void LocalTreeView::remove(Label ball) {
  const std::size_t slot = index_of(ball);
  BIL_REQUIRE(node_of_[slot] != kNoNode,
              "ball " + std::to_string(ball) + " already removed");
  add_contribution(node_of_[slot], -1);
  node_of_[slot] = kNoNode;
  --alive_count_;
}

void LocalTreeView::restore(Label ball, NodeId node) {
  BIL_REQUIRE(node < shape_->num_nodes(), "restore target out of range");
  const std::size_t slot = index_of(ball);
  BIL_REQUIRE(node_of_[slot] == kNoNode,
              "ball " + std::to_string(ball) + " is not removed");
  add_contribution(node, +1);
  node_of_[slot] = node;
  ++alive_count_;
}

std::vector<Label> LocalTreeView::balls() const {
  std::vector<Label> alive;
  alive.reserve(alive_count_);
  for (std::size_t slot = 0; slot < node_of_.size(); ++slot) {
    if (node_of_[slot] != kNoNode) {
      alive.push_back(label_at(slot));
    }
  }
  return alive;
}

std::uint32_t LocalTreeView::balls_at(NodeId node) const {
  std::uint32_t below = 0;
  if (!shape_->is_leaf(node)) {
    below = subtree_count_.at(shape_->left(node)) +
            subtree_count_.at(shape_->right(node));
  }
  return subtree_count_.at(node) - below;
}

NodeId LocalTreeView::descend_toward(Label ball, NodeId target) {
  const std::size_t slot = index_of(ball);
  BIL_REQUIRE(node_of_[slot] != kNoNode, "cannot move a removed ball");
  NodeId node = node_of_[slot];
  BIL_REQUIRE(shape_->is_ancestor_or_self(node, target),
              "descent target must lie in the ball's current subtree");
  // Advance into each next subtree only while it can still absorb one more
  // ball; the counts are updated step by step so that balls processed later
  // in <R order observe this ball's placement.
  while (node != target) {
    const NodeId next = shape_->child_toward(node, target);
    if (remaining_capacity(next) == 0) {
      break;
    }
    subtree_count_[next] += 1;
    node = next;
  }
  node_of_[slot] = node;
  return node;
}

void LocalTreeView::undo_descend(Label ball, NodeId start) {
  const std::size_t slot = index_of(ball);
  const NodeId node = node_of_[slot];
  BIL_REQUIRE(node != kNoNode, "cannot undo the descent of a removed ball");
  BIL_REQUIRE(start < shape_->num_nodes() &&
                  shape_->is_ancestor_or_self(start, node),
              "undo target must be an ancestor of the ball's node");
  // The descent added one to every subtree strictly below `start` on the
  // way to `node`; take exactly those back.
  for (NodeId v = node; v != start; v = shape_->parent(v)) {
    BIL_ENSURE(subtree_count_[v] > 0, "subtree count underflow");
    --subtree_count_[v];
  }
  node_of_[slot] = start;
}

std::optional<Label> LocalTreeView::find_ball_at(NodeId node) const {
  for (std::size_t slot = 0; slot < node_of_.size(); ++slot) {
    if (node_of_[slot] == node) {
      return label_at(slot);
    }
  }
  return std::nullopt;
}

void LocalTreeView::reposition(Label ball, NodeId node) {
  BIL_REQUIRE(node < shape_->num_nodes(), "reposition target out of range");
  const std::size_t slot = index_of(ball);
  BIL_REQUIRE(node_of_[slot] != kNoNode, "cannot reposition a removed ball");
  if (node_of_[slot] == node) {
    return;
  }
  add_contribution(node_of_[slot], -1);
  add_contribution(node, +1);
  node_of_[slot] = node;
}

std::span<const Label> LocalTreeView::ordered_balls() const {
  // Definition 1 (<R): deeper balls first; ties by smaller label. Depths
  // are bounded by the tree height, and iterating slots in ascending label
  // order keeps each depth bucket label-sorted — a two-pass counting sort
  // (O(n + height)) yields exactly the order a comparison sort would, and
  // this runs twice per recipient per round, so both passes sweep the flat
  // slot array uniformly with no per-call allocation: tombstoned slots sort
  // under a discard key past every real depth (landing in the trailing
  // region the returned span excludes) instead of branching the loop on
  // liveness. Sort key is height − depth so "deeper first" is an ascending
  // counting sort. The buffers are per thread, not per view: a view is
  // only ever read by one thread at a time, and n views sharing one
  // buffer keeps the engine's view state at 12 B per (process, ball).
  thread_local std::vector<std::uint32_t> bucket_scratch;
  thread_local std::vector<Label> order_scratch;
  const std::uint32_t height = shape_->height();
  const std::uint32_t dead_key = height + 1;
  bucket_scratch.assign(height + 2, 0);
  std::uint32_t* const buckets = bucket_scratch.data();
  const std::size_t slots = node_of_.size();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const NodeId node = node_of_[slot];
    ++buckets[node == kNoNode ? dead_key : height - shape_->depth(node)];
  }
  std::uint32_t offset = 0;
  for (std::uint32_t key = 0; key <= dead_key; ++key) {
    const std::uint32_t count = buckets[key];
    buckets[key] = offset;
    offset += count;
  }
  if (order_scratch.size() < slots) {
    order_scratch.resize(slots);
  }
  Label* const order = order_scratch.data();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const NodeId node = node_of_[slot];
    order[buckets[node == kNoNode ? dead_key : height - shape_->depth(node)]++] =
        label_at(slot);
  }
  return {order, alive_count_};
}

bool LocalTreeView::all_at_leaves() const {
  for (std::size_t slot = 0; slot < node_of_.size(); ++slot) {
    if (node_of_[slot] != kNoNode && !shape_->is_leaf(node_of_[slot])) {
      return false;
    }
  }
  return true;
}

std::uint32_t LocalTreeView::max_balls_at_node() const {
  std::uint32_t best = 0;
  for (NodeId node = 0; node < shape_->num_nodes(); ++node) {
    best = std::max(best, balls_at(node));
  }
  return best;
}

std::uint32_t LocalTreeView::max_inner_path_load() const {
  // DFS accumulating the number of balls at inner nodes from the root;
  // record the running sum at every leaf.
  struct Frame {
    NodeId node;
    std::uint32_t load_above;
  };
  std::uint32_t best = 0;
  std::vector<Frame> stack{{TreeShape::root(), 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (shape_->is_leaf(frame.node)) {
      best = std::max(best, frame.load_above);
      continue;
    }
    const std::uint32_t load = frame.load_above + balls_at(frame.node);
    stack.push_back(Frame{shape_->left(frame.node), load});
    stack.push_back(Frame{shape_->right(frame.node), load});
  }
  return best;
}

std::uint32_t LocalTreeView::balls_on_inner_nodes() const {
  std::uint32_t count = 0;
  for (std::size_t slot = 0; slot < node_of_.size(); ++slot) {
    if (node_of_[slot] != kNoNode && !shape_->is_leaf(node_of_[slot])) {
      ++count;
    }
  }
  return count;
}

void LocalTreeView::check_capacity_invariant(bool strict) const {
  std::uint64_t at_nodes_total = 0;
  for (NodeId node = 0; node < shape_->num_nodes(); ++node) {
    if (strict) {
      BIL_ENSURE(subtree_count_[node] <= shape_->leaf_count(node),
                 "Lemma 1 violated at node " + std::to_string(node));
    }
    if (!shape_->is_leaf(node)) {
      BIL_ENSURE(subtree_count_[node] >=
                     subtree_count_[shape_->left(node)] +
                         subtree_count_[shape_->right(node)],
                 "subtree counts inconsistent at node " + std::to_string(node));
    }
    at_nodes_total += balls_at(node);
  }
  BIL_ENSURE(at_nodes_total == alive_count_,
             "ball registry and subtree counts disagree");
  BIL_ENSURE(subtree_count_[TreeShape::root()] == alive_count_,
             "root count must equal the number of alive balls");
}

std::size_t LocalTreeView::heap_bytes() const noexcept {
  return subtree_count_.capacity() * sizeof(std::uint32_t) +
         node_of_.capacity() * sizeof(NodeId) +
         labels_.capacity() * sizeof(Label);
}

}  // namespace bil::tree
