// Unit tests for the tree module: shape geometry over arbitrary n, and the
// LocalTreeView's capacity accounting, <R ordering, and clipped descent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "tree/local_view.h"
#include "tree/shape.h"
#include "util/contract.h"

namespace bil::tree {
namespace {

// ---- TreeShape --------------------------------------------------------------

TEST(Shape, SingleLeafTree) {
  const TreeShape shape(1);
  EXPECT_EQ(shape.num_nodes(), 1u);
  EXPECT_EQ(shape.height(), 0u);
  EXPECT_TRUE(shape.is_leaf(TreeShape::root()));
  EXPECT_EQ(shape.leaf_at(0), TreeShape::root());
}

TEST(Shape, NodeCountIsTwoNMinusOne) {
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 13u, 100u, 1024u}) {
    const TreeShape shape(n);
    EXPECT_EQ(shape.num_nodes(), 2 * n - 1) << "n=" << n;
    EXPECT_EQ(shape.num_leaves(), n);
  }
}

TEST(Shape, HeightIsCeilLog2) {
  EXPECT_EQ(TreeShape(1).height(), 0u);
  EXPECT_EQ(TreeShape(2).height(), 1u);
  EXPECT_EQ(TreeShape(3).height(), 2u);
  EXPECT_EQ(TreeShape(4).height(), 2u);
  EXPECT_EQ(TreeShape(5).height(), 3u);
  EXPECT_EQ(TreeShape(8).height(), 3u);
  EXPECT_EQ(TreeShape(9).height(), 4u);
  EXPECT_EQ(TreeShape(1024).height(), 10u);
  EXPECT_EQ(TreeShape(1025).height(), 11u);
}

TEST(Shape, LeavesAreRankedLeftToRight) {
  for (std::uint32_t n : {2u, 5u, 8u, 31u}) {
    const TreeShape shape(n);
    std::set<NodeId> leaves;
    for (std::uint32_t rank = 0; rank < n; ++rank) {
      const NodeId leaf = shape.leaf_at(rank);
      EXPECT_TRUE(shape.is_leaf(leaf));
      EXPECT_EQ(shape.leaf_rank(leaf), rank);
      leaves.insert(leaf);
    }
    EXPECT_EQ(leaves.size(), n) << "n=" << n;
  }
}

TEST(Shape, ParentChildConsistency) {
  const TreeShape shape(11);
  for (NodeId node = 0; node < shape.num_nodes(); ++node) {
    if (shape.is_leaf(node)) {
      continue;
    }
    EXPECT_EQ(shape.parent(shape.left(node)), node);
    EXPECT_EQ(shape.parent(shape.right(node)), node);
    EXPECT_EQ(shape.depth(shape.left(node)), shape.depth(node) + 1);
    EXPECT_EQ(shape.leaf_count(node), shape.leaf_count(shape.left(node)) +
                                          shape.leaf_count(shape.right(node)));
  }
  EXPECT_EQ(shape.parent(TreeShape::root()), kNoNode);
}

TEST(Shape, LeftHeavySplit) {
  const TreeShape shape(5);  // left subtree gets ceil(5/2)=3 leaves
  EXPECT_EQ(shape.leaf_count(shape.left(TreeShape::root())), 3u);
  EXPECT_EQ(shape.leaf_count(shape.right(TreeShape::root())), 2u);
}

TEST(Shape, AncestorTest) {
  const TreeShape shape(8);
  const NodeId root = TreeShape::root();
  const NodeId left = shape.left(root);
  const NodeId right = shape.right(root);
  EXPECT_TRUE(shape.is_ancestor_or_self(root, root));
  EXPECT_TRUE(shape.is_ancestor_or_self(root, shape.leaf_at(7)));
  EXPECT_TRUE(shape.is_ancestor_or_self(left, shape.leaf_at(0)));
  EXPECT_FALSE(shape.is_ancestor_or_self(left, shape.leaf_at(4)));
  EXPECT_FALSE(shape.is_ancestor_or_self(left, right));
  EXPECT_FALSE(shape.is_ancestor_or_self(shape.leaf_at(0), root));
}

TEST(Shape, ChildTowardWalksCorrectly) {
  const TreeShape shape(8);
  const NodeId root = TreeShape::root();
  NodeId node = root;
  // Walk to leaf 5 step by step; every step must contain leaf 5's subtree.
  const NodeId target = shape.leaf_at(5);
  std::uint32_t steps = 0;
  while (node != target) {
    node = shape.child_toward(node, target);
    ++steps;
    EXPECT_TRUE(shape.is_ancestor_or_self(node, target));
  }
  EXPECT_EQ(steps, shape.depth(target));
}

TEST(Shape, PathEndpoints) {
  const TreeShape shape(16);
  const NodeId target = shape.leaf_at(9);
  const auto path = shape.path(TreeShape::root(), target);
  ASSERT_EQ(path.size(), shape.depth(target) + 1);
  EXPECT_EQ(path.front(), TreeShape::root());
  EXPECT_EQ(path.back(), target);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(shape.parent(path[i]), path[i - 1]);
  }
}

TEST(Shape, PathRejectsNonDescendant) {
  const TreeShape shape(4);
  EXPECT_THROW((void)shape.path(shape.leaf_at(0), shape.leaf_at(1)),
               ContractViolation);
}

TEST(Shape, RejectsZeroLeaves) {
  EXPECT_THROW(TreeShape shape(0), ContractViolation);
}

// ---- LocalTreeView ----------------------------------------------------------

std::shared_ptr<const TreeShape> shape8() { return TreeShape::make(8); }

TEST(View, BatchInsertPutsEveryoneAtRoot) {
  LocalTreeView view(shape8());
  view.insert_all_at_root(std::vector<sim::Label>{5, 1, 9});
  EXPECT_EQ(view.ball_count(), 3u);
  EXPECT_EQ(view.balls_at(TreeShape::root()), 3u);
  EXPECT_EQ(view.current(5), TreeShape::root());
  EXPECT_EQ(view.balls(), (std::vector<sim::Label>{1, 5, 9}));
  view.check_capacity_invariant();
}

TEST(View, DuplicateLabelsRejected) {
  LocalTreeView view(shape8());
  EXPECT_THROW(view.insert_all_at_root(std::vector<sim::Label>{1, 1}),
               ContractViolation);
}

TEST(View, SingleInsertAndRemove) {
  LocalTreeView view(shape8());
  view.insert_all_at_root(std::vector<sim::Label>{3, 1});
  EXPECT_EQ(view.ball_count(), 2u);
  view.remove(3);
  EXPECT_FALSE(view.contains(3));
  EXPECT_TRUE(view.contains(1));
  EXPECT_THROW(view.remove(3), ContractViolation);
  EXPECT_THROW((void)view.current(3), ContractViolation);
  view.check_capacity_invariant();
}

// A unit-stride label set with holes: what every view that missed an
// init-round crash victim's broadcast registers. Holes must behave exactly
// like labels that were never sent.
const std::vector<sim::Label> kHoled{7, 0, 3, 1, 4};  // holes 2, 5, 6

TEST(View, HolesAreNotRegistered) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(kHoled);
  for (const sim::Label hole : {2u, 5u, 6u, 8u}) {
    EXPECT_FALSE(view.contains(hole)) << hole;
    EXPECT_THROW((void)view.current(hole), ContractViolation) << hole;
    EXPECT_THROW(view.remove(hole), ContractViolation) << hole;
    EXPECT_THROW(view.reposition(hole, shape->leaf_at(0)), ContractViolation)
        << hole;
    EXPECT_THROW((void)view.descend_toward(hole, shape->leaf_at(0)),
                 ContractViolation)
        << hole;
  }
  const std::vector<sim::Label> present{0, 1, 3, 4, 7};
  for (const sim::Label ball : present) {
    EXPECT_TRUE(view.contains(ball)) << ball;
    EXPECT_EQ(view.current(ball), TreeShape::root()) << ball;
  }
  EXPECT_EQ(view.ball_count(), 5u);
  EXPECT_EQ(view.balls(), present);
  const std::span<const sim::Label> order = view.ordered_balls();
  EXPECT_EQ(std::vector<sim::Label>(order.begin(), order.end()), present);
  EXPECT_EQ(view.balls_at(TreeShape::root()), 5u);
  view.check_capacity_invariant();
}

TEST(View, HolesStayOutUnderChurn) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(kHoled);
  EXPECT_EQ(view.descend_toward(7, shape->leaf_at(7)), shape->leaf_at(7));
  view.reposition(3, shape->left(TreeShape::root()));
  view.remove(1);
  view.check_capacity_invariant();
  EXPECT_EQ(view.balls(), (std::vector<sim::Label>{0, 3, 4, 7}));
  const std::span<const sim::Label> order = view.ordered_balls();
  EXPECT_EQ(std::vector<sim::Label>(order.begin(), order.end()),
            (std::vector<sim::Label>{7, 3, 0, 4}));
  view.reposition(7, TreeShape::root());
  view.remove(0);
  view.remove(4);
  EXPECT_EQ(view.ball_count(), 2u);
  EXPECT_EQ(view.balls(), (std::vector<sim::Label>{3, 7}));
  EXPECT_FALSE(view.contains(2));
  EXPECT_THROW(view.remove(1), ContractViolation);
  EXPECT_THROW(view.reposition(5, TreeShape::root()), ContractViolation);
  view.check_capacity_invariant();
}

TEST(View, SparseAndTopOfRangeLabelSets) {
  // More holes than labels (the binary-search registry, which must not grow
  // with the span), and label sets at the top of the label range, where
  // span arithmetic could overflow: lookups still resolve, holes stay out.
  const sim::Label top = std::numeric_limits<sim::Label>::max();
  for (const std::vector<sim::Label>& labels :
       {std::vector<sim::Label>{0, 1, 5, 100},
        std::vector<sim::Label>{0, 1, top},
        std::vector<sim::Label>{0, top - 1, top},
        std::vector<sim::Label>{top - 5, top - 4, top}}) {
    LocalTreeView view(shape8());
    view.insert_all_at_root(labels);
    EXPECT_EQ(view.ball_count(), labels.size());
    EXPECT_EQ(view.balls(), labels);
    for (const sim::Label ball : labels) {
      EXPECT_EQ(view.current(ball), TreeShape::root()) << ball;
    }
    EXPECT_FALSE(view.contains(2));
    EXPECT_FALSE(view.contains(top - 2));
    EXPECT_THROW((void)view.current(2), ContractViolation);
    view.remove(labels.back());
    EXPECT_FALSE(view.contains(labels.back()));
    view.check_capacity_invariant();
  }
}

TEST(View, RemainingCapacityTracksMoves) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1, 2, 3});
  const NodeId root = TreeShape::root();
  EXPECT_EQ(view.remaining_capacity(root), 4u);
  EXPECT_EQ(view.remaining_capacity(shape->left(root)), 4u);
  view.reposition(0, shape->leaf_at(0));
  EXPECT_EQ(view.remaining_capacity(shape->left(root)), 3u);
  EXPECT_EQ(view.remaining_capacity(shape->leaf_at(0)), 0u);
  EXPECT_EQ(view.remaining_capacity(shape->leaf_at(1)), 1u);
  view.check_capacity_invariant();
}

TEST(View, DescendTowardReachesEmptyLeaf) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  const NodeId got = view.descend_toward(0, shape->leaf_at(5));
  EXPECT_EQ(got, shape->leaf_at(5));
  EXPECT_EQ(view.current(0), got);
  view.check_capacity_invariant();
}

TEST(View, DescendStopsAtFullSubtree) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1});
  // Fill leaf 3, then send ball 1 at it: must stop at the leaf's parent.
  view.reposition(0, shape->leaf_at(3));
  const NodeId got = view.descend_toward(1, shape->leaf_at(3));
  EXPECT_EQ(got, shape->parent(shape->leaf_at(3)));
  view.check_capacity_invariant();
}

TEST(View, DescentOrderImplementsPriorities) {
  // Two balls race for the same leaf; the one processed first wins, the
  // second parks at the deepest node with spare capacity.
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{7, 8});
  EXPECT_EQ(view.descend_toward(7, shape->leaf_at(0)), shape->leaf_at(0));
  const NodeId second = view.descend_toward(8, shape->leaf_at(0));
  EXPECT_EQ(second, shape->parent(shape->leaf_at(0)));
  // The paper's "enough space below to accommodate it": the blocked ball's
  // node still has a free leaf for it (the sibling of the taken leaf). Note
  // the node's remaining capacity reads 0 — the parked ball itself consumes
  // the slack — which is exactly "one slot left, reserved for this ball".
  EXPECT_EQ(view.remaining_capacity(shape->leaf_at(1)), 1u);
  EXPECT_EQ(view.remaining_capacity(second), 0u);
}

TEST(View, DescendRejectsForeignTarget) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  view.reposition(0, shape->left(TreeShape::root()));
  EXPECT_THROW((void)view.descend_toward(0, shape->leaf_at(7)),
               ContractViolation);
}

TEST(View, OrderedBallsFollowsPriorityOrder) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{10, 20, 30, 40});
  view.reposition(40, shape->leaf_at(0));                  // depth 3
  view.reposition(30, shape->left(TreeShape::root()));     // depth 1
  // Depth desc, then label asc: 40 (3), 30 (1), 10 and 20 (0).
  const std::span<const sim::Label> order = view.ordered_balls();
  EXPECT_EQ(std::vector<sim::Label>(order.begin(), order.end()),
            (std::vector<sim::Label>{40, 30, 10, 20}));
  // Tombstoned slots must vanish from the order, not surface as stale
  // labels from the reused scratch.
  view.remove(30);
  const std::span<const sim::Label> after = view.ordered_balls();
  EXPECT_EQ(std::vector<sim::Label>(after.begin(), after.end()),
            (std::vector<sim::Label>{40, 10, 20}));
}

TEST(View, AllAtLeaves) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1});
  EXPECT_FALSE(view.all_at_leaves());
  view.reposition(0, shape->leaf_at(0));
  EXPECT_FALSE(view.all_at_leaves());
  view.reposition(1, shape->leaf_at(5));
  EXPECT_TRUE(view.all_at_leaves());
}

TEST(View, StatsBmaxAndPathLoad) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1, 2, 3, 4});
  EXPECT_EQ(view.max_balls_at_node(), 5u);
  EXPECT_EQ(view.max_inner_path_load(), 5u);
  view.reposition(0, shape->left(TreeShape::root()));
  view.reposition(1, shape->left(TreeShape::root()));
  // Root has 3, left inner has 2: the left paths carry 5, right paths 3.
  EXPECT_EQ(view.max_balls_at_node(), 3u);
  EXPECT_EQ(view.max_inner_path_load(), 5u);
  view.reposition(0, shape->leaf_at(0));
  view.reposition(1, shape->leaf_at(1));
  view.reposition(2, shape->leaf_at(2));
  view.reposition(3, shape->leaf_at(3));
  view.reposition(4, shape->leaf_at(4));
  EXPECT_EQ(view.balls_on_inner_nodes(), 0u);
  EXPECT_EQ(view.max_inner_path_load(), 0u);
}

TEST(View, FindBallAt) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{4, 2});
  view.reposition(4, shape->leaf_at(1));
  EXPECT_EQ(view.find_ball_at(shape->leaf_at(1)), std::optional<sim::Label>(4));
  EXPECT_EQ(view.find_ball_at(shape->leaf_at(2)), std::nullopt);
  EXPECT_EQ(view.find_ball_at(TreeShape::root()),
            std::optional<sim::Label>(2));
}

TEST(View, CapacitySaturatesInsteadOfUnderflowing) {
  // Force a transient overfull leaf via repositioning (what stale crashed
  // entries do in divergent views); capacity must read 0, not wrap.
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1});
  view.reposition(0, shape->leaf_at(0));
  view.reposition(1, shape->leaf_at(0));
  EXPECT_EQ(view.remaining_capacity(shape->leaf_at(0)), 0u);
  EXPECT_EQ(view.balls_in_subtree(shape->leaf_at(0)), 2u);
  // Strict Lemma-1 check must flag it; the consistency-only check must not.
  EXPECT_THROW(view.check_capacity_invariant(true), ContractViolation);
  EXPECT_NO_THROW(view.check_capacity_invariant(false));
}

TEST(View, CountsStayConsistentUnderChurn) {
  auto shape = TreeShape::make(16);
  LocalTreeView view(shape);
  std::vector<sim::Label> labels;
  for (sim::Label l = 0; l < 16; ++l) {
    labels.push_back(l);
  }
  view.insert_all_at_root(labels);
  // Exercise a mix of descents, repositions, and removals.
  for (sim::Label l = 0; l < 16; ++l) {
    view.descend_toward(l, shape->leaf_at(static_cast<std::uint32_t>(l)));
  }
  EXPECT_TRUE(view.all_at_leaves());
  for (sim::Label l = 0; l < 8; ++l) {
    view.remove(l);
  }
  EXPECT_EQ(view.ball_count(), 8u);
  for (sim::Label l = 8; l < 16; ++l) {
    view.reposition(l, TreeShape::root());
  }
  EXPECT_EQ(view.balls_at(TreeShape::root()), 8u);
  view.check_capacity_invariant();
}

/// Every observable field of a view, for before/after comparison.
struct ViewState {
  std::vector<NodeId> current;  // per label 0..labels-1; kNoNode if absent
  std::vector<std::uint32_t> subtree;
  std::uint32_t ball_count = 0;
  std::vector<sim::Label> ordered;

  bool operator==(const ViewState&) const = default;
};

ViewState capture(const LocalTreeView& view, sim::Label labels) {
  ViewState state;
  for (sim::Label l = 0; l < labels; ++l) {
    state.current.push_back(view.contains(l) ? view.current(l) : kNoNode);
  }
  for (NodeId node = 0; node < view.shape().num_nodes(); ++node) {
    state.subtree.push_back(view.balls_in_subtree(node));
  }
  state.ball_count = view.ball_count();
  const std::span<const sim::Label> ordered = view.ordered_balls();
  state.ordered.assign(ordered.begin(), ordered.end());
  return state;
}

TEST(View, UndoDescendAndRestoreRecoverTheEarlierView) {
  auto shape = TreeShape::make(16);
  LocalTreeView view(shape);
  std::vector<sim::Label> labels;
  for (sim::Label l = 0; l < 16; ++l) {
    labels.push_back(l);
  }
  view.insert_all_at_root(labels);
  // A mid-phase view: some balls deep, some parked, one removed.
  view.descend_toward(0, shape->leaf_at(0));
  view.descend_toward(1, shape->leaf_at(1));
  view.descend_toward(2, shape->leaf_at(9));
  view.reposition(3, shape->parent(shape->leaf_at(5)));
  view.remove(4);
  const ViewState before = capture(view, 16);

  // Interleave descents (some clipped by full subtrees) with removals, as a
  // movement pass does, then undo everything in reverse.
  std::vector<std::pair<sim::Label, NodeId>> descents;
  const auto descend = [&](sim::Label ball, std::uint32_t leaf) {
    descents.emplace_back(ball, view.current(ball));
    view.descend_toward(ball, shape->leaf_at(leaf));
  };
  descend(3, 5);
  descend(5, 0);  // leaf 0 is taken: parks above it
  const NodeId at6 = view.current(6);
  view.remove(6);
  descend(7, 1);
  descend(8, 9);
  descend(9, 15);
  EXPECT_NE(capture(view, 16), before);
  for (auto it = descents.rbegin(); it != descents.rend(); ++it) {
    view.undo_descend(it->first, it->second);
  }
  view.restore(6, at6);
  EXPECT_EQ(capture(view, 16), before);
  view.check_capacity_invariant();

  // Restoring a previously removed ball at its old node is the inverse of
  // that removal too.
  view.restore(4, TreeShape::root());
  view.remove(4);
  EXPECT_EQ(capture(view, 16), before);
}

TEST(View, UndoPrimitivesRejectMisuse) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1, 2});
  view.descend_toward(0, shape->leaf_at(2));
  // Not an ancestor of the ball's node: a sibling leaf, a deeper node, and
  // a node outside the tree.
  EXPECT_THROW(view.undo_descend(0, shape->leaf_at(3)), ContractViolation);
  EXPECT_THROW(view.undo_descend(1, shape->leaf_at(0)), ContractViolation);
  EXPECT_THROW(view.undo_descend(0, shape->num_nodes()), ContractViolation);
  // Restoring a ball that is not removed, or an unregistered one.
  EXPECT_THROW(view.restore(1, TreeShape::root()), ContractViolation);
  EXPECT_THROW(view.restore(9, TreeShape::root()), ContractViolation);
  view.remove(2);
  EXPECT_THROW(view.undo_descend(2, TreeShape::root()), ContractViolation);
  EXPECT_THROW(view.restore(2, shape->num_nodes()), ContractViolation);
  // The failed calls left the view untouched.
  view.check_capacity_invariant();
  EXPECT_EQ(view.ball_count(), 2u);
  EXPECT_EQ(view.current(0), shape->leaf_at(2));
}

TEST(View, SingleLeafTreeHoldsOneBall) {
  LocalTreeView view(TreeShape::make(1));
  view.insert_all_at_root(std::vector<sim::Label>{42});
  EXPECT_TRUE(view.all_at_leaves());  // root is the leaf
  EXPECT_EQ(view.remaining_capacity(TreeShape::root()), 0u);
}

// ---- Registry layouts -------------------------------------------------------

// One label set per registry layout the view stores. Only the irregular one
// keeps its labels; the others compute a slot's label from base and stride.
struct Layout {
  const char* name;
  std::vector<sim::Label> labels;  // insertion order, deliberately unsorted
  std::vector<sim::Label> absent;  // labels contains() must reject
};

const std::vector<Layout>& layouts() {
  static const std::vector<Layout> all{
      // Below the base, one past the end.
      {"unit stride", {13, 10, 15, 11, 17, 12, 14, 16}, {0, 9, 18, 1000}},
      // Below the base, on each hole, one past the end.
      {"unit stride with holes", {17, 10, 13, 11, 14}, {9, 12, 15, 16, 18}},
      // Below the base, off stride (between and beside slots), one past
      // the end.
      {"stride 3", {14, 5, 11, 8, 17}, {2, 4, 6, 7, 9, 16, 18, 20}},
      // Too sparse for tombstones: binary-search fallback. Below the first
      // label, between labels, one past the last.
      {"irregular", {100, 3, 9, 4}, {2, 5, 50, 99, 101}},
  };
  return all;
}

/// Moves some balls off the root and removes one, mirroring every change
/// in `reference` (alive label -> node). Returns the removed label.
sim::Label churn(LocalTreeView& view,
                 std::map<sim::Label, NodeId>& reference) {
  const TreeShape& shape = view.shape();
  std::uint32_t i = 0;
  for (auto& [label, node] : reference) {
    if (i % 3 == 0) {
      node = shape.leaf_at(i % shape.num_leaves());
    } else if (i % 3 == 1) {
      node = shape.left(TreeShape::root());
    }
    view.reposition(label, node);
    ++i;
  }
  const sim::Label gone = std::next(reference.begin())->first;
  view.remove(gone);
  reference.erase(gone);
  return gone;
}

void expect_matches(LocalTreeView& view,
                    const std::map<sim::Label, NodeId>& reference,
                    const Layout& layout) {
  const TreeShape& shape = view.shape();
  std::vector<sim::Label> alive;
  for (const auto& [label, node] : reference) {
    alive.push_back(label);
    EXPECT_TRUE(view.contains(label)) << label;
    EXPECT_EQ(view.current(label), node) << label;
  }
  EXPECT_EQ(view.balls(), alive);
  EXPECT_EQ(view.ball_count(), alive.size());

  // <R: deeper first, then smaller label.
  std::vector<sim::Label> expected_order = alive;
  std::stable_sort(expected_order.begin(), expected_order.end(),
                   [&](sim::Label a, sim::Label b) {
                     return shape.depth(reference.at(a)) >
                            shape.depth(reference.at(b));
                   });
  const std::span<const sim::Label> order = view.ordered_balls();
  EXPECT_EQ(std::vector<sim::Label>(order.begin(), order.end()),
            expected_order);

  for (NodeId node = 0; node < shape.num_nodes(); ++node) {
    std::optional<sim::Label> smallest;
    for (const auto& [label, at] : reference) {
      if (at == node) {
        smallest = label;
        break;
      }
    }
    EXPECT_EQ(view.find_ball_at(node), smallest) << "node " << node;
  }

  for (const sim::Label label : layout.absent) {
    EXPECT_FALSE(view.contains(label)) << label;
    EXPECT_THROW((void)view.current(label), ContractViolation) << label;
    EXPECT_THROW(view.remove(label), ContractViolation) << label;
  }
}

TEST(View, EveryRegistryLayoutMatchesItsLabelList) {
  for (const Layout& layout : layouts()) {
    SCOPED_TRACE(layout.name);
    LocalTreeView view(shape8());
    view.insert_all_at_root(layout.labels);
    std::map<sim::Label, NodeId> reference;
    for (const sim::Label label : layout.labels) {
      reference.emplace(label, TreeShape::root());
    }
    expect_matches(view, reference, layout);

    const sim::Label removed = churn(view, reference);
    expect_matches(view, reference, layout);
    view.check_capacity_invariant(false);

    // A removed ball is registered but no longer contained.
    EXPECT_FALSE(view.contains(removed));
    EXPECT_THROW((void)view.current(removed), ContractViolation);
  }
}

// ---- Footprint --------------------------------------------------------------

// The exact engine holds one view per process, so every per-ball array in a
// view costs n² in total. A view may own subtree counts (2n−1 u32) and one
// node per slot (u32): 12 B per ball. A stored label copy or a per-view
// order buffer (8 B per ball each) must trip this.
TEST(View, FootprintIsTwelveBytesPerBall) {
  constexpr std::uint32_t kN = 4096;
  const auto shape = TreeShape::make(kN);
  const std::size_t budget = 12 * std::size_t{kN} + 8 * shape->height();

  std::vector<sim::Label> dense(kN);
  for (std::uint32_t id = 0; id < kN; ++id) {
    dense[id] = 1000 + id;
  }
  std::vector<sim::Label> holed = dense;  // the span stays kN labels wide
  holed.erase(holed.begin() + 2000);
  holed.erase(holed.begin() + 17);
  holed.erase(holed.begin() + 1);

  for (const std::vector<sim::Label>* labels : {&dense, &holed}) {
    LocalTreeView view(shape);
    view.insert_all_at_root(*labels);
    EXPECT_LE(view.heap_bytes(), budget) << labels->size() << " labels";
    // Ordering and moving must not grow per-view state either.
    for (const sim::Label ball : view.ordered_balls()) {
      view.descend_toward(
          ball, shape->leaf_at(static_cast<std::uint32_t>(ball % kN)));
    }
    view.remove(labels->back());
    (void)view.ordered_balls();
    EXPECT_LE(view.heap_bytes(), budget) << labels->size() << " labels";
  }
}

// ---- Concurrency ------------------------------------------------------------

/// A few phases of ordered movement on a fresh view: the iterate-while-
/// moving pattern of the engine's receive loop. Returns every phase's <R
/// order followed by the final positions.
std::vector<std::uint64_t> ordered_descents(
    const std::shared_ptr<const TreeShape>& shape, std::uint32_t index) {
  const std::uint32_t n = shape->num_leaves();
  std::vector<sim::Label> labels;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (id % 9 != index) {  // a different hole pattern per view
      labels.push_back(index + (index % 3 + 1) * sim::Label{id});
    }
  }
  LocalTreeView view(shape);
  view.insert_all_at_root(labels);
  std::vector<std::uint64_t> trace;
  for (std::uint32_t phase = 0; phase < 4; ++phase) {
    const std::span<const sim::Label> order = view.ordered_balls();
    trace.insert(trace.end(), order.begin(), order.end());
    for (const sim::Label ball : order) {
      const NodeId node = view.current(ball);
      const std::uint32_t pick =
          static_cast<std::uint32_t>((ball * 2654435761u + phase) %
                                     shape->leaf_count(node));
      view.descend_toward(ball,
                          shape->leaf_at(shape->first_leaf(node) + pick));
    }
  }
  for (const sim::Label ball : view.balls()) {
    trace.push_back(view.current(ball));
  }
  return trace;
}

// ordered_balls() returns per-thread scratch; views ordered on different
// threads at once must not share it (run under TSan in CI).
TEST(View, ConcurrentOrderingOnDistinctViewsMatchesSerial) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kViewsPerThread = 2;
  const auto shape = TreeShape::make(300);
  std::vector<std::vector<std::uint64_t>> serial(kThreads * kViewsPerThread);
  for (std::uint32_t index = 0; index < serial.size(); ++index) {
    serial[index] = ordered_descents(shape, index);
  }
  std::vector<std::vector<std::uint64_t>> concurrent(serial.size());
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t k = 0; k < kViewsPerThread; ++k) {
        const std::uint32_t index = t + k * kThreads;
        concurrent[index] = ordered_descents(shape, index);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(concurrent, serial);
}

}  // namespace
}  // namespace bil::tree
