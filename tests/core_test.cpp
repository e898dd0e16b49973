// Unit tests for the Balls-into-Leaves process (Algorithm 1): message
// codecs, path policies, fault-free execution, termination modes, and the
// protocol's phase structure.
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "core/balls_into_leaves.h"
#include "core/messages.h"
#include "core/policy.h"
#include "core/seeds.h"
#include "harness/runner.h"
#include "sim/decode_cache.h"
#include "sim/engine.h"
#include "tree/shape.h"
#include "util/rng.h"

namespace bil {
namespace {

using core::BallsIntoLeavesProcess;
using core::PathPolicy;
using core::TerminationMode;

// ---- Message codec ---------------------------------------------------------

TEST(Messages, InitRoundTrip) {
  const core::Message original = core::InitMsg{.label = 0xDEADBEEFCAFEULL};
  const wire::Buffer encoded = core::encode_message(original);
  const core::Message decoded = core::decode_message(encoded);
  ASSERT_TRUE(std::holds_alternative<core::InitMsg>(decoded));
  EXPECT_EQ(std::get<core::InitMsg>(decoded), std::get<core::InitMsg>(original));
}

TEST(Messages, PathRoundTrip) {
  const core::Message original =
      core::PathMsg{.label = 42, .start = 3, .target = 11};
  const core::Message decoded =
      core::decode_message(core::encode_message(original));
  ASSERT_TRUE(std::holds_alternative<core::PathMsg>(decoded));
  EXPECT_EQ(std::get<core::PathMsg>(decoded), std::get<core::PathMsg>(original));
}

TEST(Messages, PositionRoundTrip) {
  const core::Message original = core::PositionMsg{.label = 7, .node = 12};
  const core::Message decoded =
      core::decode_message(core::encode_message(original));
  ASSERT_TRUE(std::holds_alternative<core::PositionMsg>(decoded));
  EXPECT_EQ(std::get<core::PositionMsg>(decoded),
            std::get<core::PositionMsg>(original));
}

TEST(Messages, RejectsUnknownType) {
  wire::Writer writer;
  writer.u8(99);
  const wire::Buffer buffer = std::move(writer).take();
  EXPECT_THROW((void)core::decode_message(buffer), wire::WireError);
}

TEST(Messages, RejectsTrailingBytes) {
  wire::Buffer buffer = core::encode_message(core::InitMsg{.label = 1});
  buffer.push_back(std::byte{0});
  EXPECT_THROW((void)core::decode_message(buffer), wire::WireError);
}

TEST(Messages, PathMessageIsCompact) {
  // The paper's candidate path is encoded by its endpoints; the message must
  // stay small even for large trees (E7 relies on this).
  const wire::Buffer encoded = core::encode_message(
      core::PathMsg{.label = 1 << 20, .start = 1 << 18, .target = 1 << 19});
  EXPECT_LE(encoded.size(), 12u);
}

// encoded_size seeds encode_message's Writer reserve; if it ever drifts
// from the encoder, an under-estimate silently reintroduces the mid-encode
// reallocation it exists to remove. Pin exactness across small and
// varint-boundary-sized fields for every variant alternative.
TEST(Messages, EncodedSizePredictsEncodedLength) {
  const core::Message probes[] = {
      core::InitMsg{.label = 0},
      core::InitMsg{.label = 0xDEADBEEFCAFEULL},
      core::PathMsg{.label = 42, .start = 3, .target = 11},
      core::PathMsg{.label = std::numeric_limits<std::uint64_t>::max(),
                    .start = 1 << 18,
                    .target = (1 << 19) + 127},
      core::PositionMsg{.label = 7, .node = 12},
      core::PositionMsg{.label = 1 << 28, .node = 1 << 14},
  };
  for (const core::Message& message : probes) {
    EXPECT_EQ(core::encoded_size(message),
              core::encode_message(message).size());
  }
}

// ---- Fault-free end-to-end runs -------------------------------------------

harness::RunSummary run_simple(std::uint32_t n, std::uint64_t seed,
                               harness::Algorithm algorithm =
                                   harness::Algorithm::kBallsIntoLeaves) {
  harness::RunConfig config;
  config.algorithm = algorithm;
  config.n = n;
  config.seed = seed;
  return harness::run_renaming(config);
}

TEST(BallsIntoLeaves, SingleBallDecidesImmediately) {
  const harness::RunSummary summary = run_simple(1, 7);
  EXPECT_TRUE(summary.completed);
  EXPECT_EQ(summary.raw.outcomes[0].name, 1u);
  // Init round + one two-round phase.
  EXPECT_EQ(summary.rounds, 3u);
}

TEST(BallsIntoLeaves, TwoBallsSplitTheLeaves) {
  const harness::RunSummary summary = run_simple(2, 11);
  std::set<std::uint64_t> names;
  for (const auto& outcome : summary.raw.outcomes) {
    names.insert(outcome.name);
  }
  EXPECT_EQ(names, (std::set<std::uint64_t>{1, 2}));
}

TEST(BallsIntoLeaves, FaultFreeRunsAreValidForManySizes) {
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 27u, 32u,
                          64u, 100u}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const harness::RunSummary summary = run_simple(n, seed);
      EXPECT_TRUE(summary.completed) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(BallsIntoLeaves, RoundCountIsOddAndSmallFaultFree) {
  // rounds = 1 (init) + 2 * phases; fault-free phase counts should be tiny.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const harness::RunSummary summary = run_simple(256, seed);
    EXPECT_EQ(summary.rounds % 2, 1u);
    EXPECT_LE(summary.rounds, 1 + 2 * 12u) << "seed=" << seed;
  }
}

TEST(BallsIntoLeaves, DeterministicGivenSeed) {
  const harness::RunSummary a = run_simple(64, 1234);
  const harness::RunSummary b = run_simple(64, 1234);
  ASSERT_EQ(a.raw.outcomes.size(), b.raw.outcomes.size());
  for (std::size_t i = 0; i < a.raw.outcomes.size(); ++i) {
    EXPECT_EQ(a.raw.outcomes[i].name, b.raw.outcomes[i].name) << i;
  }
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(BallsIntoLeaves, DifferentSeedsUsuallyDiffer) {
  const harness::RunSummary a = run_simple(64, 1);
  const harness::RunSummary b = run_simple(64, 2);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.raw.outcomes.size(); ++i) {
    any_difference |= a.raw.outcomes[i].name != b.raw.outcomes[i].name;
  }
  EXPECT_TRUE(any_difference);
}

TEST(BallsIntoLeaves, EagerLeafModeMatchesProperties) {
  for (std::uint32_t n : {1u, 2u, 5u, 16u, 33u, 64u}) {
    harness::RunConfig config;
    config.n = n;
    config.seed = 99 + n;
    config.termination = core::TerminationMode::kEagerLeaf;
    const harness::RunSummary summary = harness::run_renaming(config);
    EXPECT_TRUE(summary.completed) << "n=" << n;
  }
}

TEST(BallsIntoLeaves, EagerNeverSlowerThanGlobalFaultFree) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    harness::RunConfig config;
    config.n = 128;
    config.seed = seed;
    config.termination = core::TerminationMode::kGlobal;
    const auto global_mode = harness::run_renaming(config);
    config.termination = core::TerminationMode::kEagerLeaf;
    const auto eager_mode = harness::run_renaming(config);
    EXPECT_LE(eager_mode.rounds, global_mode.rounds) << "seed=" << seed;
  }
}

// ---- Deterministic policies ------------------------------------------------

TEST(RankDescent, FaultFreeFinishesInOnePhase) {
  // With no failures every ball targets a distinct leaf by rank, so the
  // first phase places everyone: 1 init round + 2 phase rounds.
  for (std::uint32_t n : {2u, 8u, 64u, 257u}) {
    const harness::RunSummary summary =
        run_simple(n, 5, harness::Algorithm::kRankDescent);
    EXPECT_EQ(summary.rounds, 3u) << "n=" << n;
  }
}

TEST(RankDescent, NamesAreRankOrderedFaultFree) {
  // Rank-indexed descent assigns names order-preservingly when nothing
  // fails: ball with i-th smallest label gets name i.
  const harness::RunSummary summary =
      run_simple(32, 17, harness::Algorithm::kRankDescent);
  for (std::size_t i = 0; i < summary.raw.outcomes.size(); ++i) {
    EXPECT_EQ(summary.raw.outcomes[i].name, i + 1);
  }
}

TEST(EarlyTerminating, FaultFreeConstantRounds) {
  // Theorem 3: O(1) rounds deterministically in failure-free executions.
  for (std::uint32_t n : {2u, 16u, 128u, 512u}) {
    const harness::RunSummary summary =
        run_simple(n, 21, harness::Algorithm::kEarlyTerminating);
    EXPECT_EQ(summary.rounds, 3u) << "n=" << n;
  }
}

TEST(Halving, TakesExactlyHeightPhasesFaultFree) {
  for (std::uint32_t n : {2u, 4u, 16u, 64u}) {
    const harness::RunSummary summary =
        run_simple(n, 3, harness::Algorithm::kHalving);
    const auto height = tree::TreeShape(n).height();
    EXPECT_EQ(summary.rounds, 1 + 2 * height) << "n=" << n;
  }
}

TEST(Halving, RaggedSizesStillRename) {
  for (std::uint32_t n : {3u, 5u, 6u, 7u, 9u, 100u, 129u}) {
    const harness::RunSummary summary =
        run_simple(n, 31, harness::Algorithm::kHalving);
    EXPECT_TRUE(summary.completed) << "n=" << n;
  }
}

// ---- Policy helpers --------------------------------------------------------

TEST(Policy, SampleWeightedLeafRespectsFullSubtrees) {
  auto shape = tree::TreeShape::make(4);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1, 2});
  // Park ball 0 and 1 on the two left leaves; the left subtree is full.
  const tree::NodeId left = shape->left(tree::TreeShape::root());
  view.reposition(0, shape->left(left));
  view.reposition(1, shape->right(left));
  Rng rng(42);
  for (int i = 0; i < 64; ++i) {
    const tree::NodeId leaf =
        core::sample_weighted_leaf(view, tree::TreeShape::root(), rng);
    EXPECT_GE(shape->leaf_rank(leaf), 2u) << "sampled into a full subtree";
  }
}

TEST(Policy, RankedSlackLeafEnumeratesFreeSlots) {
  auto shape = tree::TreeShape::make(8);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  view.reposition(0, shape->leaf_at(2));
  // Free slots, left to right: leaves 0,1,3,4,5,6,7.
  const std::vector<std::uint32_t> expected{0, 1, 3, 4, 5, 6, 7};
  for (std::uint32_t rank = 0; rank < expected.size(); ++rank) {
    const tree::NodeId leaf =
        core::ranked_slack_leaf(view, tree::TreeShape::root(), rank);
    EXPECT_EQ(shape->leaf_rank(leaf), expected[rank]) << "rank=" << rank;
  }
}

TEST(Policy, RankedSlackClampsOutOfRangeRanks) {
  auto shape = tree::TreeShape::make(4);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  const tree::NodeId leaf =
      core::ranked_slack_leaf(view, tree::TreeShape::root(), 1000);
  EXPECT_TRUE(shape->is_leaf(leaf));
  EXPECT_EQ(shape->leaf_rank(leaf), 3u);  // clamped to the last free slot
}

TEST(Policy, HalvingChildSplitsProportionally) {
  auto shape = tree::TreeShape::make(8);
  tree::LocalTreeView view(shape);
  std::vector<sim::Label> labels{0, 1, 2, 3, 4, 5, 6, 7};
  view.insert_all_at_root(labels);
  const tree::NodeId root = tree::TreeShape::root();
  // 8 balls, capacities 4/4: ranks 0..3 left, 4..7 right.
  for (std::uint32_t r = 0; r < 8; ++r) {
    const tree::NodeId child = core::halving_child(view, root, r, 8);
    EXPECT_EQ(child, r < 4 ? shape->left(root) : shape->right(root))
        << "rank=" << r;
  }
}

TEST(Policy, RankAmongNodeMates) {
  auto shape = tree::TreeShape::make(4);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{10, 20, 30});
  view.reposition(20, shape->left(tree::TreeShape::root()));
  EXPECT_EQ(core::rank_among_node_mates(view, 10), 0u);
  EXPECT_EQ(core::rank_among_node_mates(view, 30), 1u);  // 20 moved away
  EXPECT_EQ(core::rank_among_node_mates(view, 20), 0u);
}

// ---- Phase instrumentation --------------------------------------------------

// ---- Crash-round inboxes: shared plan plus extras ---------------------------

/// Payloads with stable addresses for hand-assembled inboxes.
class Payloads {
 public:
  const wire::Buffer* add(const core::Message& message) {
    buffers_.push_back(core::encode_message(message));
    return &buffers_.back();
  }
  const wire::Buffer* garbage() {
    buffers_.push_back(wire::Buffer{std::byte{99}});
    return &buffers_.back();
  }

 private:
  std::deque<wire::Buffer> buffers_;
};

/// One delivered message; `extra` marks a special sender's (a sender that
/// crashed this round and reached this recipient).
struct Sent {
  sim::ProcessId from = 0;
  const wire::Buffer* payload = nullptr;
  bool extra = false;
};

TEST(RoundIndex, LayeredInboxReusesTheSharedPlanMemo) {
  Payloads payloads;
  sim::DecodeCache cache;
  cache.begin_round();
  std::vector<sim::Envelope> merged;
  for (sim::ProcessId from = 0; from < 4; ++from) {
    merged.push_back(
        sim::Envelope{from, payloads.add(core::InitMsg{from}), &cache});
  }
  const std::vector<sim::Envelope> shared{merged[0], merged[1], merged[3]};
  const std::vector<sim::Envelope> extras{merged[2]};
  cache.set_shared_inbox(shared);
  int builds = 0;
  const auto build = [&builds](std::span<const sim::Envelope> inbox) {
    ++builds;
    return inbox.size();
  };
  std::size_t scratch = 0;
  std::span<const sim::Envelope> got;

  EXPECT_EQ(*sim::round_index(std::span(shared), scratch, build), 3u);
  EXPECT_EQ(builds, 1);
  cache.set_layered_inbox(merged, extras);
  EXPECT_EQ(*sim::round_index(std::span(merged), scratch, build, &got), 3u);
  EXPECT_EQ(builds, 1);  // the shared plan's memo, not a rebuild
  EXPECT_EQ(got.data(), extras.data());
  EXPECT_EQ(got.size(), 1u);
  // Without the extras out-parameter the layered inbox is indexed whole.
  EXPECT_EQ(*sim::round_index(std::span(merged), scratch, build), 4u);
  EXPECT_EQ(builds, 2);
  cache.clear_layered_inbox();
  EXPECT_EQ(*sim::round_index(std::span(merged), scratch, build, &got), 4u);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(builds, 3);
}

/// Delivers one round to `layered` as the engine would in a crash round —
/// through a DecodeCache whose shared plan another recipient has already
/// indexed, with the inbox recorded as that plan plus `extra` senders —
/// and the same merged inbox to `whole` with no cache at all.
void deliver_twice(sim::RoundNumber round, const std::vector<Sent>& inbox,
                   BallsIntoLeavesProcess& layered,
                   BallsIntoLeavesProcess& whole) {
  sim::Outbox outbox;
  layered.on_send(round, outbox);
  outbox.clear();
  whole.on_send(round, outbox);

  sim::DecodeCache cache;
  cache.begin_round();
  std::vector<sim::Envelope> shared;
  std::vector<sim::Envelope> extras;
  std::vector<sim::Envelope> merged;
  std::vector<sim::Envelope> plain;
  for (const Sent& sent : inbox) {
    const sim::Envelope envelope{sent.from, sent.payload, &cache};
    (sent.extra ? extras : shared).push_back(envelope);
    merged.push_back(envelope);
    plain.push_back(sim::Envelope{sent.from, sent.payload, nullptr});
  }
  cache.set_shared_inbox(shared);
  core::BallsIntoLeavesProcess shared_recipient(
      BallsIntoLeavesProcess::Options{.num_names = 8, .label = 1});
  if (round == 0) {
    shared_recipient.on_receive(round, shared);  // builds the plan's memo
  }
  cache.set_layered_inbox(merged, extras);
  layered.on_receive(round, merged);
  cache.clear_layered_inbox();
  whole.on_receive(round, plain);
}

/// Init, path and position rounds in which senders 3, 5, 6 and 7 crash
/// with partial delivery. With `collide`, extras also repeat labels the
/// shared plan carries — from a lower sender (label 7, whose extra must
/// win) and from a higher one (labels 1 and 0, whose shared message must
/// win) — plus a malformed extra payload. In both variants two extras
/// carry label 6, which the shared plan lacks: the lower sender's wins.
void expect_layered_matches_whole(bool collide) {
  const auto shape = tree::TreeShape::make(8);
  const tree::NodeId root = tree::TreeShape::root();
  Payloads p;
  const auto path = [&](sim::Label label, std::uint32_t leaf) {
    return p.add(core::PathMsg{label, root, shape->leaf_at(leaf)});
  };
  const auto position = [&](sim::Label label, tree::NodeId node) {
    return p.add(core::PositionMsg{label, node});
  };
  std::vector<Sent> init;
  for (sim::ProcessId from = 0; from < 8; ++from) {
    if (from != 5) {  // 5 reaches nobody here: a hole in the label set
      init.push_back(Sent{from, p.add(core::InitMsg{from}), from == 3});
    }
  }
  std::vector<Sent> paths;
  for (sim::ProcessId from : {0u, 1u, 2u}) {
    paths.push_back(Sent{from, path(from, from)});
  }
  paths.push_back(Sent{3, path(3, 3), true});
  paths.push_back(Sent{3, path(6, 2), true});
  if (collide) {
    paths.push_back(Sent{3, path(7, 0), true});
    paths.push_back(Sent{3, p.garbage(), true});
  }
  paths.push_back(Sent{4, path(4, 4)});
  paths.push_back(Sent{6, path(6, 6), true});
  if (collide) {
    paths.push_back(Sent{6, path(1, 5), true});
  }
  paths.push_back(Sent{7, path(7, 7)});
  std::vector<Sent> positions;
  for (sim::ProcessId from : {0u, 1u, 2u, 4u}) {
    positions.push_back(Sent{from, position(from, shape->leaf_at(from))});
  }
  positions.push_back(Sent{7, position(7, shape->leaf_at(7)), true});
  if (collide) {
    positions.push_back(Sent{7, position(0, root), true});
  }

  for (const sim::Label me : {0u, 2u, 4u}) {
    const BallsIntoLeavesProcess::Options options{
        .num_names = 8, .label = me, .seed = 40 + me, .shape = shape};
    BallsIntoLeavesProcess layered(options);
    BallsIntoLeavesProcess whole(options);
    sim::RoundNumber round = 0;
    for (const std::vector<Sent>* inbox : {&init, &paths, &positions}) {
      deliver_twice(round, *inbox, layered, whole);
      const std::vector<sim::Label> balls = whole.view().balls();
      ASSERT_EQ(layered.view().balls(), balls) << "round " << round;
      for (const sim::Label ball : balls) {
        EXPECT_EQ(layered.view().current(ball), whole.view().current(ball))
            << "round " << round << " ball " << ball;
      }
      ++round;
    }
    // Silent balls 3 and 6 are gone; 5 never arrived. Ball 0 took its own
    // (shared, lower-sender) position, not sender 7's extra claim.
    EXPECT_EQ(whole.view().balls(), (std::vector<sim::Label>{0, 1, 2, 4, 7}));
    EXPECT_EQ(whole.view().current(0), shape->leaf_at(0));
  }
}

TEST(RoundIndex, LayeredInboxMatchesWholeInbox) {
  expect_layered_matches_whole(false);
}

TEST(RoundIndex, LabelCollisionFallsBackInSenderOrder) {
  expect_layered_matches_whole(true);
}

TEST(Observer, SnapshotsCoverEveryPhase) {
  harness::RunConfig config;
  config.n = 64;
  config.seed = 8;
  config.observe = true;
  const harness::RunSummary summary = harness::run_renaming(config);
  ASSERT_FALSE(summary.phases.empty());
  for (std::size_t i = 0; i < summary.phases.size(); ++i) {
    EXPECT_EQ(summary.phases[i].phase, i + 1);
  }
  // Final phase: everything at leaves.
  EXPECT_EQ(summary.phases.back().balls_inner, 0u);
  EXPECT_EQ(summary.phases.back().balls_total, 64u);
  // First phase of a 64-ball run leaves contention strictly below n.
  EXPECT_LT(summary.phases.front().bmax, 64u);
}

TEST(Observer, BmaxDecreasesOverPhases) {
  harness::RunConfig config;
  config.n = 512;
  config.seed = 3;
  config.observe = true;
  const harness::RunSummary summary = harness::run_renaming(config);
  ASSERT_GE(summary.phases.size(), 2u);
  EXPECT_LT(summary.phases.back().bmax,
            summary.phases.front().bmax + 1);
}

}  // namespace
}  // namespace bil
