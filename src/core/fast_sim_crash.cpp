#include "core/fast_sim_crash.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/seeds.h"
#include "tree/local_view.h"
#include "util/contract.h"
#include "util/rng.h"

namespace bil::core {

namespace {

enum class Status : std::uint8_t { kAlive, kHalted, kCrashed };

/// A crashed ball's stale entry, present only in the views of `members`
/// (the recipients of its final broadcast). Created by init/position-round
/// crashes, consulted for one path round's target choices and the halt
/// check, then purged (see the header's divergence model).
struct Ghost {
  sim::Label label = 0;
  tree::NodeId node = tree::kNoNode;
  /// Bit id of `members` (one u64 word per 64 balls) is set iff ball id
  /// received the victim's final broadcast.
  std::vector<std::uint64_t> members;

  [[nodiscard]] bool reached(sim::ProcessId id) const {
    return ((members[id / 64] >> (id % 64)) & 1) != 0;
  }
};

/// Capacity overlay: the canonical view plus the ghost entries a specific
/// ball's local view still contains. Satisfies the view concept the policy
/// samplers are templated over; remaining_capacity saturates at 0 exactly
/// like tree::LocalTreeView (stale entries can overfill a subtree).
class GhostedView {
 public:
  GhostedView(const tree::LocalTreeView& base,
              std::span<const tree::NodeId> extras) noexcept
      : base_(base), extras_(extras) {}

  [[nodiscard]] const tree::TreeShape& shape() const noexcept {
    return base_.shape();
  }

  [[nodiscard]] std::uint32_t remaining_capacity(tree::NodeId node) const {
    std::uint32_t balls = base_.balls_in_subtree(node);
    const tree::TreeShape& shape = base_.shape();
    for (const tree::NodeId extra : extras_) {
      if (shape.is_ancestor_or_self(node, extra)) {
        ++balls;
      }
    }
    const std::uint32_t leaves = shape.leaf_count(node);
    return balls >= leaves ? 0 : leaves - balls;
  }

 private:
  const tree::LocalTreeView& base_;
  std::span<const tree::NodeId> extras_;
};

class CrashFastSim {
 public:
  CrashFastSim(const CrashFastSimOptions& options, sim::Adversary* adversary,
               AdversaryViewOracle* oracle)
      : options_(options),
        adversary_(adversary),
        oracle_(oracle),
        shape_(tree::TreeShape::make(options.n)),
        view_(shape_),
        status_(options.n, Status::kAlive),
        targets_(options.n, tree::kNoNode),
        new_pos_(options.n, tree::kNoNode),
        names_(options.n, 0) {
    per_phase_.reserve(shape_->height() + 1);
    rngs_.reserve(options.n);
    for (std::uint32_t i = 0; i < options.n; ++i) {
      rngs_.emplace_back(derive_seed(options.seed, kSeedDomainProcess, i));
    }
  }

  CrashFastSimResult run() {
    const sim::RoundNumber max_rounds =
        options_.max_rounds != 0 ? options_.max_rounds
                                 : 16 * options_.n + 64;
    alive_count_ = options_.n;
    sim::RoundNumber round = 0;
    while (alive_count_ > 0 && round < max_rounds) {
      step(round);
      ++round;
    }

    CrashFastSimResult result;
    result.completed = alive_count_ == 0;
    result.total_rounds = round;
    BIL_ENSURE(result.completed, "crash fast sim hit its round cap");
    BIL_ENSURE(any_decided_, "no correct ball decided");
    result.rounds = last_decide_round_ + 1;
    result.crashes = crashes_so_far_;
    result.deliveries = deliveries_;
    result.per_phase = std::move(per_phase_);
    result.names = std::move(names_);
    return result;
  }

 private:
  void step(sim::RoundNumber round) {
    // ---- Send phase (symbolic). Every alive ball broadcasts exactly one
    // message: its label (round 0), its candidate path (odd rounds), or its
    // position (even rounds > 0). Path rounds are the only ones whose
    // content matters here — and the only ones that consume protocol coins.
    alive_.clear();
    for (std::uint32_t id = 0; id < options_.n; ++id) {
      if (status_[id] == Status::kAlive) {
        alive_.push_back(id);
      }
    }
    if (round % 2 == 1) {
      compute_targets(round);
      // The entries of balls that halted last round — and last phase's
      // ghosts — are purged at their <R turn during this round's movement
      // in the engine. Both sit where they cannot deflect anyone processed
      // before their turn (halted balls at leaves, ghosts per the stale-
      // entry argument), so dropping them before the movement pass is
      // exact. Target choices above already saw them.
      for (const sim::Label label : halted_pending_) {
        view_.remove(label);
      }
      halted_pending_.clear();
      ghosts_.clear();
    }

    // ---- Adversary phase: identical observation point to the engine —
    // after sends, before delivery — against the same alive list. With an
    // oracle, the adversary additionally sees this round's synthesized
    // traffic (every alive ball's own-view position is view_.current and
    // its candidate target is targets_, both exact at this point).
    sim::CrashPlan plan;
    if (adversary_ != nullptr) {
      const std::uint32_t budget = options_.max_crashes - crashes_so_far_;
      const sim::RoundView view =
          oracle_ != nullptr
              ? oracle_->round_view(round, alive_, budget, view_, targets_)
              : sim::make_schedule_view(round, options_.n, alive_, budget);
      adversary_->schedule(view, plan);
    }
    const std::span<const sim::CrashPlan::Crash> crashes = plan.crashes();
    for (const sim::CrashPlan::Crash& crash : crashes) {
      BIL_REQUIRE(crash.victim < options_.n, "crash victim id out of range");
      BIL_REQUIRE(status_[crash.victim] == Status::kAlive,
                  "adversary crashed a process that is not alive");
      BIL_REQUIRE(crashes_so_far_ < options_.max_crashes,
                  "adversary exceeded its crash budget t");
      status_[crash.victim] = Status::kCrashed;
      ++crashes_so_far_;
      --alive_count_;
    }

    // ---- Delivery accounting, analytically: the (A−c) surviving
    // recipients each receive the (A−c) surviving broadcasts, plus each
    // victim's final messages to the distinct surviving members of its
    // deliver_to (a set, as in the engine's delivery mask).
    const auto survivors =
        static_cast<std::uint64_t>(alive_.size()) - crashes.size();
    deliveries_ += survivors * survivors;
    reached_.resize(crashes.size());
    for (std::size_t v = 0; v < crashes.size(); ++v) {
      std::vector<sim::ProcessId>& reached = reached_[v];
      reached.assign(crashes[v].deliver_to.begin(),
                     crashes[v].deliver_to.end());
      std::sort(reached.begin(), reached.end());
      reached.erase(std::unique(reached.begin(), reached.end()),
                    reached.end());
      BIL_REQUIRE(reached.empty() || reached.back() < options_.n,
                  "crash delivery recipient out of range");
      std::erase_if(reached, [this](sim::ProcessId id) {
        return status_[id] != Status::kAlive;
      });
      deliveries_ += reached.size();
    }

    // ---- Receive phase.
    if (round == 0) {
      process_init(plan);
    } else if (round % 2 == 1) {
      process_path_round(plan);
    } else {
      process_position_round(round, plan);
    }
  }

  /// Round 0: survivors insert each other at the root; each init victim
  /// leaves a root ghost in its recipients' views (which shifts their
  /// phase-1 node-mate ranks — Theorem 4's rank-divergence mechanism —
  /// but no child capacity, so the randomized policies are unaffected).
  void process_init(const sim::CrashPlan& plan) {
    std::vector<sim::Label> labels;
    labels.reserve(options_.n);
    for (std::uint32_t id = 0; id < options_.n; ++id) {
      if (status_[id] == Status::kAlive) {
        labels.push_back(id);
      }
    }
    view_.insert_all_at_root(labels);
    add_ghosts(plan, [](const sim::CrashPlan::Crash&) {
      return tree::TreeShape::root();
    });
  }

  /// Odd rounds: candidate-path exchange and <R-ordered capacity-clipped
  /// movement. Crash-subset delivery makes inboxes differ only in which of
  /// this round's victims' paths they hold, and a ball's descent reads only
  /// the view state built by the balls before it in <R order (Definition 1;
  /// the Proposition 1 argument). So a survivor's outcome is fixed by its
  /// *effective prefix*: which of the victims ahead of it in <R order it
  /// received. The victims cut the <R order into segments; the prefixes
  /// the survivors carry form a binary trie, one level per victim. One
  /// depth-first walk over that trie, in place on the canonical view,
  /// simulates each segment once per trie node at its depth, records the
  /// positions of the survivors whose prefix ends there, and undoes its
  /// moves on the way back. Each ball's canonical position becomes the
  /// outcome under its own inbox (what it would announce — and every view
  /// adopt — next round).
  void process_path_round(const sim::CrashPlan& plan) {
    const std::span<const sim::CrashPlan::Crash> crashes = plan.crashes();
    // The canonical view still holds this round's victims at their
    // phase-start positions, which is where every inbox's movement pass
    // starts from; this <R order serves every branch of the walk. It lives
    // in per-thread scratch, so nothing below may call ordered_balls().
    const std::span<const sim::Label> order = view_.ordered_balls();
    if (crashes.empty()) {
      // No victims: one segment, one trie node — move in place.
      for (const sim::Label label : order) {
        view_.descend_toward(
            label, targets_[static_cast<std::uint32_t>(label)]);
      }
      return;
    }

    victim_index_.resize(options_.n);  // first crash round only
    for (std::uint32_t v = 0; v < crashes.size(); ++v) {
      victim_index_[crashes[v].victim] = v;
    }
    cuts_.clear();
    carriers_.clear();
    start_.resize(order.size());
    for (std::uint32_t pos = 0; pos < order.size(); ++pos) {
      const auto id = static_cast<std::uint32_t>(order[pos]);
      start_[pos] = view_.current(id);
      if (status_[id] == Status::kCrashed) {
        cuts_.push_back(Cut{pos, id, victim_index_[id]});
      } else {
        carriers_.push_back(pos);
      }
    }
    BIL_ENSURE(cuts_.size() == crashes.size(),
               "every victim must sit in the movement order");

    // Segment j: the <R positions between victim j−1 and victim j. Walking
    // trie node (depth j, carriers_[lo, hi)) simulates segment j — only up
    // to its last carrier at a trie leaf, where nothing later is read —
    // and records the carriers that end there, then stably partitions the
    // rest by whether they received victim j. Carriers stay in <R order
    // within every range, so those ending at depth j are a range prefix.
    const auto segment_begin = [&](std::uint32_t depth) {
      return depth == 0 ? 0 : cuts_[depth - 1].pos + 1;
    };
    const auto enter = [&](std::uint32_t depth, std::uint32_t lo,
                           std::uint32_t hi) {
      const std::uint32_t segment_end =
          depth < cuts_.size() ? cuts_[depth].pos
                               : static_cast<std::uint32_t>(order.size());
      std::uint32_t rest = lo;
      while (rest < hi && carriers_[rest] < segment_end) {
        ++rest;
      }
      const std::uint32_t end = rest < hi ? segment_end : carriers_[hi - 1] + 1;
      for (std::uint32_t pos = segment_begin(depth); pos < end; ++pos) {
        view_.descend_toward(order[pos],
                             targets_[static_cast<std::uint32_t>(order[pos])]);
      }
      for (std::uint32_t i = lo; i < rest; ++i) {
        const auto id = static_cast<std::uint32_t>(order[carriers_[i]]);
        new_pos_[id] = view_.current(id);
      }
      std::uint32_t mid = rest;
      if (rest < hi) {
        const std::vector<sim::ProcessId>& reached =
            reached_[cuts_[depth].crash_index];
        missed_.clear();
        for (std::uint32_t i = rest; i < hi; ++i) {
          const auto id = static_cast<sim::ProcessId>(order[carriers_[i]]);
          if (std::binary_search(reached.begin(), reached.end(), id)) {
            carriers_[mid++] = carriers_[i];
          } else {
            missed_.push_back(carriers_[i]);
          }
        }
        std::copy(missed_.begin(), missed_.end(), carriers_.begin() + mid);
      }
      walk_.push_back(Frame{depth, rest, mid, hi, end, 0});
    };

    // Explicit stack: a burst can put thousands of victims in one round.
    // A frame's children are [lo, mid) — victim `depth` received, so it
    // descends — and [mid, hi) — missed, so it is removed at its turn (the
    // load-bearing interleaving of Algorithm 1, lines 12–20).
    if (!carriers_.empty()) {
      enter(0, 0, static_cast<std::uint32_t>(carriers_.size()));
    }
    while (!walk_.empty()) {
      Frame& frame = walk_.back();
      const std::uint32_t depth = frame.depth;
      if (frame.stage == 0) {
        frame.stage = 1;
        if (frame.lo < frame.mid) {
          const Cut& cut = cuts_[depth];
          view_.descend_toward(cut.victim, targets_[cut.victim]);
          enter(depth + 1, frame.lo, frame.mid);
          continue;
        }
      }
      if (frame.stage == 1) {
        frame.stage = 2;
        if (frame.lo < frame.mid) {
          view_.undo_descend(cuts_[depth].victim, start_[cuts_[depth].pos]);
        }
        if (frame.mid < frame.hi) {
          view_.remove(cuts_[depth].victim);
          enter(depth + 1, frame.mid, frame.hi);
          continue;
        }
      }
      if (frame.mid < frame.hi) {
        view_.restore(cuts_[depth].victim, start_[cuts_[depth].pos]);
      }
      for (std::uint32_t pos = segment_begin(depth); pos < frame.end; ++pos) {
        view_.undo_descend(order[pos], start_[pos]);
      }
      walk_.pop_back();
    }

    // Fold the outcomes back into the canonical view: victims leave every
    // view by the end of the next round without further effect, survivors
    // land at the position their own inbox gave them.
    for (const sim::CrashPlan::Crash& crash : crashes) {
      view_.remove(crash.victim);
    }
    for (const std::uint32_t pos : carriers_) {
      const sim::Label label = order[pos];
      view_.reposition(label, new_pos_[static_cast<std::uint32_t>(label)]);
    }
  }

  /// Even rounds > 0: position synchronization, ghost creation for this
  /// round's victims, and the halt check (Algorithm 1 line 29). All views
  /// agree on every correct ball's announced position; they disagree only
  /// about this round's victims — whose stale entries block the halt check
  /// for exactly their recipients when parked on a non-leaf node.
  void process_position_round(sim::RoundNumber round,
                              const sim::CrashPlan& plan) {
    add_ghosts(plan, [this](const sim::CrashPlan::Crash& crash) {
      return view_.current(crash.victim);
    });
    for (const sim::CrashPlan::Crash& crash : plan.crashes()) {
      view_.remove(crash.victim);
    }
    per_phase_.push_back(snapshot_view(view_, round / 2));
    if (!view_.all_at_leaves()) {
      return;
    }
    for (const sim::ProcessId id : alive_) {
      if (status_[id] != Status::kAlive) {
        continue;  // crashed this round
      }
      bool blocked = false;
      for (const Ghost& ghost : ghosts_) {
        if (ghost.reached(id) && !shape_->is_leaf(ghost.node)) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        continue;  // its view still shows a ball on an inner node
      }
      status_[id] = Status::kHalted;
      --alive_count_;
      names_[id] = shape_->leaf_rank(view_.current(id)) + 1;
      last_decide_round_ = round;
      any_decided_ = true;
      halted_pending_.push_back(id);
    }
  }

  /// Target choice for every alive ball, against its own view = canonical
  /// view + the ghosts it received. Engine-equivalent inputs: subtree
  /// capacities via the GhostedView overlay (the canonical view itself for
  /// a ball holding no ghosts), node-mate ranks and halving mates adjusted
  /// by co-located ghosts, per-ball coins from the same derived stream.
  void compute_targets(sim::RoundNumber round) {
    const bool needs_ranks =
        options_.policy == PathPolicy::kRankedSlack ||
        options_.policy == PathPolicy::kHalvingSplit ||
        (options_.policy == PathPolicy::kEarlyTerminating && round == 1);
    if (needs_ranks) {
      rank_of_.resize(options_.n);
      mates_of_.resize(options_.n);
      mates_at_.resize(shape_->num_nodes(), 0);
      // alive_ is ascending, so counting each node's occupants in that
      // order gives every alive ball its rank among its node mates (only
      // inner balls' entries are read: halted balls sit on leaves and
      // cannot be node mates of a ball that still needs a path).
      for (const sim::ProcessId id : alive_) {
        rank_of_[id] = mates_at_[view_.current(id)]++;
      }
      for (const sim::ProcessId id : alive_) {
        mates_of_[id] = mates_at_[view_.current(id)];
      }
      for (const sim::ProcessId id : alive_) {
        mates_at_[view_.current(id)] = 0;
      }
    }

    // `rank` and `mates` are read only by the rank-indexed policies, whose
    // rank_of_/mates_of_ entries are fresh this round.
    const auto choose = [&](const auto& view, sim::ProcessId id,
                            tree::NodeId current, std::uint32_t rank,
                            std::uint32_t mates) {
      switch (options_.policy) {
        case PathPolicy::kRandomWeighted:
          return sample_weighted_leaf(view, current, rngs_[id]);
        case PathPolicy::kRankedSlack:
          return ranked_slack_leaf(view, current, rank);
        case PathPolicy::kEarlyTerminating:
          return round == 1 ? ranked_slack_leaf(view, current, rank)
                            : sample_weighted_leaf(view, current, rngs_[id]);
        case PathPolicy::kHalvingSplit:
          return halving_child(view, current, rank, mates);
        case PathPolicy::kRandomUniform:
          return sample_uniform_leaf(view, current, rngs_[id]);
      }
      return tree::kNoNode;
    };
    for (const sim::ProcessId id : alive_) {
      const tree::NodeId current = view_.current(id);
      if (shape_->is_leaf(current)) {
        targets_[id] = current;  // trivial path; no coins, no ranks
        continue;
      }
      const std::uint32_t rank = needs_ranks ? rank_of_[id] : 0;
      const std::uint32_t mates = needs_ranks ? mates_of_[id] : 0;
      extras_.clear();
      std::uint32_t ghost_rank = 0;
      std::uint32_t ghost_mates = 0;
      for (const Ghost& ghost : ghosts_) {
        if (!ghost.reached(id)) {
          continue;
        }
        extras_.push_back(ghost.node);
        if (ghost.node == current) {
          ++ghost_mates;
          if (ghost.label < id) {
            ++ghost_rank;
          }
        }
      }
      targets_[id] =
          extras_.empty()
              ? choose(view_, id, current, rank, mates)
              : choose(GhostedView(view_, extras_), id, current,
                       rank + ghost_rank, mates + ghost_mates);
    }
  }

  template <typename NodeOf>
  void add_ghosts(const sim::CrashPlan& plan, NodeOf node_of) {
    const std::span<const sim::CrashPlan::Crash> crashes = plan.crashes();
    for (std::size_t v = 0; v < crashes.size(); ++v) {
      Ghost ghost;
      ghost.label = crashes[v].victim;
      ghost.node = node_of(crashes[v]);
      ghost.members.assign((options_.n + 63) / 64, 0);
      for (const sim::ProcessId recipient : reached_[v]) {
        ghost.members[recipient / 64] |= std::uint64_t{1} << (recipient % 64);
      }
      ghosts_.push_back(std::move(ghost));
    }
  }

  CrashFastSimOptions options_;
  sim::Adversary* adversary_;
  AdversaryViewOracle* oracle_;
  std::shared_ptr<const tree::TreeShape> shape_;
  tree::LocalTreeView view_;
  std::vector<Status> status_;
  std::vector<Rng> rngs_;
  std::vector<sim::ProcessId> alive_;
  std::vector<tree::NodeId> targets_;
  std::vector<tree::NodeId> new_pos_;
  std::vector<sim::Label> halted_pending_;
  std::vector<Ghost> ghosts_;
  /// reached_[v]: the distinct surviving recipients of this round's v-th
  /// victim, ascending.
  std::vector<std::vector<sim::ProcessId>> reached_;
  /// Per-ball node-mate rank and count for the rank-indexed policies;
  /// mates_at_ is their per-node counter, all zero between rounds.
  std::vector<std::uint32_t> rank_of_;
  std::vector<std::uint32_t> mates_of_;
  std::vector<std::uint32_t> mates_at_;
  std::vector<tree::NodeId> extras_;
  /// Path-round walk state (see process_path_round). victim_index_ maps a
  /// victim id to its crash-plan index, read for this round's victims only;
  /// start_ holds each <R position's phase-start node; carriers_ the
  /// survivors' <R positions, partitioned in place into trie-node ranges.
  struct Cut {
    std::uint32_t pos;          // the victim's <R position
    sim::Label victim;
    std::uint32_t crash_index;  // into reached_
  };
  struct Frame {
    std::uint32_t depth;  // victims decided on the way here
    std::uint32_t lo;     // [lo, mid): carriers that received victim depth
    std::uint32_t mid;    // [mid, hi): carriers that missed it
    std::uint32_t hi;
    std::uint32_t end;    // one past the last <R position simulated here
    std::uint8_t stage;   // children visited so far
  };
  std::vector<std::uint32_t> victim_index_;
  std::vector<tree::NodeId> start_;
  std::vector<Cut> cuts_;
  std::vector<std::uint32_t> carriers_;
  std::vector<std::uint32_t> missed_;
  std::vector<Frame> walk_;
  std::vector<PhaseSnapshot> per_phase_;
  std::vector<std::uint64_t> names_;
  std::uint32_t alive_count_ = 0;
  std::uint32_t crashes_so_far_ = 0;
  std::uint64_t deliveries_ = 0;
  sim::RoundNumber last_decide_round_ = 0;
  bool any_decided_ = false;
};

}  // namespace

CrashFastSimResult run_fast_sim_crash(const CrashFastSimOptions& options,
                                      sim::Adversary* adversary,
                                      AdversaryViewOracle* oracle) {
  BIL_REQUIRE(options.n >= 1, "need at least one ball");
  BIL_REQUIRE(options.max_crashes < options.n,
              "crash budget t must satisfy t < n");
  return CrashFastSim(options, adversary, oracle).run();
}

void validate_fast_names(const std::vector<std::uint64_t>& names,
                         std::uint32_t n, std::uint32_t crashes) {
  std::vector<bool> used(n + 1, false);
  std::uint32_t undecided = 0;
  for (const std::uint64_t name : names) {
    if (name == 0) {
      ++undecided;  // crashed balls owe nothing
      continue;
    }
    BIL_ENSURE(name <= n, "fast sim name out of range");
    BIL_ENSURE(!used[name], "fast sim assigned a duplicate name");
    used[name] = true;
  }
  BIL_ENSURE(undecided == crashes,
             "fast sim left a correct ball without a name");
}

}  // namespace bil::core
