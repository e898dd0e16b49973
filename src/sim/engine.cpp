#include "sim/engine.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/contract.h"

namespace bil::sim {

RoundNumber RunResult::last_decide_round() const {
  BIL_REQUIRE(completed, "run did not complete");
  RoundNumber latest = 0;
  bool any = false;
  for (const ProcessOutcome& outcome : outcomes) {
    if (!outcome.crashed && outcome.decided) {
      latest = std::max(latest, outcome.decide_round);
      any = true;
    }
  }
  BIL_REQUIRE(any, "no correct process decided");
  return latest;
}

Engine::Engine(EngineConfig config,
               std::vector<std::unique_ptr<ProcessBase>> processes,
               std::unique_ptr<Adversary> adversary)
    : Engine(config, std::move(processes),
             std::make_unique<SynchronousScheduler>(std::move(adversary))) {}

Engine::Engine(EngineConfig config,
               std::vector<std::unique_ptr<ProcessBase>> processes,
               std::unique_ptr<DeliveryScheduler> scheduler)
    : config_(config),
      processes_(std::move(processes)),
      scheduler_(std::move(scheduler)) {
  BIL_REQUIRE(scheduler_ != nullptr, "need a delivery scheduler");
  adversary_ = scheduler_->adversary();
  // The timeout hook decides on a partial view, which is only sound when
  // every silent sender is merely late, never crashed or lying.
  BIL_REQUIRE(scheduler_->timeout_ticks() == 0 ||
                  (config_.max_crashes == 0 && config_.max_byzantine == 0),
              "timeouts need a zero crash and Byzantine budget");
  BIL_REQUIRE(config_.num_processes >= 1, "need at least one process");
  BIL_REQUIRE(processes_.size() == config_.num_processes,
              "process vector size must equal num_processes");
  BIL_REQUIRE(config_.max_crashes < config_.num_processes,
              "crash budget t must satisfy t < n");
  BIL_REQUIRE(config_.max_byzantine < config_.num_processes,
              "Byzantine budget f must satisfy f < n");
  for (const auto& process : processes_) {
    BIL_REQUIRE(process != nullptr, "null process");
  }
  if (config_.max_rounds == 0) {
    config_.max_rounds = 16 * config_.num_processes + 64;
  }
  status_.assign(config_.num_processes, Status::kAlive);
  outcomes_.assign(config_.num_processes, ProcessOutcome{});
  byzantine_.assign(config_.num_processes, 0);
  final_delivery_.resize(config_.num_processes);
  outboxes_.resize(config_.num_processes);

  // Resolve the executor width. More threads than processes cannot help (a
  // chunk would be empty every round), and a trace sink forces serial
  // execution anyway (events must stream in id order), so spawn workers
  // only when some fan-out will actually use them.
  std::uint32_t threads = config_.num_threads == 0
                              ? util::ThreadPool::hardware_threads()
                              : config_.num_threads;
  threads = std::max(1u, std::min(threads, config_.num_processes));
  if (config_.trace != nullptr) {
    threads = 1;
  }
  workers_.resize(threads);
  if (threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
}

const ProcessBase& Engine::process(ProcessId id) const {
  BIL_REQUIRE(id < processes_.size(), "process id out of range");
  return *processes_[id];
}

ProcessBase& Engine::mutable_process(ProcessId id) {
  BIL_REQUIRE(id < processes_.size(), "process id out of range");
  return *processes_[id];
}

bool Engine::is_crashed(ProcessId id) const {
  BIL_REQUIRE(id < status_.size(), "process id out of range");
  return status_[id] == Status::kCrashed;
}

bool Engine::protocol_running() const {
  return std::any_of(status_.begin(), status_.end(),
                     [](Status s) { return s == Status::kAlive; });
}

void Engine::note_progress(ProcessId id, RoundNumber round) {
  ProcessOutcome& outcome = outcomes_[id];
  if (!outcome.decided && processes_[id]->has_decided()) {
    outcome.decided = true;
    outcome.name = processes_[id]->decision();
    outcome.decide_round = round;
    if (config_.trace != nullptr) {
      config_.trace->on_decide(round, id, outcome.name);
    }
  }
  if (status_[id] == Status::kAlive && processes_[id]->halted()) {
    status_[id] = Status::kHalted;
    outcome.halted = true;
    outcome.halt_round = round;
    if (config_.trace != nullptr) {
      config_.trace->on_halt(round, id);
    }
  }
}

void Engine::validate_and_apply(const CrashPlan& plan, RoundNumber round) {
  std::unordered_set<ProcessId> seen;
  for (const CrashPlan::Crash& crash : plan.crashes()) {
    BIL_REQUIRE(crash.victim < config_.num_processes,
                "crash victim id out of range");
    BIL_REQUIRE(status_[crash.victim] == Status::kAlive,
                "adversary crashed a process that is not alive");
    BIL_REQUIRE(seen.insert(crash.victim).second,
                "adversary crashed the same process twice in one round");
    BIL_REQUIRE(crashes_so_far_ < config_.max_crashes,
                "adversary exceeded its crash budget t");
    ++crashes_so_far_;

    status_[crash.victim] = Status::kCrashed;
    outcomes_[crash.victim].crashed = true;
    outcomes_[crash.victim].crash_round = round;
    if (config_.trace != nullptr) {
      config_.trace->on_crash(round, crash.victim, crash.deliver_to.size());
    }

    std::vector<bool>& mask = final_delivery_[crash.victim];
    mask.assign(config_.num_processes, false);
    for (ProcessId recipient : crash.deliver_to) {
      BIL_REQUIRE(recipient < config_.num_processes,
                  "crash delivery recipient out of range");
      mask[recipient] = true;
    }
  }
}

void Engine::validate_and_index_corruption(const CorruptionPlan& plan) {
  for (const CorruptionPlan::Rewrite& rewrite : plan.rewrites()) {
    BIL_REQUIRE(rewrite.sender < config_.num_processes,
                "corrupted sender id out of range");
    BIL_REQUIRE(status_[rewrite.sender] == Status::kAlive,
                "adversary corrupted a process that is not alive this round");
    if (byzantine_[rewrite.sender] == 0) {
      BIL_REQUIRE(byzantine_so_far_ < config_.max_byzantine,
                  "adversary exceeded its Byzantine budget f");
      byzantine_[rewrite.sender] = 1;
      ++byzantine_so_far_;
      outcomes_[rewrite.sender].byzantine = true;
    }
    SenderRewrites& index = round_rewrites_[rewrite.sender];
    if (rewrite.recipient == kNoProcess) {
      BIL_REQUIRE(index.all_recipients == nullptr,
                  "duplicate all-recipients rewrite for one sender");
      index.all_recipients = &rewrite.payloads;
    } else {
      BIL_REQUIRE(rewrite.recipient < config_.num_processes,
                  "rewrite recipient id out of range");
      BIL_REQUIRE(rewrite.recipient != rewrite.sender,
                  "rewrite recipient must differ from the sender: loopback "
                  "does not traverse the wire");
      BIL_REQUIRE(
          index.per_recipient.emplace(rewrite.recipient, &rewrite.payloads)
              .second,
          "duplicate rewrite for one (sender, recipient) pair");
    }
  }
}

void Engine::receive_guarded(WorkerState& ws, ProcessId receiver,
                             std::span<const Envelope> inbox,
                             RoundNumber round, RoundNumber record_round) {
  try {
    processes_[receiver]->on_receive(round, inbox);
  } catch (const wire::WireError&) {
    // The process let malformed traffic escape as a WireError instead of
    // handling it. Isolate the process (it falls silent like a crash, but
    // the outcome records the distinct cause) rather than aborting the
    // whole run. The status write targets this worker's own chunk id —
    // the same safety argument as a recipient halting in on_receive.
    status_[receiver] = Status::kQuarantined;
    outcomes_[receiver].quarantined = true;
    outcomes_[receiver].quarantine_round = record_round;
    ++ws.malformed;
    return;
  }
  note_progress(receiver, record_round);
}

void Engine::send_chunk(WorkerState& ws, std::size_t begin, std::size_t end,
                        RoundNumber round, RoundNumber record_round) {
  for (std::size_t id = begin; id < end; ++id) {
    if (status_[id] != Status::kAlive) {
      continue;
    }
    const auto pid = static_cast<ProcessId>(id);
    processes_[pid]->on_send(round, outboxes_[pid]);
    ws.sends += outboxes_[pid].messages().size();
    if (config_.trace != nullptr && !outboxes_[pid].empty()) {
      config_.trace->on_send(round, pid, outboxes_[pid].messages().size());
    }
    note_progress(pid, record_round);
  }
}

void Engine::send_phase(RoundNumber round, RoundNumber record_round) {
  // Clear every outbox (halted/crashed processes keep theirs empty); this
  // also recycles each outbox's payload arena for the new round.
  for (Outbox& outbox : outboxes_) {
    outbox.clear();
  }
  // Collect this round's messages. Each sender touches only its own process
  // state and its own outbox (with its own payload arena), so the fan-out
  // shards cleanly over the pool; the per-worker send counters are summed
  // afterwards — integer addition commutes, so the round's send total is
  // bit-identical to the serial per-process accounting.
  if (parallel()) {
    pool_->parallel_chunks(
        config_.num_processes,
        [&](std::uint32_t chunk, std::size_t begin, std::size_t end) {
          send_chunk(workers_[chunk], begin, end, round, record_round);
        });
  } else {
    send_chunk(workers_[0], 0, config_.num_processes, round, record_round);
  }
  std::uint64_t sends = 0;
  for (WorkerState& ws : workers_) {
    sends += ws.sends;
    ws.sends = 0;
  }
  metrics_.record_send(sends);
}

void Engine::deliver_chunk(WorkerState& ws,
                           std::span<const Envelope> shared_view,
                           std::size_t begin, std::size_t end,
                           RoundNumber round, RoundNumber record_round) {
  const bool has_special = !special_senders_.empty();
  for (std::size_t id = begin; id < end; ++id) {
    const auto receiver = static_cast<ProcessId>(id);
    if (status_[receiver] != Status::kAlive) {
      continue;
    }
    if (!has_special || custom_recipient_[receiver] == 0) {
      ++ws.shared_recipients;
      receive_guarded(ws, receiver, shared_view, round, record_round);
      continue;
    }
    ++ws.custom_recipients;
    // Merge the shared plan with this recipient's special deliveries.
    // Sender-id order is preserved: a sender is shared xor special, the
    // shared plan is already ascending, and a special sender's messages
    // keep their outbox order. The special deliveries are also collected,
    // in the same order, as this recipient's extras.
    ws.custom_inbox.clear();
    ws.custom_extras.clear();
    std::uint64_t row_bytes = 0;
    std::size_t shared_index = 0;
    for (std::size_t s = 0; s < special_senders_.size(); ++s) {
      const ProcessId sender = special_senders_[s];
      while (shared_index < shared_view.size() &&
             shared_view[shared_index].from < sender) {
        const Envelope& envelope = shared_view[shared_index++];
        row_bytes += envelope.payload->size();
        ws.custom_inbox.push_back(envelope);
      }
      if (special_sender_crashed_[s] != 0 &&
          !final_delivery_[sender][receiver]) {
        continue;
      }
      if (!round_rewrites_.empty() && receiver != sender) {
        // Byzantine corruption: a per-recipient rewrite wins over the
        // all-recipients one; either replaces the sender's original outbox
        // wholesale for this recipient. The sender itself always sees its
        // own original traffic (loopback does not traverse the wire).
        const auto rewrites = round_rewrites_.find(sender);
        if (rewrites != round_rewrites_.end()) {
          const std::vector<const wire::Buffer*>* payloads =
              rewrites->second.all_recipients;
          const auto specific = rewrites->second.per_recipient.find(receiver);
          if (specific != rewrites->second.per_recipient.end()) {
            payloads = specific->second;
          }
          if (payloads != nullptr) {
            for (const wire::Buffer* payload : *payloads) {
              ws.custom_inbox.push_back(Envelope{sender, payload, &ws.cache});
              const std::uint64_t size = payload->size();
              row_bytes += size;
              ws.max_payload = std::max(ws.max_payload, size);
            }
            continue;
          }
        }
      }
      for (const OutboundMessage& message : outboxes_[sender].messages()) {
        if (message.broadcast || message.to == receiver) {
          const Envelope envelope{sender, message.payload, &ws.cache};
          ws.custom_inbox.push_back(envelope);
          ws.custom_extras.push_back(envelope);
          const std::uint64_t size = message.payload->size();
          row_bytes += size;
          ws.max_payload = std::max(ws.max_payload, size);
        }
      }
    }
    while (shared_index < shared_view.size()) {
      const Envelope& envelope = shared_view[shared_index++];
      row_bytes += envelope.payload->size();
      ws.custom_inbox.push_back(envelope);
    }
    ws.deliveries += ws.custom_inbox.size();
    ws.bytes += row_bytes;
    // Tell the recipient's indexes how this inbox was built, so they reuse
    // the shared plan's per-round memo and consult only the extras
    // (sim::round_index). Not in corruption rounds: rewritten payloads are
    // not the extras collected above, so those inboxes are indexed whole.
    if (round_rewrites_.empty()) {
      ws.cache.set_layered_inbox(ws.custom_inbox, ws.custom_extras);
    }
    receive_guarded(ws, receiver, ws.custom_inbox, round, record_round);
    ws.cache.clear_layered_inbox();
  }
}

void Engine::deliver_round(RoundNumber round, RoundNumber record_round) {
  const std::uint32_t n = config_.num_processes;
  const std::size_t active_workers = parallel() ? workers_.size() : 1;
  // Stale buffer addresses from the previous round must never be consulted:
  // clear every worker's cache before its first lookup against this round's
  // payloads.
  for (std::size_t w = 0; w < active_workers; ++w) {
    workers_[w].cache.begin_round();
  }

  // Group the outboxes into delivery plans, once per round. A sender is
  // *shared* when its messages reach every alive recipient identically — it
  // is alive (or halted, vacuously: halted outboxes are empty) and sends
  // only broadcasts. Everything else — unicasts, or a sender crashed *this*
  // round whose messages reach exactly the adversary-chosen subset — is
  // *special* and resolved per recipient. Processes crashed in earlier
  // rounds never reached on_send, so their outboxes are empty and they
  // appear in neither plan.
  shared_inbox_.clear();
  special_senders_.clear();
  special_sender_crashed_.clear();
  std::uint64_t shared_bytes = 0;
  std::uint64_t shared_max_payload = 0;
  for (ProcessId sender = 0; sender < n; ++sender) {
    const Outbox& outbox = outboxes_[sender];
    const bool corrupted =
        !round_rewrites_.empty() &&
        round_rewrites_.find(sender) != round_rewrites_.end();
    // A corrupted sender is always special, even with an empty outbox: its
    // rewrites may fabricate traffic the sender never produced.
    if (outbox.empty() && !corrupted) {
      continue;
    }
    const bool crashed = status_[sender] == Status::kCrashed;
    bool shared = !crashed && !corrupted;
    if (shared) {
      for (const OutboundMessage& message : outbox.messages()) {
        if (!message.broadcast) {
          shared = false;
          break;
        }
      }
    }
    if (!shared) {
      special_senders_.push_back(sender);
      special_sender_crashed_.push_back(crashed ? 1 : 0);
      continue;
    }
    for (const OutboundMessage& message : outbox.messages()) {
      shared_inbox_.push_back(
          Envelope{sender, message.payload, &workers_[0].cache});
      const std::uint64_t size = message.payload->size();
      shared_bytes += size;
      shared_max_payload = std::max(shared_max_payload, size);
    }
  }

  // Register the shared plan so whole-inbox indexes built by recipients can
  // be memoized once per round (see DecodeCache::shared_index) — for shared
  // recipients and for custom ones, whose inbox is the plan plus extras.
  // Workers beyond the first get their own copy of the plan, restamped with
  // their own cache: the copies are element-wise identical (an envelope's
  // cache only routes decoding, it never changes the decoded value), so
  // recipients observe the same inbox regardless of which worker delivers
  // to them, and each worker memoizes decodes and shared-plan indexes
  // privately — no lookup ever crosses a thread.
  workers_[0].cache.set_shared_inbox(shared_inbox_);
  for (std::size_t w = 1; w < active_workers; ++w) {
    WorkerState& ws = workers_[w];
    ws.shared_inbox.assign(shared_inbox_.begin(), shared_inbox_.end());
    for (Envelope& envelope : ws.shared_inbox) {
      envelope.cache = &ws.cache;
    }
    ws.cache.set_shared_inbox(ws.shared_inbox);
  }

  if (!special_senders_.empty()) {
    // Mark the recipients whose inbox differs from the shared plan. A full
    // (non-crashed) special sender has a unicast mixed into its outbox; its
    // broadcasts still reach everyone, so everyone becomes custom. A
    // crashed-this-round sender reaches exactly its delivery mask.
    custom_recipient_.assign(n, 0);
    for (ProcessId sender : special_senders_) {
      if (!round_rewrites_.empty() &&
          round_rewrites_.find(sender) != round_rewrites_.end()) {
        // A corrupted sender's traffic is resolved per recipient in the
        // merge loop (rewrites differ by recipient, and the sender itself
        // must still see its original loopback), so everyone is custom.
        for (ProcessId receiver = 0; receiver < n; ++receiver) {
          custom_recipient_[receiver] = 1;
        }
        continue;
      }
      const bool crashed = status_[sender] == Status::kCrashed;
      const std::vector<bool>* mask =
          crashed ? &final_delivery_[sender] : nullptr;
      bool broadcast_marked = false;
      for (const OutboundMessage& message : outboxes_[sender].messages()) {
        if (message.broadcast) {
          if (broadcast_marked) {
            continue;
          }
          broadcast_marked = true;
          for (ProcessId receiver = 0; receiver < n; ++receiver) {
            if (mask == nullptr || (*mask)[receiver]) {
              custom_recipient_[receiver] = 1;
            }
          }
        } else if (message.to < n &&
                   (mask == nullptr || (*mask)[message.to])) {
          custom_recipient_[message.to] = 1;
        }
      }
    }
  }

  // Recipient fan-out. Each recipient touches only its own process state;
  // the plans, outboxes and status flags are read-only until the join.
  if (parallel()) {
    pool_->parallel_chunks(
        n, [&](std::uint32_t chunk, std::size_t begin, std::size_t end) {
          WorkerState& ws = workers_[chunk];
          deliver_chunk(ws,
                        chunk == 0 ? std::span<const Envelope>(shared_inbox_)
                                   : std::span<const Envelope>(ws.shared_inbox),
                        begin, end, round, record_round);
        });
  } else {
    deliver_chunk(workers_[0], shared_inbox_, 0, n, round, record_round);
  }

  // Fold the metric shards in chunk (= ascending process-id) order. Every
  // counter is an integer sum or max over per-delivery values, so the fold
  // is bit-identical to the per-recipient accounting the serial engine used
  // to do (and to any other fold order).
  std::uint64_t shared_recipients = 0;
  std::uint64_t custom_recipients = 0;
  std::uint64_t custom_deliveries = 0;
  std::uint64_t custom_bytes = 0;
  std::uint64_t custom_max_payload = 0;
  std::uint64_t malformed = 0;
  for (WorkerState& ws : workers_) {
    shared_recipients += ws.shared_recipients;
    custom_recipients += ws.custom_recipients;
    custom_deliveries += ws.deliveries;
    custom_bytes += ws.bytes;
    custom_max_payload = std::max(custom_max_payload, ws.max_payload);
    malformed += ws.malformed;
    ws.shared_recipients = 0;
    ws.custom_recipients = 0;
    ws.deliveries = 0;
    ws.bytes = 0;
    ws.max_payload = 0;
    ws.malformed = 0;
  }
  if (malformed > 0) {
    metrics_.record_malformed(malformed);
  }
  if (custom_recipients > 0) {
    metrics_.record_deliveries(custom_deliveries, custom_bytes);
    metrics_.note_payload(custom_max_payload);
    if (!shared_inbox_.empty()) {
      // Custom rows embed the full shared plan (their counts and bytes
      // already include it above); the max tracker still needs to see those
      // shared payloads as delivered.
      metrics_.note_payload(shared_max_payload);
    }
  }

  // Batch accounting for the shared plan: identical totals to per-envelope
  // counting (the shared span reached shared_recipients recipients), and the
  // max tracker sees each shared payload iff it was delivered at least once.
  if (shared_recipients > 0 && !shared_inbox_.empty()) {
    metrics_.record_deliveries(shared_inbox_.size() * shared_recipients,
                               shared_bytes * shared_recipients);
    metrics_.note_payload(shared_max_payload);
  }
}

bool Engine::can_step() const {
  return protocol_running() && now_ < config_.max_rounds;
}

bool Engine::step() {
  BIL_REQUIRE(can_step(), "step() called on a finished run");
  const RoundNumber round = round_++;
  // Outcomes are stamped on the virtual clock: sends (and crashes) at the
  // send tick, receives at the round's completion tick minus one. Under
  // lock-step timing both read as the round number.
  const auto send_tick = static_cast<RoundNumber>(now_);
  metrics_.begin_round();
  if (config_.trace != nullptr) {
    config_.trace->on_round_begin(round);
  }

  send_phase(round, send_tick);

  // Adversary phase: the adversary observes all pending messages (hence all
  // coin flips that shaped them) before committing crashes — the strong
  // adaptive model. Always serial: the adversary sees a global snapshot.
  if (adversary_ != nullptr) {
    alive_scratch_.clear();
    for (ProcessId id = 0; id < config_.num_processes; ++id) {
      if (status_[id] == Status::kAlive) {
        alive_scratch_.push_back(id);
      }
    }
    const RoundView view(round, config_.num_processes, alive_scratch_,
                         processes_, outboxes_,
                         config_.max_crashes - crashes_so_far_);
    CrashPlan plan;
    adversary_->schedule(view, plan);
    // Byzantine phase: same snapshot, after crash scheduling. The plan is
    // validated against the post-crash status so a process cannot be both
    // crashed and corrupted in one round.
    corruption_plan_.clear();
    round_rewrites_.clear();
    adversary_->corrupt(view, corruption_plan_);
    validate_and_apply(plan, send_tick);
    validate_and_index_corruption(corruption_plan_);
  }

  // Scheduling phase: the scheduler stamps every (sender, round) batch with
  // its delivery tick. The round's inbox is complete once its last batch
  // has arrived; batch-granular delays keep rounds globally serialized (a
  // process's next send waits for the same completion), so every queued
  // event belongs to `round` and payloads stay outbox-scoped.
  EventQueue queue;
  std::uint64_t seq = 0;
  for (ProcessId id = 0; id < config_.num_processes; ++id) {
    if (outboxes_[id].empty()) {
      continue;
    }
    const SendBatch batch{
        id, round, now_,
        static_cast<std::uint32_t>(outboxes_[id].messages().size())};
    const VirtualTime at = scheduler_->deliver_at(batch);
    BIL_REQUIRE(at > now_,
                "scheduler violated the progress contract: a batch must "
                "be delivered strictly after it was sent");
    queue.push(DeliveryEvent{at, id, seq++, round});
  }

  // Drain the round's events in (time, sender, seq) order. max_rounds is a
  // strict tick cap: a batch due past it can never arrive.
  const VirtualTime cap = config_.max_rounds;
  const VirtualTime timeout = scheduler_->timeout_ticks();
  VirtualTime complete = now_ + 1;  // an all-silent round still advances
  bool timed_out = false;
  while (!queue.empty()) {
    const DeliveryEvent event = queue.pop();
    if (timeout > 0 && !timed_out && event.time > now_ + timeout &&
        now_ + timeout < cap) {
      // The waiting processes time out before the next arrival: fire the
      // hook once for this round, at the send tick + timeout, in id order.
      timed_out = true;
      for (ProcessId id = 0; id < config_.num_processes; ++id) {
        if (status_[id] != Status::kAlive) {
          continue;
        }
        processes_[id]->on_timeout(round);
        note_progress(id, static_cast<RoundNumber>(now_ + timeout));
      }
    }
    if (event.time > cap) {
      // Starved delivery: the round can never complete. End cleanly
      // (completed = false) at the cap.
      now_ = cap;
      return false;
    }
    complete = event.time;
  }

  now_ = complete;
  deliver_round(round, static_cast<RoundNumber>(now_ - 1));
  return can_step();
}

RunResult Engine::run() {
  while (can_step()) {
    step();
  }
  return result();
}

RunResult Engine::result() const {
  RunResult result;
  result.completed = !protocol_running();
  result.rounds = static_cast<RoundNumber>(now_);
  result.outcomes = outcomes_;
  result.metrics = metrics_;
  return result;
}

void validate_renaming(const RunResult& result, std::uint64_t namespace_size) {
  BIL_REQUIRE(result.completed,
              "run hit the round cap without completing; rounds=" +
                  std::to_string(result.rounds));
  std::unordered_set<std::uint64_t> names;
  for (std::size_t id = 0; id < result.outcomes.size(); ++id) {
    const ProcessOutcome& outcome = result.outcomes[id];
    if (outcome.crashed || outcome.byzantine) {
      continue;  // faulty processes owe nothing
    }
    BIL_REQUIRE(!outcome.quarantined,
                "honest process " + std::to_string(id) +
                    " was quarantined in round " +
                    std::to_string(outcome.quarantine_round) +
                    " (its validation layer let malformed traffic escape)");
    BIL_REQUIRE(outcome.decided, "termination violated: correct process " +
                                     std::to_string(id) + " did not decide");
    BIL_REQUIRE(outcome.name >= 1 && outcome.name <= namespace_size,
                "validity violated: process " + std::to_string(id) +
                    " decided name " + std::to_string(outcome.name) +
                    " outside 1.." + std::to_string(namespace_size));
    BIL_REQUIRE(names.insert(outcome.name).second,
                "uniqueness violated: name " + std::to_string(outcome.name) +
                    " decided twice (second: process " + std::to_string(id) +
                    ")");
  }
}

bool RoundView::is_alive(ProcessId id) const noexcept {
  return std::binary_search(alive_.begin(), alive_.end(), id);
}

}  // namespace bil::sim
