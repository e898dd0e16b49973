#include "src/layers.h"

#include <chrono>
#include <memory>
#include <type_traits>
#include <utility>

#include "api/churn.h"
#include "api/registry.h"
#include "core/fast_sim.h"
#include "core/fast_sim_crash.h"
#include "core/fast_sim_targeted.h"
#include "harness/runner.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "tree/shape.h"
#include "util/contract.h"

namespace perfbench {

namespace {

using namespace bil;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// What a TimedAdversary saw.
struct AdversaryTap {
  double seconds = 0;
  std::uint64_t crashes = 0;
  std::uint64_t subset_recipients = 0;
};

/// Forwards to the adversary the harness built, timing each call and
/// counting the crashes and delivery-subset sizes it commits.
class TimedAdversary final : public sim::Adversary {
 public:
  TimedAdversary(std::unique_ptr<sim::Adversary> inner, AdversaryTap& tap)
      : inner_(std::move(inner)), tap_(tap) {}

  void schedule(const sim::RoundView& view, sim::CrashPlan& plan) override {
    const std::size_t before = plan.crashes().size();
    const Clock::time_point start = Clock::now();
    inner_->schedule(view, plan);
    tap_.seconds += seconds_since(start);
    for (const sim::CrashPlan::Crash& crash :
         plan.crashes().subspan(before)) {
      ++tap_.crashes;
      tap_.subset_recipients += crash.deliver_to.size();
    }
  }

  void corrupt(const sim::RoundView& view,
               sim::CorruptionPlan& plan) override {
    const Clock::time_point start = Clock::now();
    inner_->corrupt(view, plan);
    tap_.seconds += seconds_since(start);
  }

 private:
  std::unique_ptr<sim::Adversary> inner_;
  AdversaryTap& tap_;
};

/// Forwards to the delivery scheduler the harness built, timing deliver_at.
class TimedScheduler final : public sim::DeliveryScheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::DeliveryScheduler> inner,
                 Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  [[nodiscard]] bool synchronous() const noexcept override {
    return inner_->synchronous();
  }
  [[nodiscard]] sim::Adversary* adversary() noexcept override {
    return inner_->adversary();
  }
  [[nodiscard]] sim::VirtualTime deliver_at(
      const sim::SendBatch& batch) override {
    const Clock::time_point start = Clock::now();
    const sim::VirtualTime at = inner_->deliver_at(batch);
    ledger_.scheduler_s += seconds_since(start);
    ++ledger_.batches;
    return at;
  }
  [[nodiscard]] sim::VirtualTime timeout_ticks() const noexcept override {
    return inner_->timeout_ticks();
  }

 private:
  std::unique_ptr<sim::DeliveryScheduler> inner_;
  Ledger& ledger_;
};

/// Records the first field on which `got` and `want` differ.
template <typename T>
void compare(std::string& diff, const char* field, const T& got,
             const T& want) {
  if (!diff.empty() || got == want) {
    return;
  }
  diff = std::string(field) + " differs";
  if constexpr (std::is_arithmetic_v<T>) {
    diff += " (traced " + std::to_string(got) + ", untraced " +
            std::to_string(want) + ")";
  }
}

std::string compare_records(const api::RunRecord& got,
                            const api::RunRecord& want) {
  std::string diff;
  compare(diff, "seed", got.seed, want.seed);
  compare(diff, "rounds", got.rounds, want.rounds);
  compare(diff, "total_rounds", got.total_rounds, want.total_rounds);
  compare(diff, "crashes", got.crashes, want.crashes);
  compare(diff, "messages", got.messages_delivered, want.messages_delivered);
  compare(diff, "bytes", got.bytes_delivered, want.bytes_delivered);
  compare(diff, "max_payload_bytes", got.max_payload_bytes,
          want.max_payload_bytes);
  compare(diff, "bytes_measured", got.bytes_measured, want.bytes_measured);
  compare(diff, "names", got.names, want.names);
  return diff;
}

void compare_summary(std::string& diff, const char* field,
                     const stats::Summary& got, const stats::Summary& want) {
  const bool equal = got.count == want.count && got.mean == want.mean &&
                     got.stddev == want.stddev && got.min == want.min &&
                     got.median == want.median && got.p99 == want.p99 &&
                     got.max == want.max;
  compare(diff, field, equal, true);
}

std::string compare_metrics(const service::ServiceMetrics& got,
                            const service::ServiceMetrics& want) {
  std::string diff;
  compare(diff, "seed", got.seed, want.seed);
  compare(diff, "arrivals", got.arrivals, want.arrivals);
  compare(diff, "joined", got.joined, want.joined);
  compare(diff, "departed", got.departed, want.departed);
  compare(diff, "instances", got.instances, want.instances);
  compare(diff, "instance_rounds", got.instance_rounds,
          want.instance_rounds);
  compare(diff, "messages", got.messages, want.messages);
  compare(diff, "horizon", got.horizon, want.horizon);
  compare(diff, "names_per_round", got.names_per_round,
          want.names_per_round);
  compare(diff, "throughput_ratio", got.throughput_ratio,
          want.throughput_ratio);
  compare_summary(diff, "latency", got.latency, want.latency);
  compare_summary(diff, "batch", got.batch, want.batch);
  compare(diff, "density_mean", got.density_mean, want.density_mean);
  compare(diff, "live_final", got.live_final, want.live_final);
  compare(diff, "live_peak", got.live_peak, want.live_peak);
  compare(diff, "namespace_final", got.namespace_final,
          want.namespace_final);
  compare(diff, "namespace_peak", got.namespace_peak, want.namespace_peak);
  compare(diff, "backlog_peak", got.backlog_peak, want.backlog_peak);
  compare(diff, "grows", got.grows, want.grows);
  compare(diff, "shrinks", got.shrinks, want.shrinks);
  return diff;
}

bool is_targeted(harness::AdversaryKind kind) {
  return kind == harness::AdversaryKind::kTargetedWinner ||
         kind == harness::AdversaryKind::kTargetedAnnouncer;
}

/// api::EngineBackend::run, one layer call at a time.
api::RunRecord engine_run(const api::CellConfig& cell, std::uint64_t seed,
                          Ledger& ledger) {
  const Clock::time_point run_start = Clock::now();
  harness::RunConfig config;
  config.algorithm = cell.algorithm;
  config.n = cell.n;
  config.seed = seed;
  config.adversary = cell.adversary;
  config.termination = cell.termination;
  config.max_rounds = cell.max_rounds;
  config.gossip_t = cell.gossip_t;
  config.label_offset = cell.label_offset;
  config.label_stride = cell.label_stride;
  BIL_REQUIRE(api::algorithm_info(cell.algorithm).family == "tree",
              "the traced engine path mirrors run_renaming for the tree "
              "algorithms only");

  const std::shared_ptr<const tree::TreeShape> shape =
      tree::TreeShape::make(cell.n);
  const bool async = harness::is_delay_kind(cell.adversary.kind);
  AdversaryTap tap;
  std::unique_ptr<sim::DeliveryScheduler> scheduler;
  if (async) {
    scheduler = std::make_unique<TimedScheduler>(
        harness::make_scheduler(cell.adversary, cell.n, seed, shape), ledger);
  } else {
    std::unique_ptr<sim::Adversary> adversary =
        harness::make_adversary(cell.adversary, cell.n, seed, shape);
    if (adversary != nullptr) {
      adversary = std::make_unique<TimedAdversary>(std::move(adversary), tap);
    }
    scheduler = std::make_unique<sim::SynchronousScheduler>(
        std::move(adversary));
  }
  sim::Engine engine(
      sim::EngineConfig{.num_processes = cell.n,
                        .max_crashes = cell.adversary.crashes,
                        .max_byzantine = cell.adversary.byzantine,
                        .max_rounds = cell.max_rounds,
                        .num_threads = 1,
                        .trace = nullptr},
      harness::make_processes(config, shape), std::move(scheduler));
  ledger.build_s += seconds_since(run_start);

  sim::RunResult result;
  if (async) {
    const Clock::time_point start = Clock::now();
    result = engine.run();
    ledger.async_run_s.push_back(seconds_since(start));
    ledger.async_ticks += result.rounds;
    ledger.async_rounds += result.metrics.per_round.size();
  } else {
    // Engine::run()'s loop, one timed step at a time. 16n + 64 is the
    // engine's documented default cap (EngineConfig::max_rounds).
    const sim::RoundNumber cap =
        cell.max_rounds != 0 ? cell.max_rounds : 16 * cell.n + 64;
    bool running = true;
    while (running && engine.rounds_executed() < cap) {
      const double adversary_before = tap.seconds;
      const std::uint64_t crashes_before = tap.crashes;
      const Clock::time_point start = Clock::now();
      running = engine.step();
      const double step = seconds_since(start);
      ledger.step_s.push_back(step);
      ledger.step_total_s += step;
      ledger.step_adversary_s += tap.seconds - adversary_before;
      if (tap.crashes > crashes_before) {
        ledger.crash_step_s.push_back(step);
      }
    }
    result = engine.result();
    ledger.step_deliveries += result.metrics.total_deliveries;
    ledger.crashes += tap.crashes;
    ledger.subset_recipients += tap.subset_recipients;
  }

  const Clock::time_point validate_start = Clock::now();
  sim::validate_renaming(result, cell.n);
  ledger.validate_s += seconds_since(validate_start);

  api::RunRecord record;
  record.seed = seed;
  record.rounds = result.last_decide_round() + 1;
  record.total_rounds = result.rounds;
  record.crashes = engine.crash_count();
  record.messages_delivered = result.metrics.total_deliveries;
  record.bytes_delivered = result.metrics.total_bytes_delivered;
  record.max_payload_bytes = result.metrics.max_payload_bytes;
  record.names.reserve(result.outcomes.size());
  for (const sim::ProcessOutcome& outcome : result.outcomes) {
    record.names.push_back(outcome.crashed ? 0 : outcome.name);
  }
  ++ledger.engine_runs;
  ledger.run_s.push_back(seconds_since(run_start));
  return record;
}

/// api::FastSimBackend::run, with the simulator call and the adversary it
/// drives timed. Validity of the names is established by comparing them
/// with the backend's validated record.
api::RunRecord fast_sim_run(const api::CellConfig& cell, std::uint64_t seed,
                            Ledger& ledger) {
  api::RunRecord record;
  record.seed = seed;
  record.bytes_measured = false;
  const core::PathPolicy policy = api::algorithm_info(cell.algorithm).policy;

  if (cell.adversary.kind == harness::AdversaryKind::kNone) {
    core::FastSimOptions options;
    options.n = cell.n;
    options.seed = seed;
    options.policy = policy;
    const Clock::time_point start = Clock::now();
    const core::FastSimResult result = core::run_fast_sim(options);
    ledger.fast_sim_s.push_back(seconds_since(start));
    BIL_ENSURE(result.completed, "fast sim hit its phase cap");
    record.rounds = result.rounds();
    record.total_rounds = result.rounds();
    record.messages_delivered =
        static_cast<std::uint64_t>(cell.n) * cell.n * record.total_rounds;
    record.names = result.names;
    return record;
  }

  const bool targeted = is_targeted(cell.adversary.kind);
  AdversaryTap tap;
  TimedAdversary adversary(
      harness::make_adversary(cell.adversary, cell.n, seed,
                              targeted ? tree::TreeShape::make(cell.n)
                                       : nullptr),
      tap);
  core::CrashFastSimOptions options;
  options.n = cell.n;
  options.seed = seed;
  options.policy = policy;
  options.max_crashes = cell.adversary.crashes;
  const Clock::time_point start = Clock::now();
  const core::CrashFastSimResult result =
      targeted ? core::run_fast_sim_targeted(options, &adversary)
               : core::run_fast_sim_crash(options, &adversary);
  (targeted ? ledger.fast_sim_targeted_s : ledger.fast_sim_crash_s)
      .push_back(seconds_since(start));
  ledger.fast_sim_adversary_s += tap.seconds;
  record.rounds = result.rounds;
  record.total_rounds = result.total_rounds;
  record.crashes = result.crashes;
  record.messages_delivered = result.deliveries;
  record.names = result.names;
  return record;
}

}  // namespace

void Ledger::merge(const Ledger& other) {
  append(step_s, other.step_s);
  append(crash_step_s, other.crash_step_s);
  step_total_s += other.step_total_s;
  step_adversary_s += other.step_adversary_s;
  step_deliveries += other.step_deliveries;
  crashes += other.crashes;
  subset_recipients += other.subset_recipients;
  append(async_run_s, other.async_run_s);
  scheduler_s += other.scheduler_s;
  batches += other.batches;
  async_ticks += other.async_ticks;
  async_rounds += other.async_rounds;
  engine_runs += other.engine_runs;
  build_s += other.build_s;
  validate_s += other.validate_s;
  append(run_s, other.run_s);
  append(fast_sim_s, other.fast_sim_s);
  append(fast_sim_crash_s, other.fast_sim_crash_s);
  append(fast_sim_targeted_s, other.fast_sim_targeted_s);
  fast_sim_adversary_s += other.fast_sim_adversary_s;
  append(instance_s, other.instance_s);
  service_run_s += other.service_run_s;
  service_instances_s += other.service_instances_s;
  horizons += other.horizons;
  instances += other.instances;
  joined += other.joined;
  busy_s += other.busy_s;
  runs += other.runs;
}

std::string traced_run(const api::CellConfig& cell, std::uint64_t seed,
                       const api::RunRecord& reference, Ledger& ledger) {
  const Clock::time_point start = Clock::now();
  const api::RunRecord record =
      api::select_backend(cell) == api::BackendKind::kEngine
          ? engine_run(cell, seed, ledger)
          : fast_sim_run(cell, seed, ledger);
  ledger.busy_s += seconds_since(start);
  ++ledger.runs;
  return compare_records(record, reference);
}

std::string traced_horizon(const api::CellConfig& cell,
                           const service::ChurnSpec& churn,
                           std::uint64_t seed,
                           const service::ServiceMetrics& reference,
                           Ledger& ledger) {
  const Clock::time_point start = Clock::now();
  // api::run_churn_cell's service, with each instance call timed.
  const service::InstanceRunner runner = api::make_instance_runner(cell, 1);
  double instances_s = 0;
  service::InstanceRunner timed_runner =
      [&runner, &ledger, &instances_s](std::uint32_t participants,
                                       std::uint64_t instance_seed) {
        const Clock::time_point call = Clock::now();
        service::InstanceOutcome outcome = runner(participants, instance_seed);
        const double seconds = seconds_since(call);
        ledger.instance_s.push_back(seconds);
        instances_s += seconds;
        return outcome;
      };
  service::ServiceConfig config;
  config.churn = churn;
  config.n = cell.n;
  config.seed = seed;
  service::RenamingService service(config, std::move(timed_runner));
  const Clock::time_point run_start = Clock::now();
  const service::ServiceMetrics metrics = service.run();
  ledger.service_run_s += seconds_since(run_start);
  ledger.service_instances_s += instances_s;
  ++ledger.horizons;
  ledger.instances += metrics.instances;
  ledger.joined += metrics.joined;
  ledger.busy_s += seconds_since(start);
  ++ledger.runs;
  return compare_metrics(metrics, reference);
}

}  // namespace perfbench
