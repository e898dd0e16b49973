// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs passes over units of the named workload (workloads.h) through
// api::SweepRunner — as many as fill --seconds on the reference machine —
// checks every result, and prints one JSON object as the last line of
// standard output. --trace 0 reports the end-to-end metrics; --trace 1
// additionally re-executes every run of every pass layer by layer
// (layers.h) and reports the per-layer metrics. The lines before the
// result carry the environment stamp, the bil_run replay line of every
// cell, and the exact counts and JSON digest of every pass. README.md in
// the benchmark directory documents the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/backend.h"
#include "api/sweep.h"
#include "src/layers.h"
#include "src/workloads.h"
#include "stats/summary.h"
#include "tree/shape.h"

namespace {

using namespace bil;
using perfbench::Ledger;
using Clock = std::chrono::steady_clock;

/// Samples of each set-up probe a run takes, spread evenly over the
/// passes (taken before each), and at least kMinSamplesPerPass per pass.
/// The per-layer probes report the median of all samples. setup_s is the
/// median over the passes of each pass's fastest sample: the reference
/// machine's speed flips between states some 1.5x apart that last tens of
/// milliseconds, so the median of all samples reports which state the run
/// mostly met, while a pass's fastest sample reports the set-up work.
constexpr std::uint32_t kSetupSamples = 20;
constexpr std::uint32_t kMinSamplesPerPass = 5;

/// A probe sample times its call in blocks of at least kProbeBlockSeconds
/// (the calls take from a fraction of a microsecond to milliseconds) for
/// at least kProbeSampleSeconds, and keeps the fastest block's mean per
/// call: a block in which another tenant of the machine held the core, or
/// a thread waited to be woken, does not move the sample.
constexpr double kProbeBlockSeconds = 200e-6;
constexpr double kProbeSampleSeconds = 5e-3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile_or_zero(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : stats::quantile(values, q);
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// FNV-1a, to print a short digest of each SweepResult JSON.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  return hash;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// Parses `--key value` / `--key=value`; every key is required.
Args parse_args(int argc, char** argv) {
  Args args;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + key + "'");
    }
    key = key.substr(2);
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("--" + key + " needs a value");
    }
    std::size_t used = 0;
    if (key == "workload") {
      args.workload = value;
      used = value.size();
    } else if (key == "seed" || key == "seconds") {
      try {
        if (key == "seed") {
          args.seed = std::stoull(value, &used);
        } else {
          args.seconds = std::stod(value, &used);
        }
      } catch (const std::logic_error&) {
        used = 0;  // not a number, or out of range: reported below
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
      args.trace = value == "1";
      used = 1;
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
    if (value.empty() || used != value.size()) {
      throw std::invalid_argument("bad value '" + value + "' for --" + key);
    }
    seen.insert(key);
  }
  for (const char* key : {"workload", "seed", "seconds", "trace"}) {
    if (seen.count(key) == 0) {
      throw std::invalid_argument(std::string("missing --") + key);
    }
  }
  if (!(args.seconds > 0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  return args;
}

/// Deterministic work counts of one or more sweeps; identical for the same
/// specs on every run.
struct Counts {
  std::uint64_t runs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t crashes = 0;
  std::uint64_t names = 0;
  std::uint64_t instances = 0;

  void add(const Counts& other) {
    runs += other.runs;
    rounds += other.rounds;
    deliveries += other.deliveries;
    bytes += other.bytes;
    crashes += other.crashes;
    names += other.names;
    instances += other.instances;
  }
};

/// Runs one-shot: rounds are total_rounds, names the decided (non-zero)
/// ones. Churn: one run per service horizon, rounds are instance rounds,
/// names the clients that joined.
Counts count(const api::SweepResult& result) {
  Counts counts;
  for (const api::CellSummary& cell : result.cells) {
    for (const api::RunRecord& run : cell.runs) {
      ++counts.runs;
      counts.rounds += run.total_rounds;
      counts.deliveries += run.messages_delivered;
      counts.bytes += run.bytes_measured ? run.bytes_delivered : 0;
      counts.crashes += run.crashes;
      counts.names += static_cast<std::uint64_t>(std::count_if(
          run.names.begin(), run.names.end(),
          [](std::uint64_t name) { return name != 0; }));
    }
    for (const service::ServiceMetrics& horizon : cell.churn.runs) {
      ++counts.runs;
      counts.rounds += horizon.instance_rounds;
      counts.deliveries += horizon.messages;
      counts.names += horizon.joined;
      counts.instances += horizon.instances;
    }
  }
  return counts;
}

std::uint64_t planned_runs(const api::ExperimentSpec& spec) {
  return spec.algorithms.size() * spec.n_values.size() *
         spec.adversaries.size() * spec.seeds;
}

/// One untraced pass over a unit's sweeps.
struct Pass {
  /// SweepRunner construction + run, summed over the sweeps.
  double wall_s = 0;
  std::vector<api::SweepResult> results;
  std::vector<std::string> json;
  std::vector<double> json_write_s;
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Pass sweep_pass(const std::vector<api::ExperimentSpec>& specs) {
  Pass pass;
  for (const api::ExperimentSpec& spec : specs) {
    pass.attempted += planned_runs(spec);
    try {
      const Clock::time_point start = Clock::now();
      const api::SweepRunner runner(spec);
      api::SweepResult result = runner.run();
      pass.wall_s += seconds_since(start);

      const Clock::time_point write_start = Clock::now();
      std::ostringstream json;
      result.write_json(json);
      pass.json_write_s.push_back(seconds_since(write_start));
      pass.json.push_back(json.str());
      pass.counts.add(count(result));
      pass.results.push_back(std::move(result));
    } catch (const std::exception& error) {
      std::cerr << "perfbench: sweep failed: " << error.what() << '\n';
      pass.failed += planned_runs(spec);
      pass.json.emplace_back();
      pass.results.emplace_back();
    }
  }
  return pass;
}

/// One decomposed run of a traced pass, with the untraced record it must
/// reproduce.
struct Job {
  const api::CellConfig* cell = nullptr;
  const service::ChurnSpec* churn = nullptr;
  const api::RunRecord* record = nullptr;
  const service::ServiceMetrics* horizon = nullptr;
};

/// Re-executes every run of `pass` layer by layer, sweep by sweep, on
/// `threads` workers as SweepRunner shards them. Returns the pass's wall
/// time; mismatches and throws count as failed runs.
double traced_pass(const std::vector<api::ExperimentSpec>& specs,
                   const Pass& pass, std::uint32_t threads, Ledger& ledger,
                   std::uint64_t& attempted, std::uint64_t& failed) {
  double wall = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::vector<Job> jobs;
    for (const api::CellSummary& cell : pass.results[s].cells) {
      for (const api::RunRecord& record : cell.runs) {
        jobs.push_back({&cell.config, nullptr, &record, nullptr});
      }
      for (const service::ServiceMetrics& horizon : cell.churn.runs) {
        jobs.push_back({&cell.config, &specs[s].churn, nullptr, &horizon});
      }
    }
    std::vector<Ledger> ledgers(std::min<std::size_t>(threads, jobs.size()));
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::mutex report_mutex;
    const auto worker = [&](Ledger& local) {
      for (std::size_t i = next.fetch_add(1); i < jobs.size();
           i = next.fetch_add(1)) {
        const Job& job = jobs[i];
        std::string diff;
        try {
          diff = job.horizon != nullptr
                     ? perfbench::traced_horizon(*job.cell, *job.churn,
                                                 job.horizon->seed,
                                                 *job.horizon, local)
                     : perfbench::traced_run(*job.cell, job.record->seed,
                                             *job.record, local);
        } catch (const std::exception& error) {
          diff = std::string("threw: ") + error.what();
        }
        if (!diff.empty()) {
          ++mismatches;
          const std::lock_guard<std::mutex> lock(report_mutex);
          std::cerr << "perfbench: traced run of seed "
                    << (job.horizon != nullptr ? job.horizon->seed
                                               : job.record->seed)
                    << " differs from the untraced sweep: " << diff << '\n';
        }
      }
    };
    const Clock::time_point start = Clock::now();
    {
      std::vector<std::jthread> pool;
      for (std::size_t w = 1; w < ledgers.size(); ++w) {
        pool.emplace_back(worker, std::ref(ledgers[w]));
      }
      if (!ledgers.empty()) {
        worker(ledgers[0]);
      }
    }
    wall += seconds_since(start);
    for (const Ledger& local : ledgers) {
      ledger.merge(local);
    }
    attempted += jobs.size();
    failed += mismatches.load();
  }
  return wall;
}

/// Wall time of one call of `probe`: the fastest block's mean (see
/// kProbeBlockSeconds).
template <typename Probe>
double per_call_seconds(const Probe& probe) {
  const Clock::time_point start = Clock::now();
  double fastest = std::numeric_limits<double>::infinity();
  do {
    const Clock::time_point block_start = Clock::now();
    std::uint64_t calls = 0;
    double elapsed = 0;
    do {
      probe();
      ++calls;
      elapsed = seconds_since(block_start);
    } while (elapsed < kProbeBlockSeconds);
    fastest = std::min(fastest, elapsed / static_cast<double>(calls));
  } while (seconds_since(start) < kProbeSampleSeconds);
  return fastest;
}

/// The work a sweep does before its first run, replayed through the public
/// calls SweepRunner makes on the way: constructing the runner (expansion,
/// validation, backend selection), then in run() making the engine and
/// fast-sim backends (one-shot sweeps; churn horizons make theirs inside
/// the run). Starting the worker pool is timed apart (pool_start).
void sweep_setup(const api::ExperimentSpec& spec) {
  const api::SweepRunner runner(spec);
  if (runner.cells().empty()) {
    throw std::logic_error("sweep expanded to no cells");
  }
  if (!spec.churn.enabled()) {
    const std::unique_ptr<api::Backend> engine =
        api::make_backend(api::BackendKind::kEngine, spec.engine_threads);
    const std::unique_ptr<api::Backend> fast_sim =
        api::make_backend(api::BackendKind::kFastSim);
  }
}

/// Starts and joins the worker pool SweepRunner::run() starts for `spec`:
/// min(threads, runs) threads, here returning at once.
void pool_start(const api::ExperimentSpec& spec, std::uint32_t threads) {
  const std::uint64_t runs = planned_runs(spec);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(threads, runs); ++i) {
    pool.emplace_back([] {});
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& args) {
  const std::uint32_t threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const auto unit_specs = [&](std::uint32_t unit) {
    return perfbench::make_unit(args.workload, args.seed, unit, threads);
  };

  std::cout << "env build_type=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER << "\" optimized=yes"
            << " nproc=" << std::thread::hardware_concurrency()
            << " threads=" << threads << " engine_threads=1"
            << " workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << '\n';

  const std::uint32_t passes =
      perfbench::unit_passes(args.workload, args.seconds);

  // -- Set-up probes: what a user pays before a sweep runs. Sampled
  // before every pass, so the medians span the whole run rather than the
  // machine's state in its first milliseconds.
  const std::uint32_t samples_per_pass =
      std::max(kMinSamplesPerPass, (kSetupSamples + passes - 1) / passes);
  std::vector<double> setup_per_pass;
  std::vector<double> pool_samples;
  std::vector<double> expand_samples;
  std::vector<double> shape_samples;
  const auto probe_setup = [&](const std::vector<api::ExperimentSpec>& specs) {
    std::set<std::uint32_t> sizes;
    for (const api::ExperimentSpec& spec : specs) {
      sizes.insert(spec.n_values.begin(), spec.n_values.end());
    }
    double fastest_setup = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < samples_per_pass; ++i) {
      fastest_setup = std::min(fastest_setup, per_call_seconds([&] {
        for (const api::ExperimentSpec& spec : specs) {
          sweep_setup(spec);
        }
      }));
      pool_samples.push_back(per_call_seconds([&] {
        for (const api::ExperimentSpec& spec : specs) {
          pool_start(spec, threads);
        }
      }));
      expand_samples.push_back(per_call_seconds([&] {
        for (const api::ExperimentSpec& spec : specs) {
          if (api::SweepRunner::expand(spec).empty()) {
            throw std::logic_error("sweep expanded to no cells");
          }
        }
      }));
      shape_samples.push_back(per_call_seconds([&] {
        for (const std::uint32_t n : sizes) {
          if (tree::TreeShape::make(n)->num_nodes() == 0) {
            throw std::logic_error("empty tree shape");
          }
        }
      }));
    }
    setup_per_pass.push_back(fastest_setup);
  };

  // -- Timed units: 0, 0, 1, 2, ...; the repeat of unit 0 must produce
  // byte-identical SweepResult JSON -------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Per pass: its counts and wall time, for the per-pass rates.
  std::vector<Counts> pass_counts;
  std::vector<double> pass_walls;
  double untraced_s = 0;
  double traced_s = 0;
  std::vector<double> json_write_s;
  std::vector<std::string> first_json;
  Ledger ledger;
  for (std::uint32_t p = 0; p < passes; ++p) {
    const std::uint32_t unit = p == 0 ? 0 : p - 1;
    const std::vector<api::ExperimentSpec> specs = unit_specs(unit);
    probe_setup(specs);
    if (p != 1) {
      for (const api::ExperimentSpec& spec : specs) {
        for (const api::CellConfig& cell : api::SweepRunner::expand(spec)) {
          std::cout << "unit " << unit << " replay: "
                    << perfbench::replay_command(spec, cell) << '\n';
        }
      }
    }
    const Pass pass = sweep_pass(specs);
    attempted += pass.attempted;
    failed += pass.failed;
    if (p == 0) {
      first_json = pass.json;
    } else if (p == 1 && pass.json != first_json) {
      std::cerr << "perfbench: unit 0 repeated with a different "
                   "SweepResult\n";
      failed += pass.attempted;
    }
    untraced_s += pass.wall_s;
    pass_counts.push_back(pass.counts);
    pass_walls.push_back(pass.wall_s);
    json_write_s.insert(json_write_s.end(), pass.json_write_s.begin(),
                        pass.json_write_s.end());
    std::cout << "unit " << unit << " wall_s=" << pass.wall_s
              << " counts: runs=" << pass.counts.runs
              << " rounds=" << pass.counts.rounds
              << " deliveries=" << pass.counts.deliveries
              << " bytes=" << pass.counts.bytes
              << " crashes=" << pass.counts.crashes
              << " names=" << pass.counts.names
              << " instances=" << pass.counts.instances << " json_fnv1a=";
    for (const std::string& json : pass.json) {
      std::cout << std::hex << fnv1a(json) << std::dec << ' ';
    }
    std::cout << '\n';
    if (args.trace && pass.failed == 0) {
      Ledger unit_ledger;
      traced_s += traced_pass(specs, pass, threads, unit_ledger, attempted,
                              failed);
      std::cout << "unit " << unit
                << " traced counts: crashes=" << unit_ledger.crashes
                << " subset_recipients=" << unit_ledger.subset_recipients
                << " batches=" << unit_ledger.batches
                << " instances=" << unit_ledger.instances
                << " joined=" << unit_ledger.joined << '\n';
      ledger.merge(unit_ledger);
    }
  }

  const bool correct = failed == 0;
  std::cout << "passes=" << passes << " attempted=" << attempted
            << " failed=" << failed
            << " failed_frac=" << ratio(static_cast<double>(failed),
                                        static_cast<double>(attempted))
            << '\n';

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The median over passes of each pass's rate: a pass that met a
    // transient slowdown of the machine moves the result less than in a
    // ratio of totals.
    const auto per_s = [&](std::uint64_t Counts::*work) {
      std::vector<double> rates;
      for (std::size_t p = 0; p < pass_walls.size(); ++p) {
        rates.push_back(
            ratio(static_cast<double>(pass_counts[p].*work), pass_walls[p]));
      }
      return quantile_or_zero(rates, 0.5);
    };
    metrics = {
        {"runs_per_s", per_s(&Counts::runs), "1/s"},
        {"rounds_per_s", per_s(&Counts::rounds), "1/s"},
        {"deliveries_per_s", per_s(&Counts::deliveries), "1/s"},
        {"names_per_s", per_s(&Counts::names), "1/s"},
        {"setup_s", quantile_or_zero(setup_per_pass, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    print_result(correct, attempted, failed, metrics);
    return 0;
  }

  const Ledger& l = ledger;
  const double step_runs =
      static_cast<double>(l.engine_runs - l.async_run_s.size());
  const double fabric_s = l.step_total_s - l.step_adversary_s;
  const double adversary_runs = static_cast<double>(
      l.fast_sim_crash_s.size() + l.fast_sim_targeted_s.size());
  const double async_runs = static_cast<double>(l.async_run_s.size());
  const double engine_runs = static_cast<double>(l.engine_runs);
  const double service_self_s = l.service_run_s - l.service_instances_s;
  metrics = {
      {"sim.round_s.p50", quantile_or_zero(l.step_s, 0.5), "s"},
      {"sim.round_s.p90", quantile_or_zero(l.step_s, 0.9), "s"},
      {"sim.crash_round_s.p50", quantile_or_zero(l.crash_step_s, 0.5), "s"},
      {"sim.adversary_s", ratio(l.step_adversary_s, step_runs), "s"},
      {"sim.adversary_share", ratio(l.step_adversary_s, l.step_total_s),
       "ratio"},
      {"sim.fabric_s", ratio(fabric_s, step_runs), "s"},
      {"sim.deliveries_per_fabric_s",
       ratio(static_cast<double>(l.step_deliveries), fabric_s), "1/s"},
      {"sim.crashes", static_cast<double>(l.crashes), "count"},
      {"sim.subset_recipients",
       static_cast<double>(l.subset_recipients), "count"},
      {"sim.async_run_s.p50", quantile_or_zero(l.async_run_s, 0.5), "s"},
      {"sim.scheduler_s", ratio(l.scheduler_s, async_runs), "s"},
      {"sim.batches", static_cast<double>(l.batches), "count"},
      {"sim.ticks_per_round",
       ratio(static_cast<double>(l.async_ticks),
             static_cast<double>(l.async_rounds)),
       "ratio"},
      {"harness.build_s", ratio(l.build_s, engine_runs), "s"},
      {"harness.validate_s", ratio(l.validate_s, engine_runs), "s"},
      {"harness.run_s.p50", quantile_or_zero(l.run_s, 0.5), "s"},
      {"harness.run_s.max", quantile_or_zero(l.run_s, 1.0), "s"},
      {"core.fast_sim_s.p50", quantile_or_zero(l.fast_sim_s, 0.5), "s"},
      {"core.fast_sim_crash_s.p50",
       quantile_or_zero(l.fast_sim_crash_s, 0.5), "s"},
      {"core.fast_sim_crash_s.max",
       quantile_or_zero(l.fast_sim_crash_s, 1.0), "s"},
      {"core.fast_sim_targeted_s.p50",
       quantile_or_zero(l.fast_sim_targeted_s, 0.5), "s"},
      {"core.adversary_s", ratio(l.fast_sim_adversary_s, adversary_runs),
       "s"},
      {"tree.shape_build_s", quantile_or_zero(shape_samples, 0.5), "s"},
      {"service.instance_s.p50", quantile_or_zero(l.instance_s, 0.5), "s"},
      {"service.instance_s.p99", quantile_or_zero(l.instance_s, 0.99), "s"},
      {"service.self_s",
       ratio(service_self_s, static_cast<double>(l.horizons)), "s"},
      {"service.self_share", ratio(service_self_s, l.service_run_s),
       "ratio"},
      {"service.instances", static_cast<double>(l.instances),
       "count"},
      {"service.joined", static_cast<double>(l.joined), "count"},
      {"service.batch_mean",
       ratio(static_cast<double>(l.joined),
             static_cast<double>(l.instances)),
       "clients"},
      {"api.expand_s", quantile_or_zero(expand_samples, 0.5), "s"},
      {"api.pool_start_s", quantile_or_zero(pool_samples, 0.5), "s"},
      {"api.json_write_s", quantile_or_zero(json_write_s, 0.5), "s"},
      {"api.worker_busy_share", ratio(l.busy_s, threads * traced_s),
       "ratio"},
      {"trace_overhead", ratio(traced_s, untraced_s), "ratio"},
  };
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to measure an unoptimised build (build "
               "type '"
            << PERFBENCH_BUILD_TYPE
            << "'); configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n";
  return 3;
#else
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what()
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
#endif
}
