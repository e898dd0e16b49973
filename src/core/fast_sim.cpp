#include "core/fast_sim.h"

#include <utility>

#include "core/fast_sim_crash.h"

namespace bil::core {

FastSimResult run_fast_sim(const FastSimOptions& options) {
  CrashFastSimResult run = run_fast_sim_crash(
      CrashFastSimOptions{
          .n = options.n, .seed = options.seed, .policy = options.policy},
      nullptr);
  FastSimResult result;
  result.completed = run.completed;
  result.phases = static_cast<std::uint32_t>(run.per_phase.size());
  result.per_phase = std::move(run.per_phase);
  result.names = std::move(run.names);
  return result;
}

}  // namespace bil::core
