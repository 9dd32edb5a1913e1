// Shared plumbing for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --quick   1/100-scale stack (512 MiB data, 18 s window)  [default]
//   --std     1/50-scale stack  (1 GiB data, 36 s window)
//   --full    1/12.5-scale stack (4 GiB data, 144 s window)
//   --smoke   seconds-scale CI configuration: a tiny stack plus truncated
//             sweeps. Proves the binary runs end to end; the numbers it
//             prints are NOT a valid reproduction of the paper.
// All real scales preserve the paper's maintenance-work : window ratio,
// which is what the maximum-utilization and completion results depend on.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/harness/calibrate.h"
#include "src/harness/runner.h"
#include "src/harness/stack_config.h"
#include "src/harness/table.h"
#include "src/util/format.h"

namespace duet {

inline StackConfig StdStackConfig() {
  StackConfig config;
  config.capacity_blocks = 327'680;            // 1.25 GiB device
  config.data_bytes = 1ull * 1024 * 1024 * 1024;
  config.cache_pages = 5'243;                  // ~2%
  config.window = Seconds(36);
  return config;
}

inline StackConfig FullStackConfig() { return StackConfig(); }

inline StackConfig SmokeStackConfig() {
  StackConfig config = QuickStackConfig();
  config.data_bytes = 48ull * 1024 * 1024;
  config.capacity_blocks = (config.data_bytes / kPageSize) * 5 / 4;
  config.cache_pages =
      std::max<uint64_t>(256, config.data_bytes / kPageSize / 50);
  config.window = Seconds(2);
  return config;
}

// Set by ParseStackArgs when --smoke is given; sweeps consult it through the
// helpers below so every bench binary finishes in seconds under ctest.
inline bool g_smoke_mode = false;

inline bool SmokeMode() { return g_smoke_mode; }

inline StackConfig ParseStackArgs(int argc, char** argv) {
  StackConfig config = QuickStackConfig();
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--std") == 0) {
      config = StdStackConfig();
    } else if (strcmp(argv[i], "--full") == 0) {
      config = FullStackConfig();
    } else if (strcmp(argv[i], "--quick") == 0) {
      config = QuickStackConfig();
    } else if (strcmp(argv[i], "--smoke") == 0) {
      g_smoke_mode = true;
      config = SmokeStackConfig();
    }
  }
  return config;
}

// Utilization sweep in percent. Smoke mode visits only an idle and a loaded
// point instead of the full axis.
inline std::vector<int> UtilSweepPct(int step = 10, int max = 100) {
  if (SmokeMode()) {
    return {0, std::min(60, max)};
  }
  std::vector<int> out;
  for (int util = 0; util <= max; util += step) {
    out.push_back(util);
  }
  return out;
}

// Data-overlap sweep; smoke keeps only the 100% point.
inline std::vector<double> OverlapSweep() {
  if (SmokeMode()) {
    return {1.00};
  }
  return {0.25, 0.50, 0.75, 1.00};
}

inline void PrintBenchHeader(const char* title, const char* paper_expectation,
                             const StackConfig& stack) {
  printf("== %s ==\n", title);
  printf("paper: %s\n", paper_expectation);
  printf("scale: %.1f GiB data, %.0f s window, %s\n\n",
         static_cast<double>(stack.data_bytes) / (1024.0 * 1024 * 1024),
         ToSeconds(stack.window),
         stack.device == DeviceKind::kSsd ? "ssd" : "hdd");
}

// Runs one maintenance configuration at a target utilization, reusing rates
// from `rates`.
inline MaintenanceRunResult RunAtUtil(RateTable& rates, const StackConfig& stack,
                                      Personality personality, double coverage,
                                      bool skewed, double util,
                                      std::vector<MaintKind> tasks, bool use_duet,
                                      double fragmented_fraction = 0,
                                      uint64_t seed = 42) {
  MaintenanceRunConfig config;
  config.stack = stack;
  config.personality = personality;
  config.coverage = coverage;
  config.skewed = skewed;
  config.target_util = util;
  config.tasks = std::move(tasks);
  config.use_duet = use_duet;
  config.fragmented_fraction = fragmented_fraction;
  config.seed = seed;
  if (util > 0) {
    WorkloadConfig base = MakeWorkloadConfig(stack, personality, coverage, skewed,
                                             /*ops_per_sec=*/0, seed);
    base.fragmented_fraction = fragmented_fraction;
    const CalibratedRate& rate = rates.Get(stack, base, util);
    config.ops_per_sec = rate.ops_per_sec;
    config.unthrottled = rate.unthrottled;
  } else {
    config.ops_per_sec = 0;
  }
  return RunMaintenance(config);
}

}  // namespace duet

#endif  // BENCH_BENCH_COMMON_H_
