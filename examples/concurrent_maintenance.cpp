// Concurrent maintenance: the paper's headline scenario (§6.3). Scrubbing,
// backup, and defragmentation run together with a webserver workload that
// keeps the device ~50% busy. With Duet the three tasks implicitly
// collaborate through the page cache: one pass over shared data serves all
// of them, and workload reads verify/copy data for free.
//
// Build & run:  ./build/examples/concurrent_maintenance

#include <cstdio>

#include "src/harness/calibrate.h"
#include "src/harness/runner.h"

using namespace duet;

int main() {
  StackConfig stack = QuickStackConfig();
  printf("Concurrent maintenance: scrub + backup + defrag, webserver @ ~50%% util\n\n");

  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 7);
  base.fragmented_fraction = 0.1;  // an aged, ~10% fragmented file system
  CalibratedRate rate = CalibrateRate(stack, base, 0.5);

  for (bool use_duet : {false, true}) {
    MaintenanceRunConfig config;
    config.stack = stack;
    config.personality = Personality::kWebserver;
    config.target_util = 0.5;
    config.ops_per_sec = rate.unthrottled ? 0 : rate.ops_per_sec;
    config.unthrottled = rate.unthrottled;
    config.tasks = {MaintKind::kScrub, MaintKind::kBackup, MaintKind::kDefrag};
    config.use_duet = use_duet;
    config.fragmented_fraction = 0.1;
    config.seed = 7;
    MaintenanceRunResult result = RunMaintenance(config);

    printf("--- %s ---\n", use_duet ? "with Duet" : "baseline");
    for (size_t i = 0; i < config.tasks.size(); ++i) {
      const TaskStats& s = result.task_stats[i];
      printf("  %-7s %s: %5.1f%% done, %llu pages of I/O, %llu saved\n",
             MaintKindName(config.tasks[i]),
             s.finished ? "finished" : "unfinished",
             100.0 * s.CompletionFraction(),
             static_cast<unsigned long long>(s.TotalIoPages()),
             static_cast<unsigned long long>(s.saved_read_pages + s.saved_write_pages));
    }
    printf("  combined: %.0f%% of maintenance I/O saved, %.0f%% of work completed\n",
           100 * result.IoSavedFraction(), 100 * result.WorkCompletedFraction());
    printf("  workload: %llu ops at %.0f%% measured utilization\n\n",
           static_cast<unsigned long long>(
               result.metrics.Value("workload.ops.completed")),
           100 * result.measured_util);
  }
  return 0;
}
