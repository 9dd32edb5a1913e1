// Quickstart: build a simulated storage stack, run a webserver workload at
// ~50% device utilization, and scrub the file system with and without Duet.
//
// Demonstrates the core API surface:
//   StackConfig / CowRig       — the simulated stack
//   CalibrateRate              — dialing in a target device utilization
//   DuetCore + Scrubber        — a maintenance task in baseline & Duet modes
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "src/harness/calibrate.h"
#include "src/harness/runner.h"
#include "src/harness/stack_config.h"

using namespace duet;

int main() {
  StackConfig stack = QuickStackConfig();

  printf("Duet quickstart\n");
  printf("  device: %s, %llu blocks; cache: %llu pages; window: %.0f s\n\n",
         stack.device == DeviceKind::kHdd ? "hdd" : "ssd",
         static_cast<unsigned long long>(stack.capacity_blocks),
         static_cast<unsigned long long>(stack.cache_pages),
         ToSeconds(stack.window));

  // Calibrate the webserver personality to ~50% device utilization, as the
  // paper does before every experiment (§6.1.2).
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver,
                                           /*coverage=*/1.0, /*skewed=*/false,
                                           /*ops_per_sec=*/0, /*seed=*/1);
  CalibratedRate rate = CalibrateRate(stack, base, 0.5);
  printf("calibrated webserver rate: %.1f ops/s (achieved %.0f%% util)\n\n",
         rate.ops_per_sec, rate.achieved_util * 100);

  for (bool use_duet : {false, true}) {
    MaintenanceRunConfig config;
    config.stack = stack;
    config.personality = Personality::kWebserver;
    config.target_util = 0.5;
    config.ops_per_sec = rate.ops_per_sec;
    config.unthrottled = rate.unthrottled;
    config.tasks = {MaintKind::kScrub};
    config.use_duet = use_duet;
    MaintenanceRunResult result = RunMaintenance(config);
    const TaskStats& scrub = result.task_stats[0];
    printf("%s scrubber:\n", use_duet ? "duet" : "baseline");
    printf("  util during run: %.0f%%  workload ops: %llu\n",
           result.measured_util * 100,
           static_cast<unsigned long long>(
               result.metrics.Value("workload.ops.completed")));
    printf("  scrub: %llu/%llu blocks done (%s), read I/O %llu, saved %llu\n",
           static_cast<unsigned long long>(scrub.work_done),
           static_cast<unsigned long long>(scrub.work_total),
           scrub.finished ? "finished" : "NOT finished",
           static_cast<unsigned long long>(scrub.io_read_pages),
           static_cast<unsigned long long>(scrub.saved_read_pages));
    printf("  I/O saved vs baseline total: %.0f%%\n\n",
           result.IoSavedFraction() * 100);
  }
  return 0;
}
