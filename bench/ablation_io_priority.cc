// §6.5 "I/O prioritization": Duet works best when maintenance runs at low
// priority. Under a Deadline-style scheduler (no priority classes),
// maintenance I/O competes head-on: it finishes faster, but the workload is
// slowed, issues fewer requests, and the I/O saved drops.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Ablation: CFQ idle class vs Deadline (scrub + webserver, 100% overlap)",
      "without prioritization the workload slows significantly and the I/O "
      "saved is reduced",
      stack);

  StackConfig deadline = stack;
  deadline.scheduler = SchedulerKind::kDeadline;

  RateTable rates;
  TextTable table({"util target", "sched", "I/O saved", "workload ops",
                   "workload latency (ms)", "scrub finished at (s)"});
  std::vector<double> utils{0.3, 0.5, 0.7};
  if (SmokeMode()) {
    utils = {0.5};
  }
  for (double util : utils) {
    for (auto [s, name] : {std::pair{&stack, "cfq"}, std::pair{&deadline, "deadline"}}) {
      // Calibrate rates on the CFQ stack so both rows issue the same offered
      // load; the deadline row then shows the interference.
      WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                               false, 0, 42);
      const CalibratedRate& rate = rates.Get(stack, base, util);
      MaintenanceRunConfig config;
      config.stack = *s;
      config.personality = Personality::kWebserver;
      config.target_util = util;
      config.ops_per_sec = rate.unthrottled ? 0 : rate.ops_per_sec;
      config.unthrottled = rate.unthrottled;
      config.tasks = {MaintKind::kScrub};
      config.use_duet = true;
      MaintenanceRunResult result = RunMaintenance(config);
      const TaskStats& scrub = result.task_stats[0];
      table.AddRow({Pct(util), name, Pct(result.IoSavedFraction()),
                    Num(static_cast<double>(result.metrics.Value("workload.ops.completed")),
                        0),
                    Num(result.workload_latency_ms, 2),
                    scrub.finished ? Num(ToSeconds(scrub.finished_at), 1)
                                   : std::string("DNF")});
      fflush(stdout);
    }
  }
  table.Print();
  return 0;
}
