// §6.5 "Cold data placement": whether the data *not* accessed by the
// workload is clustered in its own region or interleaved with hot data has
// little effect — maintenance I/O runs in idle periods, so extra seeks occur
// only when switching between maintenance and workload anyway.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Ablation: cold data placement (scrub + webserver, 50% overlap)",
      "physical placement of cold data does not affect the results",
      stack);

  RateTable rates;
  TextTable table({"util", "placement", "I/O saved", "scrub finished",
                   "workload ops"});
  std::vector<double> utils{0.3, 0.5, 0.7};
  if (SmokeMode()) {
    utils = {0.5};
  }
  for (double util : utils) {
    // Both placements run at the rate calibrated for the interleaved layout,
    // so they see the same offered load.
    WorkloadConfig base =
        MakeWorkloadConfig(stack, Personality::kWebserver, 0.5, false, 0, 42);
    const CalibratedRate rate = rates.Get(stack, base, util);
    for (bool clustered : {false, true}) {
      // RunMaintenance builds its own workload config without the cluster
      // knob, so this row builds its stack directly.
      WorkloadConfig workload = base;
      workload.cluster_covered = clustered;
      workload.ops_per_sec = rate.unthrottled ? 0 : rate.ops_per_sec;
      // A fresh context per row, so its counters cover this stack only.
      obs::ObsContext obs_ctx;
      obs::ObsScope obs_scope(&obs_ctx);
      CowRig rig(stack, workload);
      ScrubberConfig sc;
      sc.use_duet = true;
      Scrubber scrub(&rig.fs(), &rig.duet(), sc);
      scrub.Start();
      rig.workload().Start();
      rig.loop().RunUntil(stack.window);
      rig.workload().Stop();
      const TaskStats& stats = scrub.stats();
      double saved = stats.work_total > 0
                         ? static_cast<double>(stats.saved_read_pages) /
                               static_cast<double>(stats.work_total)
                         : 0;
      table.AddRow({Pct(util), clustered ? "clustered" : "interleaved", Pct(saved),
                    stats.finished ? "yes" : "no",
                    Num(static_cast<double>(
                            obs_ctx.metrics.CounterValue("workload.ops.completed")),
                        0)});
      scrub.Stop();
      fflush(stdout);
    }
  }
  table.Print();
  return 0;
}
