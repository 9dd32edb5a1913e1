// Figure 8: maintenance work completed when scrubbing, backup, and
// defragmentation run together with the webserver workload. Without Duet the
// three tasks cannot complete even on an idle device (the combined work
// exceeds the window); with Duet everything completes up to ~50% utilization.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 8: scrub + backup + defrag work completed vs utilization",
      "baseline completes ~25% of the work even when idle; Duet completes "
      "all work up to ~50% utilization",
      stack);

  constexpr double kFrag = 0.1;
  RateTable rates;
  TextTable table({"util", "baseline done", "duet done"});
  for (int util_pct : UtilSweepPct()) {
    double util = util_pct / 100.0;
    MaintenanceRunResult baseline = RunAtUtil(
        rates, stack, Personality::kWebserver, 1.0, false, util,
        {MaintKind::kScrub, MaintKind::kBackup, MaintKind::kDefrag},
        /*use_duet=*/false, kFrag);
    MaintenanceRunResult with_duet = RunAtUtil(
        rates, stack, Personality::kWebserver, 1.0, false, util,
        {MaintKind::kScrub, MaintKind::kBackup, MaintKind::kDefrag},
        /*use_duet=*/true, kFrag);
    table.AddRow({Pct(util), Pct(baseline.WorkCompletedFraction()),
                  Pct(with_duet.WorkCompletedFraction())});
    fflush(stdout);
  }
  table.Print();
  return 0;
}
