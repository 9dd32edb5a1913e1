// Figure 6: maintenance work completed when scrubbing and backup run
// together with the webserver workload, versus device utilization. Baseline
// tasks stop completing beyond ~30% utilization; Duet-enabled tasks complete
// at 70-90%.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 6: scrub + backup work completed vs utilization (webserver)",
      "baseline completes only below ~30% utilization; Duet completes at "
      "70-90% depending on overlap",
      stack);

  RateTable rates;
  TextTable table({"util", "baseline done", "duet done (50% ovl)",
                   "duet done (100% ovl)"});
  for (int util_pct : UtilSweepPct()) {
    double util = util_pct / 100.0;
    MaintenanceRunResult baseline = RunAtUtil(
        rates, stack, Personality::kWebserver, 1.0, false, util,
        {MaintKind::kScrub, MaintKind::kBackup}, /*use_duet=*/false);
    MaintenanceRunResult duet_half = RunAtUtil(
        rates, stack, Personality::kWebserver, 0.5, false, util,
        {MaintKind::kScrub, MaintKind::kBackup}, /*use_duet=*/true);
    MaintenanceRunResult duet_full = RunAtUtil(
        rates, stack, Personality::kWebserver, 1.0, false, util,
        {MaintKind::kScrub, MaintKind::kBackup}, /*use_duet=*/true);
    table.AddRow({Pct(util), Pct(baseline.WorkCompletedFraction()),
                  Pct(duet_half.WorkCompletedFraction()),
                  Pct(duet_full.WorkCompletedFraction())});
    fflush(stdout);
  }
  table.Print();
  return 0;
}
