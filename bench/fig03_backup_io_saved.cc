// Figure 3: I/O saved when the backup task runs together with the webserver
// workload. Backup takes ~2x as long as scrubbing (random-ish reads), so it
// interacts longer with the workload and its savings plateau at a lower
// device utilization than scrubbing (e.g. 25% overlap saturates near 20%
// utilization instead of 40%).

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 3: backup I/O saved (webserver workload)",
      "same shape as scrubbing but saturating at lower utilization; "
      "write-heavy workloads break snapshot sharing and save less",
      stack);

  RateTable rates;
  std::vector<std::string> headers{"util"};
  for (double overlap : OverlapSweep()) {
    headers.push_back(StrFormat("overlap %.0f%%", overlap * 100));
  }
  headers.push_back("100% (MS trace)");
  TextTable table(std::move(headers));
  for (int util_pct : UtilSweepPct()) {
    double util = util_pct / 100.0;
    std::vector<std::string> row{Pct(util)};
    for (double overlap : OverlapSweep()) {
      MaintenanceRunResult result =
          RunAtUtil(rates, stack, Personality::kWebserver, overlap,
                    /*skewed=*/false, util, {MaintKind::kBackup}, /*use_duet=*/true);
      row.push_back(Pct(result.IoSavedFraction()));
    }
    MaintenanceRunResult skewed =
        RunAtUtil(rates, stack, Personality::kWebserver, 1.0,
                  /*skewed=*/true, util, {MaintKind::kBackup}, /*use_duet=*/true);
    row.push_back(Pct(skewed.IoSavedFraction()));
    table.AddRow(std::move(row));
    fflush(stdout);
  }
  table.Print();

  if (SmokeMode()) {
    return 0;
  }
  printf("\nsnapshot-sharing breakage: personality effect at 50%% utilization:\n");
  TextTable ptable({"personality", "R:W", "I/O saved"});
  for (auto [p, name, ratio] :
       {std::tuple{Personality::kWebserver, "webserver", "10:1"},
        std::tuple{Personality::kWebproxy, "webproxy", "4:1"},
        std::tuple{Personality::kFileserver, "fileserver", "1:2"}}) {
    MaintenanceRunResult result = RunAtUtil(rates, stack, p, 1.0, false, 0.5,
                                            {MaintKind::kBackup}, /*use_duet=*/true);
    ptable.AddRow({name, ratio, Pct(result.IoSavedFraction())});
  }
  ptable.Print();
  return 0;
}
