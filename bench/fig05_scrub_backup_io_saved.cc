// Figure 5: I/O saved when scrubbing and backup run *together* with the
// webserver workload. The two tasks implicitly collaborate through the page
// cache: even with no foreground workload (0% utilization) the pair saves
// at least ~50% of the combined maintenance I/O, because one pass over the
// shared data serves both tasks.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 5: scrub + backup I/O saved (webserver workload)",
      ">=50% saved even at 0% utilization (tasks share one pass); higher "
      "utilization and overlap increase savings further",
      stack);

  RateTable rates;
  std::vector<std::string> headers{"util"};
  for (double overlap : OverlapSweep()) {
    headers.push_back(StrFormat("overlap %.0f%%", overlap * 100));
  }
  TextTable table(std::move(headers));
  for (int util_pct : UtilSweepPct()) {
    double util = util_pct / 100.0;
    std::vector<std::string> row{Pct(util)};
    for (double overlap : OverlapSweep()) {
      MaintenanceRunResult result = RunAtUtil(
          rates, stack, Personality::kWebserver, overlap, /*skewed=*/false, util,
          {MaintKind::kScrub, MaintKind::kBackup}, /*use_duet=*/true);
      row.push_back(Pct(result.IoSavedFraction()));
    }
    table.AddRow(std::move(row));
    fflush(stdout);
  }
  table.Print();
  return 0;
}
