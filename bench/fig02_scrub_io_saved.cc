// Figure 2: I/O saved when the scrubbing task runs together with the
// webserver workload, as a function of device utilization (x-axis) for
// different data-overlap fractions (series), plus the skewed (MS-trace)
// access distribution at 100% overlap (§6.2 reports skew costs 15-30%).

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 2: scrubbing I/O saved (webserver workload)",
      "savings grow with utilization and overlap, plateau at the overlap "
      "fraction; skewed access reduces savings by 15-30%",
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
                    /*skewed=*/false, util, {MaintKind::kScrub}, /*use_duet=*/true);
      row.push_back(Pct(result.IoSavedFraction()));
    }
    MaintenanceRunResult skewed =
        RunAtUtil(rates, stack, Personality::kWebserver, 1.0,
                  /*skewed=*/true, util, {MaintKind::kScrub}, /*use_duet=*/true);
    row.push_back(Pct(skewed.IoSavedFraction()));
    table.AddRow(std::move(row));
    fflush(stdout);
  }
  table.Print();

  // §6.2 also reports write-heavier workloads saving less; show the
  // personality effect at one utilization.
  if (SmokeMode()) {
    return 0;
  }
  printf("\npersonality effect at 70%% utilization, 100%% overlap:\n");
  TextTable ptable({"personality", "R:W", "I/O saved"});
  ptable.AddRow({"webserver", "10:1",
                 Pct(RunAtUtil(rates, stack, Personality::kWebserver, 1.0, false, 0.7,
                               {MaintKind::kScrub}, true)
                         .IoSavedFraction())});
  ptable.AddRow({"webproxy", "4:1",
                 Pct(RunAtUtil(rates, stack, Personality::kWebproxy, 1.0, false, 0.7,
                               {MaintKind::kScrub}, true)
                         .IoSavedFraction())});
  ptable.AddRow({"fileserver", "1:2",
                 Pct(RunAtUtil(rates, stack, Personality::kFileserver, 1.0, false, 0.7,
                               {MaintKind::kScrub}, true)
                         .IoSavedFraction())});
  ptable.Print();
  return 0;
}
