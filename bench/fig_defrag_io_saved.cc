// §6.2 "Defragmentation": I/O saved when the defragmentation task runs with
// each workload on a ~10% fragmented file system. Savings are smaller than
// for scrubbing/backup: on read-heavy workloads only the read half of the
// 2x-pages defrag cost can be saved (~50% cap); append-heavy workloads also
// save dirty-page writes.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Defragmentation I/O saved (10% fragmented file system)",
      "similar but smaller savings than Figs. 2-3; read-heavy workloads cap "
      "near 50% (writes still needed); skew costs 15-30%",
      stack);

  constexpr double kFrag = 0.1;
  RateTable rates;
  std::vector<std::pair<Personality, bool>> series{
      {Personality::kWebserver, false},
      {Personality::kWebserver, true},
      {Personality::kWebproxy, false},
      {Personality::kFileserver, false}};
  std::vector<std::string> headers{"util", "webserver", "webserver (MS)",
                                   "webproxy", "fileserver"};
  if (SmokeMode()) {
    series = {{Personality::kWebserver, false}};
    headers = {"util", "webserver"};
  }
  TextTable table(std::move(headers));
  for (int util_pct : UtilSweepPct(20)) {
    double util = util_pct / 100.0;
    std::vector<std::string> row{Pct(util)};
    for (auto [p, skew] : series) {
      MaintenanceRunResult result = RunAtUtil(rates, stack, p, 1.0, skew, util,
                                              {MaintKind::kDefrag},
                                              /*use_duet=*/true, kFrag);
      row.push_back(Pct(result.IoSavedFraction()));
    }
    table.AddRow(std::move(row));
    fflush(stdout);
  }
  table.Print();
  return 0;
}
