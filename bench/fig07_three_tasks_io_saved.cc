// Figure 7: I/O saved when scrubbing, backup, and defragmentation run
// together with the webserver workload (10% fragmented FS). With no
// foreground workload, ~45% is saved (one shared pass; defrag writes cannot
// be saved); with the read-mostly webserver the savings approach ~80%.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 7: scrub + backup + defrag I/O saved (webserver)",
      "~45% saved at 0% utilization, up to ~80% with the read-mostly "
      "workload; write-heavy workloads still save up to 60%",
      stack);

  constexpr double kFrag = 0.1;
  RateTable rates;
  // Smoke keeps one series; the full grid covers the paper's four.
  std::vector<std::pair<Personality, double>> series{
      {Personality::kWebserver, 0.5},
      {Personality::kWebserver, 1.0},
      {Personality::kWebproxy, 1.0},
      {Personality::kFileserver, 1.0}};
  std::vector<std::string> headers{"util", "webserver 50% ovl",
                                   "webserver 100% ovl", "webproxy 100%",
                                   "fileserver 100%"};
  if (SmokeMode()) {
    series = {{Personality::kWebserver, 1.0}};
    headers = {"util", "webserver 100% ovl"};
  }
  TextTable table(std::move(headers));
  for (int util_pct : UtilSweepPct()) {
    double util = util_pct / 100.0;
    std::vector<std::string> row{Pct(util)};
    for (auto [p, overlap] : series) {
      MaintenanceRunResult result = RunAtUtil(
          rates, stack, p, overlap, /*skewed=*/false, util,
          {MaintKind::kScrub, MaintKind::kBackup, MaintKind::kDefrag},
          /*use_duet=*/true, kFrag);
      row.push_back(Pct(result.IoSavedFraction()));
    }
    table.AddRow(std::move(row));
    fflush(stdout);
  }
  table.Print();
  return 0;
}
