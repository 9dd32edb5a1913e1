// Figure 10: I/O saved on a solid-state drive (Intel 510-class). Scrubbing
// behaves like on the HDD (both the scrubber and the workload speed up, so
// savings are unchanged); backup saves *more* on the SSD because the
// workload's sequential reads are much faster, creating more overlap during
// the still-random-read-bound backup.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 10: I/O saved on SSD vs HDD (webserver, 100% overlap)",
      "scrubbing savings unchanged qualitatively; backup savings higher on "
      "the SSD",
      stack);

  StackConfig ssd = stack;
  ssd.device = DeviceKind::kSsd;

  RateTable rates;
  TextTable table({"util", "scrub hdd", "scrub ssd", "backup hdd", "backup ssd"});
  for (int util_pct : UtilSweepPct(20)) {
    double util = util_pct / 100.0;
    auto run = [&](const StackConfig& s, MaintKind task) {
      return RunAtUtil(rates, s, Personality::kWebserver, 1.0, false, util, {task},
                       /*use_duet=*/true)
          .IoSavedFraction();
    };
    table.AddRow({Pct(util), Pct(run(stack, MaintKind::kScrub)),
                  Pct(run(ssd, MaintKind::kScrub)),
                  Pct(run(stack, MaintKind::kBackup)),
                  Pct(run(ssd, MaintKind::kBackup))});
    fflush(stdout);
  }
  table.Print();

  // The paper's explanation: backup time is similar on both devices (64 KiB
  // random reads perform alike), while the workload runs much faster on the
  // SSD. Show the baseline backup runtimes.
  printf("\nbaseline backup runtime (0%% utilization):\n");
  for (auto [s, name] : {std::pair{&stack, "hdd"}, std::pair{&ssd, "ssd"}}) {
    MaintenanceRunResult r = RunAtUtil(rates, *s, Personality::kWebserver, 1.0, false,
                                       0, {MaintKind::kBackup}, /*use_duet=*/false);
    printf("  %s: %s in %.1f s\n", name,
           r.task_stats[0].finished ? "finished" : "not finished",
           ToSeconds(r.task_stats[0].Runtime()));
  }
  return 0;
}
