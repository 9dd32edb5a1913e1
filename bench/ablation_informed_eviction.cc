// §2 extension ablation: informed cache replacement. The paper notes (in
// its PACMan discussion) that "informed cache replacement will provide us
// additional benefits". Here the page cache's eviction policy consults
// Duet's done bitmaps: pages every session has already processed are evicted
// first, keeping unprocessed data in memory longer so tasks get more chances
// to use it.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Ablation: informed cache replacement (scrub + backup, webserver)",
      "evicting already-processed pages first should add savings on top of "
      "plain Duet (the paper's PACMan remark)",
      stack);

  RateTable rates;
  TextTable table({"util", "plain duet saved", "informed saved", "plain done",
                   "informed done"});
  std::vector<double> utils{0.2, 0.4, 0.6, 0.8};
  if (SmokeMode()) {
    utils = {0.4};
  }
  for (double util : utils) {
    WorkloadConfig base =
        MakeWorkloadConfig(stack, Personality::kWebserver, 1.0, false, 0, 42);
    const CalibratedRate& rate = rates.Get(stack, base, util);
    MaintenanceRunConfig config;
    config.stack = stack;
    config.personality = Personality::kWebserver;
    config.target_util = util;
    config.ops_per_sec = rate.unthrottled ? 0 : rate.ops_per_sec;
    config.unthrottled = rate.unthrottled;
    config.tasks = {MaintKind::kScrub, MaintKind::kBackup};
    config.use_duet = true;

    config.informed_eviction = false;
    MaintenanceRunResult plain = RunMaintenance(config);
    config.informed_eviction = true;
    MaintenanceRunResult informed = RunMaintenance(config);

    table.AddRow({Pct(util), Pct(plain.IoSavedFraction()),
                  Pct(informed.IoSavedFraction()),
                  Pct(plain.WorkCompletedFraction()),
                  Pct(informed.WorkCompletedFraction())});
    fflush(stdout);
  }
  table.Print();
  printf("\nnote: tasks poll every ~20 ms and consume hints long before eviction,\n"
         "so keeping unprocessed pages longer adds little — matching the paper's\n"
         "own §6.5 observation that cache size (residency) has a marginal effect\n"
         "and out-of-order processing provides most of the benefit.\n");
  return 0;
}
