// §6.5 "Page cache size": varying the page-cache-to-data ratio has only a
// marginal effect on the savings — out-of-order processing, not cache
// residency time, provides most of the benefit (work is marked done when
// data is *accessed*, whether or not it stays cached).

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig base_stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Ablation: page cache size (scrub + webserver, 100% overlap, 50% util)",
      "changing the cache:data ratio has a marginal effect on I/O saved",
      base_stack);

  uint64_t data_pages = base_stack.data_bytes / kPageSize;
  TextTable table({"cache:data ratio", "cache pages", "I/O saved",
                   "scrub finished"});
  std::vector<double> ratios{0.005, 0.01, 0.02, 0.04, 0.08};
  if (SmokeMode()) {
    ratios = {0.01, 0.04};
  }
  for (double ratio : ratios) {
    StackConfig stack = base_stack;
    stack.cache_pages =
        std::max<uint64_t>(64, static_cast<uint64_t>(ratio * static_cast<double>(data_pages)));
    static RateTable rates;
    MaintenanceRunResult result =
        RunAtUtil(rates, stack, Personality::kWebserver, 1.0, false, 0.5,
                  {MaintKind::kScrub}, /*use_duet=*/true);
    table.AddRow({Pct(ratio), Num(static_cast<double>(stack.cache_pages), 0),
                  Pct(result.IoSavedFraction()),
                  result.all_finished ? "yes" : "no"});
    fflush(stdout);
  }
  table.Print();
  return 0;
}
