// §6.4 memory overhead: item descriptors and session bitmaps.
//
// Paper numbers (50 GB of data, N = 16 sessions): 32-byte merged
// descriptors; at most 2 x cached pages of descriptors alive per state
// session = 1.5% of cache memory; done bitmaps ~1.47 MB measured (1.56 MB
// worst case) for 50 GB of blocks. The bound is per session: sessions that
// fetch at different times each add their own pages that left the cache
// since their last fetch, so two of them stay within 3 x cached pages.

#include "bench/bench_common.h"
#include "src/util/range_bitmap.h"

using namespace duet;

namespace {

struct StateSessionResult {
  uint64_t peak_descriptors = 0;
  uint64_t cache_capacity = 0;
  uint64_t descriptor_bytes = 0;
  uint64_t cache_bytes = 0;
};

// How the state sessions consume their notifications.
enum class Consumer {
  kNever,          // never fetch
  kFetch,          // fetch on their period, as real tasks poll
  kFetchMarkDone,  // fetch on their period and mark each item done, as Backup does
};

// Runs the webserver over one state session per entry of `periods_ms`, each
// consumed as `consumer` says on its own period. Live descriptors are
// sampled at every tick, before that session fetches.
StateSessionResult RunStateSessions(const StackConfig& stack, Consumer consumer,
                                    const std::vector<uint64_t>& periods_ms) {
  WorkloadConfig workload = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                               false, /*ops_per_sec=*/0, 42);
  CowRig rig(stack, workload);
  uint64_t peak_descriptors = 0;
  std::vector<std::function<void()>> ticks(periods_ms.size());
  for (size_t i = 0; i < periods_ms.size(); ++i) {
    Result<SessionId> registered = rig.duet().RegisterBlockTask(kDuetPageExists);
    assert(registered.ok());
    SessionId sid = *registered;
    SimDuration period = Millis(periods_ms[i]);
    ticks[i] = [&, tick = &ticks[i], sid, period] {
      peak_descriptors = std::max(peak_descriptors, rig.duet().descriptor_count());
      while (consumer != Consumer::kNever) {
        auto items = rig.duet().Fetch(sid, 256);
        if (!items.ok() || items->empty()) {
          break;
        }
        for (const DuetItem& item : *items) {
          if (consumer == Consumer::kFetchMarkDone && item.has(kDuetPageExists)) {
            (void)rig.duet().SetDone(sid, item.id);
          }
        }
      }
      rig.loop().ScheduleAfter(period, *tick);
    };
    rig.loop().ScheduleAfter(period, ticks[i]);
  }
  rig.workload().Start();
  rig.loop().RunUntil(SmokeMode() ? stack.window : Seconds(10));
  rig.workload().Stop();

  uint64_t cached = rig.fs().cache().PageCount();
  uint64_t descriptors = rig.duet().descriptor_count();
  std::string how = "never fetching";
  if (consumer != Consumer::kNever) {
    how = "fetching";
    for (size_t i = 0; i < periods_ms.size(); ++i) {
      how += StrFormat("%s every %llu ms", i == 0 ? "" : " and",
                       static_cast<unsigned long long>(periods_ms[i]));
    }
    if (consumer == Consumer::kFetchMarkDone) {
      how += ", marking each item done";
    }
  }
  // Each session adds its own pages that left the cache since it last
  // fetched to the cached pages they share.
  uint64_t bound = periods_ms.size() + 1;
  if (periods_ms.size() == 1) {
    printf("state session, webserver running, %s:\n", how.c_str());
  } else {
    printf("%zu state sessions, webserver running, %s:\n", periods_ms.size(),
           how.c_str());
  }
  printf("  cached pages:        %llu\n", static_cast<unsigned long long>(cached));
  printf("  item descriptors:    %llu now, %llu peak  (bound: %llux cached = %llu)\n",
         static_cast<unsigned long long>(descriptors),
         static_cast<unsigned long long>(peak_descriptors),
         static_cast<unsigned long long>(bound),
         static_cast<unsigned long long>(bound * cached));
  printf("  descriptor memory:   %.1f KiB (arena + page table) = %.2f%% of "
         "cache memory (paper, descriptors alone: 1.5%%)\n\n",
         static_cast<double>(rig.duet().DescriptorMemoryBytes()) / 1024.0,
         100.0 * static_cast<double>(rig.duet().DescriptorMemoryBytes()) /
             (static_cast<double>(cached) * kPageSize));
  StateSessionResult out;
  out.peak_descriptors = peak_descriptors;
  out.cache_capacity = rig.fs().cache().capacity();
  out.descriptor_bytes = rig.duet().DescriptorMemoryBytes();
  out.cache_bytes = cached * kPageSize;
  return out;
}

// Envelope check: prints and returns false when a bound is violated, so the
// smoke run fails loudly if descriptor/bitmap memory drifts off the paper's
// envelope.
bool CheckEnvelope(const char* what, double value, double bound) {
  bool ok = value <= bound;
  printf("envelope: %-46s %10.3f <= %.3f  %s\n", what, value, bound,
         ok ? "ok" : "VIOLATED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Memory overhead: descriptors and bitmaps (§6.4)",
      "32 B/descriptor; <=2x cached pages alive for state sessions (1.5% of "
      "cache memory); ~1.5 MB of done bitmap per 50 GB scrubbed",
      stack);

  StateSessionResult polling = RunStateSessions(stack, Consumer::kFetch, {20});
  StateSessionResult marking = RunStateSessions(stack, Consumer::kFetchMarkDone, {20});
  RunStateSessions(stack, Consumer::kNever, {20});
  StateSessionResult two = RunStateSessions(stack, Consumer::kFetch, {20, 50});

  // Done-bitmap footprint at the paper's scale: one bit per 4 KiB block of a
  // 50 GB device, fully marked (the scrub-complete worst case).
  const uint64_t blocks_50gb = 50ull * 1024 * 1024 * 1024 / kPageSize;
  RangeBitmap done(blocks_50gb);
  done.SetRange(0, blocks_50gb);
  printf("done bitmap, 50 GB of data fully scrubbed:\n");
  printf("  %.2f MiB across %llu chunks (paper: 1.47 MiB measured, 1.56 MiB "
         "worst case)\n",
         static_cast<double>(done.MemoryBytes()) / (1024.0 * 1024.0),
         static_cast<unsigned long long>(done.chunk_count()));

  // Sparse usage: only 1% of the device marked, in scattered runs.
  RangeBitmap sparse(blocks_50gb);
  for (uint64_t i = 0; i < blocks_50gb / 100; i += 1000) {
    sparse.SetRange(i * 100, i * 100 + 1000);
  }
  printf("  sparse marking (1%% of blocks): %.3f MiB — chunks allocate on "
         "demand\n\n",
         static_cast<double>(sparse.MemoryBytes()) / (1024.0 * 1024.0));

  // Hard envelope checks (exit non-zero on violation so the bench_smoke
  // ctest entry gates them):
  //  * a polling state session's live descriptors stay within the paper's
  //    2 x cached-pages bound (§6.4), also when it marks every fetched item
  //    done and those pages keep cycling through the cache;
  //  * two state sessions that fetch at different times stay within the
  //    per-session bound, 3 x cached pages between them;
  //  * the sizeof-accurate descriptor store (arena capacity + freelist +
  //    page table, i.e. more than the paper's bare 32 B/descriptor) stays a
  //    small fraction of cache memory;
  //  * a fully-set done bitmap for 50 GB of blocks stays within the paper's
  //    ~1.5 MiB / ~1 MB-per-task envelope (2 MiB with chunk headers).
  bool ok = true;
  ok &= CheckEnvelope("peak descriptors / cache capacity (poll)",
                      static_cast<double>(polling.peak_descriptors) /
                          static_cast<double>(polling.cache_capacity),
                      2.0);
  ok &= CheckEnvelope("peak descriptors / cache capacity (poll, done)",
                      static_cast<double>(marking.peak_descriptors) /
                          static_cast<double>(marking.cache_capacity),
                      2.0);
  ok &= CheckEnvelope("peak descriptors / cache capacity (20+50 ms)",
                      static_cast<double>(two.peak_descriptors) /
                          static_cast<double>(two.cache_capacity),
                      3.0);
  ok &= CheckEnvelope("descriptor memory % of cache memory",
                      100.0 * static_cast<double>(polling.descriptor_bytes) /
                          static_cast<double>(polling.cache_bytes),
                      8.0);
  ok &= CheckEnvelope("done bitmap MiB, 50 GB fully scrubbed",
                      static_cast<double>(done.MemoryBytes()) / (1024.0 * 1024.0),
                      2.0);
  if (!ok) {
    printf("memory envelope violated\n");
    return 1;
  }
  return 0;
}
