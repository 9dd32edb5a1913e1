// Perf-regression harness for the stack's hot paths.
//
// Runs a fixed set of seconds-scale measurements — hand-timed hook-dispatch
// loops (no session, one event session, sixteen sessions, a fetch batch of
// 256, and a state session that marks every fetched item done under
// churn), a fig02-style scrub run, and a table6-style GC run — and writes
// the results as JSON. It exits non-zero if any measurement recorded 0
// operations:
//
//   perf_runner [--smoke] [--out PATH]
//
// Each measurement records operations executed, wall-clock milliseconds,
// derived ops/sec, and (where meaningful) the peak descriptor-arena bytes
// observed and the calibration probe work behind the row (probes run,
// probes stopped early, simulated milliseconds). tools/perf_compare.py
// diffs two such files and fails on a wall-clock regression or on any
// growth of the peak descriptor bytes or of the probe milliseconds
// (deterministic, host-independent numbers); CI runs it against the
// checked-in bench/BENCH_hotpath.json baseline (refresh the baseline with
// --out bench/BENCH_hotpath.json after intentional perf changes).
//
// The simulated work is deterministic (fixed seeds); only the wall-clock
// numbers vary run to run, which is exactly what the harness is gating.
// --long runs the same op counts as --smoke but repeats each measurement
// and keeps the minimum wall-clock, so a baseline refreshed with --long is
// directly comparable to a single-shot --smoke run in CI.

#include <chrono>
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/util/crc32c.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

using Clock = std::chrono::steady_clock;

// Calibration work behind a row (the harness.calibrate.* counters).
struct ProbeWork {
  uint64_t probes = 0;
  uint64_t probes_stopped = 0;
  uint64_t probe_sim_ms = 0;
};

struct Measurement {
  std::string name;
  uint64_t ops = 0;
  double wall_ms = 0;
  uint64_t peak_descriptor_bytes = 0;
  ProbeWork calibration = {};
};

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Sizes are fixed: bench/BENCH_hotpath.json was recorded with them.
struct HookRig {
  HookRig() : rig(1'000'000, Micros(1)), fs(&rig.loop, &rig.device, 1 << 16), duet(&fs) {
    ino = *fs.PopulateFile("/f", (1 << 14) * kPageSize);
  }
  SimRig rig;
  CowFs fs;
  DuetCore duet;
  InodeNo ino;
};

Measurement MeasureHookDispatchNoSessions(uint64_t iters) {
  HookRig rig;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    rig.fs.cache().Insert(rig.ino, i % (1 << 14), i, false);
  }
  Measurement m{"hook_dispatch_no_sessions", iters, MsSince(start)};
  m.peak_descriptor_bytes = rig.duet.DescriptorMemoryBytes();
  return m;
}

Measurement MeasureHookDispatchOneEventSession(uint64_t iters) {
  HookRig rig;
  SessionId sid = *rig.duet.RegisterBlockTask(kDuetPageAdded | kDuetPageRemoved);
  uint64_t peak = 0;
  auto start = Clock::now();
  for (uint64_t i = 1; i <= iters; ++i) {
    PageIdx idx = i % (1 << 14);
    rig.fs.cache().Insert(rig.ino, idx, i, false);
    rig.fs.cache().Remove(rig.ino, idx);
    if (i % 4096 == 0) {
      peak = std::max(peak, rig.duet.DescriptorMemoryBytes());
      (void)rig.duet.Fetch(sid, 1 << 14);  // drain so descriptors recycle
    }
  }
  // 2 hook events per iteration (insert + remove).
  Measurement m{"hook_dispatch_one_event_session", iters * 2, MsSince(start)};
  m.peak_descriptor_bytes = peak;
  return m;
}

Measurement MeasureHookDispatchSixteenSessions(uint64_t iters) {
  HookRig rig;
  std::vector<SessionId> sids;
  for (int s = 0; s < 16; ++s) {
    sids.push_back(*rig.duet.RegisterBlockTask(kDuetPageExists));
  }
  uint64_t peak = 0;
  auto start = Clock::now();
  for (uint64_t i = 1; i <= iters; ++i) {
    rig.fs.cache().Insert(rig.ino, i % (1 << 14), i, false);
    if (i % 4096 == 0) {
      peak = std::max(peak, rig.duet.DescriptorMemoryBytes());
      for (SessionId sid : sids) {
        (void)rig.duet.Fetch(sid, 1 << 14);
      }
    }
  }
  Measurement m{"hook_dispatch_sixteen_sessions", iters, MsSince(start)};
  m.peak_descriptor_bytes = peak;
  return m;
}

// A Backup-shaped state session under churn: pages enter the cache in order,
// each leaves 1024 insertions later, and every 256 insertions the session
// fetches and marks every item done. Each page is inserted once, so every
// eviction hits a done item; the descriptor store must stay at the cached
// window instead of keeping one descriptor per page ever seen.
Measurement MeasureStateSessionMarkingDone(uint64_t iters) {
  constexpr uint64_t kWindow = 1024;
  SimRig sim(1'000'000, Micros(1));
  CowFs fs(&sim.loop, &sim.device, 1 << 16);
  DuetCore duet(&fs);
  InodeNo ino = *fs.PopulateFile("/f", iters * kPageSize);
  SessionId sid = *duet.RegisterBlockTask(kDuetPageExists);
  uint64_t peak = 0;
  uint64_t done = 0;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    fs.cache().Insert(ino, i, i + 1, false);
    if (i >= kWindow) {
      fs.cache().Remove(ino, i - kWindow);
    }
    if ((i + 1) % 256 == 0) {
      peak = std::max(peak, duet.DescriptorMemoryBytes());
      Result<std::vector<DuetItem>> items = duet.Fetch(sid, 1 << 14);
      if (items.ok()) {
        for (const DuetItem& item : *items) {
          done += duet.SetDone(sid, item.id).ok() ? 1 : 0;
        }
      }
    }
  }
  // Insert + remove hook events; 0 if the session never marked anything.
  Measurement m{"state_session_marking_done",
                done == 0 ? 0 : 2 * iters - kWindow, MsSince(start)};
  m.peak_descriptor_bytes = peak;
  return m;
}

Measurement MeasureFetchBatch(uint64_t batches, uint64_t batch) {
  HookRig rig;
  SessionId sid = *rig.duet.RegisterBlockTask(kDuetPageAdded);
  uint64_t produced = 0;
  double wall_ms = 0;
  for (uint64_t b = 0; b < batches; ++b) {
    for (uint64_t k = 0; k < batch; ++k) {
      rig.fs.cache().Insert(rig.ino, (produced + k) % (1 << 14), k, false);
    }
    produced += batch;
    auto start = Clock::now();
    auto items = rig.duet.Fetch(sid, batch);
    wall_ms += MsSince(start);
    if (!items.ok()) {
      break;
    }
  }
  return Measurement{"fetch_batch_256", batches * batch, wall_ms};
}

Measurement MeasureCrc32c(uint64_t iters) {
  std::vector<uint8_t> buf(1 << 16);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  uint32_t acc = 0;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    acc = Crc32c(buf.data(), buf.size(), acc);
  }
  Measurement m{std::string("crc32c_64k_") + Crc32cImplName(), iters,
                MsSince(start)};
  if (acc == 0xdeadbeef) {  // keep the checksum observable
    printf("(unlikely)\n");
  }
  return m;
}

Measurement MeasureScrubRun(const StackConfig& stack) {
  RateTable rates;
  auto start = Clock::now();
  MaintenanceRunResult result =
      RunAtUtil(rates, stack, Personality::kWebserver, /*coverage=*/1.0,
                /*skewed=*/false, /*util=*/0.6, {MaintKind::kScrub},
                /*use_duet=*/true);
  Measurement m{"fig02_scrub_duet_smoke", result.metrics.Value("workload.ops.completed"),
                MsSince(start)};
  return m;
}

// The workload rate `duetsim --gc --util=0.6` calibrates for this stack.
// Calibrated once, untimed; at that rate the GC cleans segments and logfs
// runs out of free ones, so the row times scattered-write allocation too.
// The calibration's probe work is deterministic, so it is gated exactly.
CalibratedRate GcRate(const StackConfig& stack, ProbeWork* work) {
  obs::ObsContext ctx;
  obs::ObsScope scope(&ctx);
  WorkloadConfig workload = MakeWorkloadConfig(stack, Personality::kFileserver,
                                               /*coverage=*/1.0, /*skewed=*/false,
                                               /*ops_per_sec=*/0, /*seed=*/42);
  CalibratedRate rate = CalibrateRate(stack, workload, /*target_util=*/0.6);
  work->probes = ctx.metrics.GetCounter("harness.calibrate.probes")->value();
  work->probes_stopped =
      ctx.metrics.GetCounter("harness.calibrate.probes_stopped")->value();
  work->probe_sim_ms = ctx.metrics.GetCounter("harness.calibrate.probe_sim_ms")->value();
  return rate;
}

Measurement MeasureGcRun(const StackConfig& stack, const CalibratedRate& rate) {
  auto start = Clock::now();
  GcRunResult result = RunGc(stack, /*target_util=*/0.6, /*use_duet=*/true,
                             /*seed=*/42, rate.ops_per_sec, rate.unthrottled,
                             /*skewed=*/false);
  Measurement m{"table6_gc_duet_smoke", result.segments_cleaned, MsSince(start)};
  if (result.scattered_writes == 0) {
    // Without scattered writes the row misses the path it is here for.
    fprintf(stderr, "table6_gc_duet_smoke: no scattered writes\n");
    m.ops = 0;
  }
  return m;
}

void WriteJson(const std::vector<Measurement>& ms, const std::string& path) {
  FILE* out = path.empty() ? stdout : fopen(path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot open %s\n", path.c_str());
    exit(1);
  }
  fprintf(out, "{\n  \"schema\": 1,\n  \"crc32c_impl\": \"%s\",\n",
          Crc32cImplName());
  fprintf(out, "  \"measurements\": [\n");
  for (size_t i = 0; i < ms.size(); ++i) {
    const Measurement& m = ms[i];
    double ops_per_sec = m.wall_ms > 0 ? m.ops / (m.wall_ms / 1000.0) : 0;
    fprintf(out,
            "    {\"name\": \"%s\", \"ops\": %llu, \"wall_ms\": %.3f, "
            "\"ops_per_sec\": %.1f, \"peak_descriptor_bytes\": %llu, "
            "\"probes\": %llu, \"probes_stopped\": %llu, \"probe_sim_ms\": %llu}%s\n",
            m.name.c_str(), static_cast<unsigned long long>(m.ops), m.wall_ms,
            ops_per_sec, static_cast<unsigned long long>(m.peak_descriptor_bytes),
            static_cast<unsigned long long>(m.calibration.probes),
            static_cast<unsigned long long>(m.calibration.probes_stopped),
            static_cast<unsigned long long>(m.calibration.probe_sim_ms),
            i + 1 < ms.size() ? "," : "");
  }
  fprintf(out, "  ]\n}\n");
  if (out != stdout) {
    fclose(out);
  }
}

}  // namespace
}  // namespace duet

int main(int argc, char** argv) {
  using namespace duet;
  StackConfig stack = SmokeStackConfig();
  std::string out_path;
  int reps = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--smoke") {
      // default; kept so the ctest harness can pass it uniformly
    } else if (arg == "--long") {
      // Baseline-refresh mode: identical op counts (so wall_ms stays
      // comparable with --smoke runs), but each measurement repeats and the
      // minimum wall-clock is kept — the least-perturbed run is the best
      // estimate of the true cost on a shared machine.
      reps = 5;
    } else if (arg == "--reps" && i + 1 < argc) {
      // Explicit repetition count; CI uses --smoke --reps 3 so the gated
      // side is also a minimum, not a single sample of scheduler jitter.
      reps = std::max(1, atoi(argv[++i]));
    }
  }

  // Runs fn() `reps` times and keeps the repetition with the lowest wall_ms.
  auto best = [reps](auto fn) {
    Measurement m = fn();
    for (int r = 1; r < reps; ++r) {
      Measurement again = fn();
      if (again.wall_ms < m.wall_ms) {
        m = again;
      }
    }
    return m;
  };

  std::vector<Measurement> ms;
  ms.push_back(best([] { return MeasureHookDispatchNoSessions(400'000); }));
  ms.push_back(best([] { return MeasureHookDispatchOneEventSession(200'000); }));
  ms.push_back(best([] { return MeasureHookDispatchSixteenSessions(200'000); }));
  ms.push_back(best([] { return MeasureStateSessionMarkingDone(200'000); }));
  // Enough batches that the timed Fetch region is tens of ms — sub-ms
  // measurements can't be gated at 25% on a shared host.
  ms.push_back(best([] { return MeasureFetchBatch(20'000, 256); }));
  ms.push_back(best([] { return MeasureCrc32c(2'000); }));
  ms.push_back(best([&stack] { return MeasureScrubRun(stack); }));
  ProbeWork gc_calibration;
  CalibratedRate gc_rate = GcRate(stack, &gc_calibration);
  ms.push_back(best([&stack, &gc_rate] { return MeasureGcRun(stack, gc_rate); }));
  ms.back().calibration = gc_calibration;

  for (const Measurement& m : ms) {
    double ops_per_sec = m.wall_ms > 0 ? m.ops / (m.wall_ms / 1000.0) : 0;
    printf("%-36s %10llu ops  %9.2f ms  %12.0f ops/s  peak_desc %llu B",
           m.name.c_str(), static_cast<unsigned long long>(m.ops), m.wall_ms,
           ops_per_sec, static_cast<unsigned long long>(m.peak_descriptor_bytes));
    if (m.calibration.probes > 0) {
      printf("  probes %llu (%llu stopped, %llu sim ms)",
             static_cast<unsigned long long>(m.calibration.probes),
             static_cast<unsigned long long>(m.calibration.probes_stopped),
             static_cast<unsigned long long>(m.calibration.probe_sim_ms));
    }
    printf("\n");
  }
  if (!out_path.empty()) {
    WriteJson(ms, out_path);
    printf("wrote %s\n", out_path.c_str());
  }
  // A row that did no work times nothing; fail rather than gate on it.
  for (const Measurement& m : ms) {
    if (m.ops == 0) {
      fprintf(stderr, "perf_runner: %s recorded 0 ops\n", m.name.c_str());
      return 1;
    }
  }
  return 0;
}
