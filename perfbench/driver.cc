// Benchmark driver: runs one workload through the harness's public entry
// points (CalibrateRate, RunMaintenance, RunGc) and prints the raw
// measurements as one JSON object on stdout. perfbench/run.py builds it,
// launches it, derives the metrics and checks the outputs; the metrics are
// documented in perfbench/README.md.
//
//   perfbench_driver --workload=NAME --seed=N [--phase=all|setup|window]
//                    [--seconds=S] [--experiments=N]
//                    [--rate=R --unthrottled=0|1]   (phase=window)
//                    [--spans=FILE]                 (record host-time spans)
//
// A run covers a fixed number of experiments per workload, one per workload
// seed derived from --seed. Set-up calibrates the rate kSetupReps times
// (every experiment then runs at that rate) and builds the stack
// kSetupReps times alone.
// The window phase runs every experiment once, then cycles through them
// again until S seconds have passed; on the cowfs workloads the first
// experiments run once more beforehand, untimed, to time maintenance
// chunks. Each call gets a fresh ObsContext; a repeated experiment must
// reproduce its first run's trace fingerprint and registry dump exactly, and
// every call must pass the invariant checks, or it counts as failed and its
// time is dropped.
//
// phase=setup and phase=window run one half alone, so a profiled build
// yields a separate profile of each; --experiments=N limits the window to
// the first N experiments.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/calibrate.h"
#include "src/harness/rig.h"
#include "src/harness/runner.h"
#include "src/obs/obs.h"

using namespace duet;

namespace {

struct Workload {
  const char* name;
  bool gc;  // logfs stack via RunGc; otherwise cowfs via RunMaintenance
  Personality personality;
  double target_util;
  double fragmented_fraction;
  bool skewed;  // MS-trace-like file picking instead of uniform
  std::vector<MaintKind> tasks;
  // Experiments (workload seeds) per run, sized so that the metrics of runs
  // with different seeds stay well within the benchmark's bounds. On a
  // 4-vCPU Xeon host one pass takes 11-17 s.
  int experiments;
};

// All workloads: QuickStackConfig (HDD, CFQ), 100% overlap, Duet mode.
// logfs_gc picks files MS-trace-like (Table 6's skewed rows): under uniform
// picking only 1-5% of cleaning reads hit the cache, a share that varies
// too much between seeds to bound. Why each workload was chosen is in
// perfbench/README.md.
const Workload* FindWorkload(const std::string& name) {
  static const Workload kWorkloads[] = {
      {"webserver_scrub_backup", false, Personality::kWebserver, 0.5, 0.0, false,
       {MaintKind::kScrub, MaintKind::kBackup}, 24},
      {"fileserver_three_tasks", false, Personality::kFileserver, 0.5, 0.1, false,
       {MaintKind::kScrub, MaintKind::kBackup, MaintKind::kDefrag}, 32},
      {"logfs_gc", true, Personality::kFileserver, 0.6, 0.0, true, {}, 48},
  };
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// The workload seeds of one run: the run's seed itself first (seed 42 is the
// experiment EXPERIMENTS.md and duetsim report), then seeds spaced far
// enough apart that nearby run seeds share none.
std::vector<uint64_t> ExperimentSeeds(uint64_t seed, int count) {
  std::vector<uint64_t> seeds;
  for (int i = 0; i < count; ++i) {
    seeds.push_back(seed + static_cast<uint64_t>(i) * 1'000'003);
  }
  return seeds;
}

// Set-up calibrates and builds the stack with this workload seed, the one
// EXPERIMENTS.md and duetsim use, whatever --seed is: the calibrated rate is
// a property of the workload, so every experiment of every run runs at the
// same rate, and set-up does the same work in every run.
constexpr uint64_t kSetupSeed = 42;

// Calibrations (and standalone stack builds) per set-up; setup_s is the
// median of the calibrations.
constexpr int kSetupReps = 3;

// Experiments whose chunk times the cowfs workloads average.
constexpr size_t kChunkTimedExperiments = 4;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Host-time spans around the calls into the harness, kept in memory and
// written out when the driver ends. CLOCK_MONOTONIC is system-wide, so
// run.py can merge spans from several processes into one trace.
class SpanLog {
 public:
  // Returns the span's index, to pass to End().
  size_t Begin(const char* name, int rep) {
    spans_.push_back({name, rep, Now(), 0});
    return spans_.size() - 1;
  }
  void End(size_t index) { spans_[index].end_ns = Now(); }

  bool Write(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    fprintf(f, "[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      fprintf(f, "%s{\"name\":\"%s\",\"rep\":%d,\"start_ns\":%lld,\"end_ns\":%lld}",
              i == 0 ? "" : ",", s.name, s.rep, s.start_ns, s.end_ns);
    }
    fprintf(f, "]\n");
    return fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int rep;
    long long start_ns;
    long long end_ns;
  };
  static long long Now() {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<long long>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
  }
  std::vector<Span> spans_;
};

// Total simulated time from each of a task's ChunkStarted events to the
// matching ChunkFinished (same task tag and chunk start), and the number of
// chunks: a chunk is one unit of maintenance I/O.
class ChunkTimer : public obs::TraceSink {
 public:
  void OnTraceEvent(const obs::TraceEvent& e) override {
    if (e.kind == obs::TraceKind::kChunkStarted) {
      open_[{e.a, e.b}] = e.at;
    } else if (e.kind == obs::TraceKind::kChunkFinished) {
      auto it = open_.find({e.a, e.b});
      if (it != open_.end()) {
        total_ += e.at - it->second;
        ++count_;
        open_.erase(it);
      }
    }
  }
  SimDuration total() const { return total_; }
  uint64_t count() const { return count_; }

 private:
  std::map<std::pair<uint64_t, uint64_t>, SimTime> open_;
  SimDuration total_ = 0;
  uint64_t count_ = 0;
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = obs::Tracer::kFnvOffset;
  for (unsigned char c : s) {
    h = (h ^ c) * obs::Tracer::kFnvPrime;
  }
  return h;
}

// The base workload config the runners build internally, so the rate
// calibrated here is the one RunMaintenance/RunGc would calibrate.
WorkloadConfig BaseWorkload(const Workload& w, const StackConfig& stack, uint64_t seed) {
  WorkloadConfig config = MakeWorkloadConfig(stack, w.personality, /*coverage=*/1.0,
                                             w.skewed, /*ops_per_sec=*/0, seed);
  config.fragmented_fraction = w.fragmented_fraction;
  return config;
}

// One window repetition's outputs.
struct WindowRun {
  double seconds = 0;
  uint64_t fingerprint = 0;
  uint64_t dump_hash = 0;
  obs::MetricsSnapshot counters;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  double write_p99_us = 0;
  double measured_util = 0;
  // Mean simulated segment cleaning time (Table 6); logfs_gc only.
  double gc_clean_ms = 0;
  uint64_t segments_cleaned = 0;
  uint64_t scattered_writes = 0;
  uint64_t gc_reads_disk = 0;
  uint64_t gc_reads_cached = 0;
};

double HistPercentile(const obs::MetricsRegistry& m, const char* name, double p) {
  const obs::LogHistogram* h = m.FindHistogram(name);
  return h == nullptr ? 0 : h->Percentile(p);
}

WindowRun RunWindow(const Workload& w, const StackConfig& stack, uint64_t seed,
                    const CalibratedRate& rate, obs::TraceSink* sink) {
  obs::ObsContext ctx;
  if (sink != nullptr) {
    ctx.trace.AddSink(sink);
  }
  WindowRun out;
  Clock::time_point start = Clock::now();
  if (w.gc) {
    GcRunResult r = RunGc(stack, w.target_util, /*use_duet=*/true, seed,
                          rate.ops_per_sec, rate.unthrottled, w.skewed, &ctx);
    out.seconds = SecondsSince(start);
    out.measured_util = r.measured_util;
    out.gc_clean_ms = r.cleaning_time_ms.mean();
    out.segments_cleaned = r.segments_cleaned;
    out.scattered_writes = r.scattered_writes;
    out.gc_reads_disk = r.blocks_read;
    out.gc_reads_cached = r.blocks_cached;
  } else {
    MaintenanceRunConfig config;
    config.stack = stack;
    config.personality = w.personality;
    config.target_util = w.target_util;
    config.tasks = w.tasks;
    config.use_duet = true;
    config.fragmented_fraction = w.fragmented_fraction;
    config.skewed = w.skewed;
    config.seed = seed;
    config.ops_per_sec = rate.ops_per_sec;
    config.unthrottled = rate.unthrottled;
    config.obs = &ctx;
    MaintenanceRunResult r = RunMaintenance(config);
    out.seconds = SecondsSince(start);
    out.measured_util = r.measured_util;
  }
  if (sink != nullptr) {
    ctx.trace.RemoveSink(sink);
  }
  out.fingerprint = ctx.trace.Fingerprint();
  out.dump_hash = Fnv1a(ctx.metrics.DumpText());
  out.counters = ctx.metrics.Snapshot();
  out.lat_p50_us = HistPercentile(ctx.metrics, "workload.op.latency_us", 50);
  out.lat_p99_us = HistPercentile(ctx.metrics, "workload.op.latency_us", 99);
  out.read_p50_us = HistPercentile(ctx.metrics, "block.read.latency_us", 50);
  out.read_p99_us = HistPercentile(ctx.metrics, "block.read.latency_us", 99);
  out.write_p99_us = HistPercentile(ctx.metrics, "block.write.latency_us", 99);
  return out;
}

// The dump invariants every window repetition must satisfy. Appends one
// message per violation.
void CheckInvariants(const Workload& w, const StackConfig& stack, const WindowRun& r,
                     std::vector<std::string>* errors) {
  const obs::MetricsSnapshot& c = r.counters;
  auto fail = [&](const std::string& what) { errors->push_back(what); };
  if (!w.gc) {
    uint64_t work = c.Value("tasks.total.work");
    if (work == 0) {
      fail("tasks.total.work is 0");
    }
    if (c.Value("tasks.total.done") > work) {
      fail("tasks.total.done > tasks.total.work");
    }
    if (c.Value("tasks.total.saved_pages") > work) {
      fail("tasks.total.saved_pages > tasks.total.work");
    }
  } else if (r.segments_cleaned == 0) {
    fail("no segment was cleaned");
  }
  if (c.Value("workload.ops.completed") > c.Value("workload.ops.issued")) {
    fail("workload.ops.completed > workload.ops.issued");
  }
  if (c.Value("workload.ops.completed") == 0) {
    fail("no foreground op completed");
  }
  if (c.Value("cache.added") - c.Value("cache.removed") > stack.cache_pages) {
    fail("cache.added - cache.removed > cache_pages");
  }
  if (c.Value("duet.events.dropped") != 0) {
    fail("duet.events.dropped != 0");
  }
  if (c.Value("block.failed.requests") != 0) {
    fail("block.failed.requests != 0");
  }
}

// Minimal JSON writer for the result object: keys are fixed identifiers and
// metric names, neither of which needs escaping.
class Json {
 public:
  Json& Open(const char* key = nullptr) {
    Key(key);
    out_ += '{';
    first_ = true;
    return *this;
  }
  Json& Close() {
    out_ += '}';
    first_ = false;
    return *this;
  }
  Json& OpenArray(const char* key) {
    Key(key);
    out_ += '[';
    first_ = true;
    return *this;
  }
  Json& CloseArray() {
    out_ += ']';
    first_ = false;
    return *this;
  }
  Json& Num(const char* key, double v) {
    Key(key);
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Uint(const std::string& key, uint64_t v) {
    Key(key.c_str());
    out_ += std::to_string(v);
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char ch : v) {
      if (ch == '"' || ch == '\\') {
        out_ += '\\';
      }
      out_ += ch;
    }
    out_ += '"';
    return *this;
  }
  Json& Hex(const char* key, uint64_t v) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return Str(key, buf);
  }
  Json& Nums(const char* key, const std::vector<double>& vs) {
    Key(key);
    out_ += '[';
    for (size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", vs[i]);
      out_ += buf;
    }
    out_ += ']';
    return *this;
  }
  Json& Strs(const char* key, const std::vector<std::string>& vs) {
    OpenArray(key);
    for (const std::string& v : vs) {
      Str(nullptr, v);
    }
    return CloseArray();
  }
  Json& Counters(const char* key, const obs::MetricsSnapshot& snap) {
    Open(key);
    for (const auto& [name, value] : snap.counters) {
      Uint(name, value);
    }
    return Close();
  }
  const std::string& str() const { return out_; }

 private:
  void Key(const char* key) {
    if (!first_) {
      out_ += ',';
    }
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  std::string out_;
  bool first_ = true;
};

bool FlagValue(const char* arg, const char* name, std::string* out) {
  size_t len = strlen(name);
  if (strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench_driver --workload=NAME --seed=N [--phase=all|setup|window]\n"
          "                        [--seconds=S] [--experiments=N]\n"
          "                        [--rate=R --unthrottled=0|1] [--spans=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string phase = "all";
  std::string spans_path;
  uint64_t seed = 42;
  double seconds = 20;
  CalibratedRate given_rate;
  bool have_rate = false;
  size_t max_experiments = 0;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--workload", &v)) {
      workload_name = v;
    } else if (FlagValue(argv[i], "--seed", &v)) {
      seed = strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--phase", &v)) {
      phase = v;
    } else if (FlagValue(argv[i], "--seconds", &v)) {
      seconds = atof(v.c_str());
    } else if (FlagValue(argv[i], "--rate", &v)) {
      given_rate.ops_per_sec = atof(v.c_str());
      have_rate = true;
    } else if (FlagValue(argv[i], "--unthrottled", &v)) {
      given_rate.unthrottled = v == "1";
    } else if (FlagValue(argv[i], "--spans", &v)) {
      spans_path = v;
    } else if (FlagValue(argv[i], "--experiments", &v)) {
      max_experiments = strtoull(v.c_str(), nullptr, 10);
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload_name);
  bool run_setup = phase == "all" || phase == "setup";
  bool run_window = phase == "all" || phase == "window";
  if (w == nullptr || (!run_setup && !run_window) || seconds < 0 ||
      (phase == "window" && !have_rate)) {
    return Usage();
  }

  const StackConfig stack = QuickStackConfig();
  const WorkloadConfig base = BaseWorkload(*w, stack, kSetupSeed);
  SpanLog spans;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Json json;
  json.Open()
      .Str("workload", w->name)
      .Str("fs", w->gc ? "logfs" : "cowfs")
      .Uint("seed", seed)
      .Str("phase", phase);

  CalibratedRate rate = given_rate;
  if (run_setup) {
    // Calibrate once per repetition, each under its own context so the
    // calibration's layer counts are its own; all repetitions must agree.
    std::vector<double> calibrate_s;
    std::vector<double> populate_s;
    obs::MetricsSnapshot setup_counters;
    uint64_t setup_dump_hash = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      obs::ObsContext ctx;
      obs::ObsScope scope(&ctx);
      ++attempted;
      size_t span = spans.Begin("setup.calibrate", rep);
      Clock::time_point start = Clock::now();
      CalibratedRate r = CalibrateRate(stack, base, w->target_util);
      double s = SecondsSince(start);
      spans.End(span);
      uint64_t dump_hash = Fnv1a(ctx.metrics.DumpText());
      if (rep == 0) {
        rate = r;
        setup_counters = ctx.metrics.Snapshot();
        setup_dump_hash = dump_hash;
      }
      if (r.ops_per_sec != rate.ops_per_sec || r.unthrottled != rate.unthrottled ||
          dump_hash != setup_dump_hash) {
        ++failed;
        errors.push_back("calibration repetition differs from the first");
        continue;
      }
      calibrate_s.push_back(s);
    }
    // A standalone stack build: the populate half of every window run.
    for (int rep = 0; rep < kSetupReps; ++rep) {
      obs::ObsContext ctx;
      obs::ObsScope scope(&ctx);
      size_t span = spans.Begin("setup.populate", rep);
      Clock::time_point start = Clock::now();
      if (w->gc) {
        LogRig rig(stack, base);
      } else {
        CowRig rig(stack, base);
      }
      populate_s.push_back(SecondsSince(start));
      spans.End(span);
    }
    if (!rate.unthrottled && std::abs(rate.achieved_util - w->target_util) > 0.05) {
      ++failed;
      errors.push_back("calibration missed the target utilization");
    }
    json.Open("setup")
        .Nums("calibrate_s", calibrate_s)
        .Nums("populate_s", populate_s)
        .Num("ops_per_sec", rate.ops_per_sec)
        .Uint("unthrottled", rate.unthrottled ? 1 : 0)
        .Num("achieved_util", rate.achieved_util)
        .Hex("dump_hash", setup_dump_hash)
        .Counters("counters", setup_counters)
        .Close();
  }

  if (run_window) {
    std::vector<uint64_t> seeds = ExperimentSeeds(seed, w->experiments);
    if (max_experiments > 0 && max_experiments < seeds.size()) {
      seeds.resize(max_experiments);
    }
    // The cowfs workloads report the mean chunk time, which needs a trace
    // sink: the first experiments run once more with it, untimed, before the
    // loop. Each experiment reports its own chunk totals.
    std::vector<ChunkTimer> chunks(w->gc ? 0 : std::min(kChunkTimedExperiments, seeds.size()));
    std::vector<WindowRun> chunk_runs;
    for (size_t i = 0; i < chunks.size(); ++i) {
      ++attempted;
      size_t span = spans.Begin("run.chunk_timing", static_cast<int>(i));
      chunk_runs.push_back(RunWindow(*w, stack, seeds[i], rate, &chunks[i]));
      spans.End(span);
    }

    struct Experiment {
      WindowRun first;
      std::vector<double> run_s;
    };
    std::vector<Experiment> experiments(seeds.size());
    Clock::time_point loop_start = Clock::now();
    for (size_t rep = 0; rep < seeds.size() || SecondsSince(loop_start) < seconds; ++rep) {
      size_t i = rep % seeds.size();
      ++attempted;
      size_t span = spans.Begin("run.window", static_cast<int>(rep));
      WindowRun r = RunWindow(*w, stack, seeds[i], rate, nullptr);
      spans.End(span);
      std::vector<std::string> rep_errors;
      CheckInvariants(*w, stack, r, &rep_errors);
      const WindowRun* expected = nullptr;
      if (rep >= seeds.size()) {
        expected = &experiments[i].first;
      } else {
        experiments[i].first = r;
        if (i < chunk_runs.size()) {
          expected = &chunk_runs[i];
        }
      }
      if (expected != nullptr &&
          (r.fingerprint != expected->fingerprint || r.dump_hash != expected->dump_hash)) {
        rep_errors.push_back("a repeated run differs from the first run of its seed");
      }
      if (!rep_errors.empty()) {
        ++failed;
        errors.insert(errors.end(), rep_errors.begin(), rep_errors.end());
        continue;
      }
      experiments[i].run_s.push_back(r.seconds);
    }

    obs::MetricsSnapshot totals;
    json.Open("window").OpenArray("experiments");
    for (size_t i = 0; i < experiments.size(); ++i) {
      const WindowRun& r = experiments[i].first;
      for (const auto& [name, value] : r.counters.counters) {
        totals.counters[name] += value;
      }
      json.Open(nullptr)
          .Uint("seed", seeds[i])
          .Nums("run_s", experiments[i].run_s)
          .Hex("fingerprint", r.fingerprint)
          .Hex("dump_hash", r.dump_hash)
          .Num("lat_p50_us", r.lat_p50_us)
          .Num("lat_p99_us", r.lat_p99_us)
          .Num("read_p50_us", r.read_p50_us)
          .Num("read_p99_us", r.read_p99_us)
          .Num("write_p99_us", r.write_p99_us)
          .Num("measured_util", r.measured_util)
          .Uint("work", r.counters.Value("tasks.total.work"))
          .Uint("done", r.counters.Value("tasks.total.done"))
          .Uint("saved_pages", r.counters.Value("tasks.total.saved_pages"))
          .Uint("chunk_sim_ns", i < chunks.size() ? chunks[i].total() : 0)
          .Uint("chunks", i < chunks.size() ? chunks[i].count() : 0)
          .Num("gc_clean_ms", r.gc_clean_ms)
          .Uint("segments_cleaned", r.segments_cleaned)
          .Uint("scattered_writes", r.scattered_writes)
          .Uint("gc_reads_disk", r.gc_reads_disk)
          .Uint("gc_reads_cached", r.gc_reads_cached)
          .Close();
    }
    json.CloseArray().Counters("counters", totals).Close();
  }

  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  json.Num("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .Uint("attempted", attempted)
      .Uint("failed", failed)
      .Strs("errors", errors)
      .Close();
  if (!spans_path.empty() && !spans.Write(spans_path)) {
    fprintf(stderr, "perfbench_driver: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  printf("%s\n", json.str().c_str());
  return 0;
}
