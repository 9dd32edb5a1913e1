#include "src/harness/calibrate.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/format.h"

namespace duet {

namespace {

// A bisection probe this close to the target ends the search.
constexpr double kBand = 0.015;
// A target within this of the natural maximum runs unthrottled.
constexpr double kMaxMargin = 0.01;
// The measurement window runs in this many slices; after each one, a probe
// with a question checks whether its lower bound already answers it.
constexpr uint64_t kProbeSlices = 100;

// Runs the workload alone for a warmup of profile_window / 5, then measures
// best-effort utilization over `profile_window`. If `decided` is set and
// returns true for a lower bound on the final utilization, the probe stops
// there and returns that bound. The slices are RunUntil calls from outside
// the loop; no event is scheduled, so the simulation is the same as one
// RunUntil over the whole window.
ProbeUtil RunProbe(const StackConfig& stack, const WorkloadConfig& workload,
                   SimDuration profile_window,
                   const std::function<bool(double)>& decided) {
  obs::MetricsRegistry& metrics = obs::Metrics();
  CowRig rig(stack, workload);
  // Short warmup so the cache reaches a steady mix before measuring.
  SimDuration warmup = profile_window / 5;
  rig.workload().Start();
  rig.loop().RunUntil(warmup);
  SimTime measure_start = rig.loop().now();
  const SimDuration& busy =
      rig.device().stats().busy[static_cast<int>(IoClass::kBestEffort)];
  SimDuration busy_at_start = busy;
  ProbeUtil out{0, true};
  for (uint64_t slice = 1; slice <= kProbeSlices; ++slice) {
    rig.loop().RunUntil(warmup + profile_window * slice / kProbeSlices);
    if (slice == kProbeSlices || !decided) {
      continue;
    }
    // Busy time accrues when a request completes, and the final utilization
    // divides by the whole window, so this never exceeds it.
    double lower = static_cast<double>(busy - busy_at_start) /
                   static_cast<double>(profile_window);
    if (decided(lower)) {
      out = ProbeUtil{lower, false};
      break;
    }
  }
  if (out.exact) {
    rig.workload().Stop();
    out.util = rig.UtilizationSince(measure_start, busy_at_start);
  } else {
    metrics.GetCounter("harness.calibrate.probes_stopped")->Add();
  }
  metrics.GetCounter("harness.calibrate.probes")->Add();
  metrics.GetCounter("harness.calibrate.probe_sim_ms")
      ->Add(rig.loop().now() / kMillisecond);
  return out;
}

// Every field a probe's outcome depends on.
std::string ProbeKey(const StackConfig& s, const WorkloadConfig& w,
                     SimDuration profile_window) {
  return StrFormat(
      "%d|%d|%llu|%llu|%llu|%llu|%llu|%llu|%s|%llu|%llu|%a|%d|%d|%a|%a|%llu|%llu|%a|"
      "%llu|%llu|%a|%s|%s|%llu",
      static_cast<int>(s.device), static_cast<int>(s.scheduler),
      static_cast<unsigned long long>(s.capacity_blocks),
      static_cast<unsigned long long>(s.data_bytes),
      static_cast<unsigned long long>(s.cache_pages),
      static_cast<unsigned long long>(s.window),
      static_cast<unsigned long long>(s.idle_grace),
      static_cast<unsigned long long>(s.mean_file_size),
      PersonalityName(w.personality), static_cast<unsigned long long>(w.file_count),
      static_cast<unsigned long long>(w.mean_file_size), w.coverage,
      w.cluster_covered ? 1 : 0, w.skewed ? 1 : 0, w.zipf_s, w.ops_per_sec,
      static_cast<unsigned long long>(w.think_time),
      static_cast<unsigned long long>(w.append_size), w.fragmented_fraction,
      static_cast<unsigned long long>(w.seed),
      static_cast<unsigned long long>(w.subdirs), w.partial_read_fraction,
      w.data_dir.c_str(), w.log_path.c_str(),
      static_cast<unsigned long long>(profile_window));
}

}  // namespace

double MeasureUtilization(const StackConfig& stack, const WorkloadConfig& workload,
                          SimDuration profile_window) {
  return RunProbe(stack, workload, profile_window, nullptr).util;
}

CalibratedRate CalibrateRate(const StackConfig& stack, const WorkloadConfig& base,
                             double target_util, SimDuration profile_window,
                             ProbeMemo* memo) {
  CalibratedRate out;
  if (target_util <= 0) {
    return out;
  }
  WorkloadConfig probe = base;
  // Measures `rate`; with `decided`, the answer may be a lower bound that
  // `decided` accepts.
  auto measure = [&](double rate, const std::function<bool(double)>& decided) {
    probe.ops_per_sec = rate;
    ProbeUtil* known = nullptr;
    std::string key;
    if (memo != nullptr) {
      key = ProbeKey(stack, probe, profile_window);
      auto it = memo->find(key);
      if (it != memo->end()) {
        known = &it->second;
        if (known->exact || (decided && decided(known->util))) {
          return *known;
        }
      }
    }
    ProbeUtil got = RunProbe(stack, probe, profile_window, decided);
    if (memo != nullptr) {
      if (known == nullptr) {
        memo->emplace(std::move(key), got);
      } else if (got.exact || got.util > known->util) {
        *known = got;
      }
    }
    return got;
  };

  // Natural maximum with the unthrottled closed loop.
  ProbeUtil max_util = measure(0, [target_util](double lower) {
    return target_util < lower - kMaxMargin;
  });
  if (max_util.exact && target_util >= max_util.util - kMaxMargin) {
    out.unthrottled = true;
    out.achieved_util = max_util.util;
    return out;
  }
  // Bisect the rate over a generous fixed range.
  struct Probe {
    double rate;
    ProbeUtil util;
  };
  std::vector<Probe> probes;
  double lo = 0.1;
  double hi = 4000.0;
  const double initial_rate = hi;
  auto too_high = [target_util](double lower) { return lower - target_util >= kBand; };
  for (int iter = 0; iter < 11; ++iter) {
    double mid = (lo + hi) / 2;
    probes.push_back(Probe{mid, measure(mid, too_high)});
    const ProbeUtil& util = probes.back().util;
    double err = util.util - target_util;
    if (util.exact && std::abs(err) < kBand) {
      break;
    }
    // A stopped probe's utilization is at least target + kBand.
    if (err < 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // The probe closest to the target wins, the earliest on a tie; before any
  // probe, the ceiling at an error of 1.
  for (;;) {
    double best_rate = initial_rate;
    double best_err = 1.0;
    size_t best = probes.size();
    for (size_t i = 0; i < probes.size(); ++i) {
      double err = probes[i].util.util - target_util;
      if (probes[i].util.exact && std::abs(err) < std::abs(best_err)) {
        best_err = err;
        best_rate = probes[i].rate;
        best = i;
      }
    }
    // A stopped probe's error is at least its bound's, so it loses to a
    // strictly closer choice, or to an equally close earlier one.
    size_t open = probes.size();
    for (size_t i = 0; i < probes.size() && open == probes.size(); ++i) {
      double bound_err = probes[i].util.util - target_util;
      bool loses = bound_err > std::abs(best_err) ||
                   (bound_err == std::abs(best_err) &&
                    (best == probes.size() || best < i));
      if (!probes[i].util.exact && !loses) {
        open = i;
      }
    }
    if (open == probes.size()) {
      out.ops_per_sec = best_rate;
      out.achieved_util = target_util + best_err;
      return out;
    }
    probes[open].util = measure(probes[open].rate, nullptr);
  }
}

}  // namespace duet
