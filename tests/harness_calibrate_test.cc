// Calibration exactness: CalibrateRate stops probes early and RateTable
// shares probes between targets, yet both must return exactly the rate the
// plain sequential bisection returns, in which every probe runs to the end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/harness/calibrate.h"
#include "src/obs/obs.h"

namespace duet {
namespace {

StackConfig TinyStack() {
  StackConfig stack;
  stack.capacity_blocks = 40'960;               // 160 MiB device
  stack.data_bytes = 128ull * 1024 * 1024;      // 128 MiB data
  stack.cache_pages = 656;                      // ~2%
  stack.window = Seconds(6);
  stack.mean_file_size = 256 * 1024;
  return stack;
}

// The reference: one RunUntil over the whole window.
double ReferenceUtilization(const StackConfig& stack, const WorkloadConfig& workload,
                            SimDuration profile_window) {
  CowRig rig(stack, workload);
  SimDuration warmup = profile_window / 5;
  rig.workload().Start();
  rig.loop().RunUntil(warmup);
  SimTime measure_start = rig.loop().now();
  SimDuration busy_at_start =
      rig.device().stats().busy[static_cast<int>(IoClass::kBestEffort)];
  rig.loop().RunUntil(warmup + profile_window);
  rig.workload().Stop();
  return rig.UtilizationSince(measure_start, busy_at_start);
}

// The reference: the sequential bisection, every probe run to the end.
CalibratedRate ReferenceCalibrateRate(const StackConfig& stack,
                                      const WorkloadConfig& base, double target_util,
                                      SimDuration profile_window) {
  CalibratedRate out;
  if (target_util <= 0) {
    return out;
  }
  WorkloadConfig probe = base;
  probe.ops_per_sec = 0;
  double max_util = ReferenceUtilization(stack, probe, profile_window);
  if (target_util >= max_util - 0.01) {
    out.unthrottled = true;
    out.achieved_util = max_util;
    return out;
  }
  double lo = 0.1;
  double hi = 4000.0;
  double best_rate = hi;
  double best_err = 1.0;
  for (int iter = 0; iter < 11; ++iter) {
    double mid = (lo + hi) / 2;
    probe.ops_per_sec = mid;
    double util = ReferenceUtilization(stack, probe, profile_window);
    double err = util - target_util;
    if (std::abs(err) < std::abs(best_err)) {
      best_err = err;
      best_rate = mid;
    }
    if (std::abs(err) < 0.015) {
      break;
    }
    if (err < 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.ops_per_sec = best_rate;
  out.achieved_util = target_util + best_err;
  return out;
}

void ExpectSameRate(const CalibratedRate& got, const CalibratedRate& want) {
  EXPECT_EQ(got.ops_per_sec, want.ops_per_sec);
  EXPECT_EQ(got.unthrottled, want.unthrottled);
  EXPECT_EQ(got.achieved_util, want.achieved_util);
}

struct WorkloadCase {
  const char* name;
  Personality personality;
  bool skewed;
  double fragmented_fraction;
};

const WorkloadCase kWorkloads[] = {
    {"webserver", Personality::kWebserver, false, 0},
    {"fileserver", Personality::kFileserver, false, 0},
    {"fileserver_fragmented", Personality::kFileserver, false, 0.1},
    {"fileserver_skewed", Personality::kFileserver, true, 0},
};

const double kTargets[] = {0.2, 0.4, 0.6, 0.9999};

// A window short enough that the reference stays cheap.
constexpr SimDuration kWindow = Seconds(2);

WorkloadConfig BaseFor(const StackConfig& stack, const WorkloadCase& c) {
  WorkloadConfig base =
      MakeWorkloadConfig(stack, c.personality, 1.0, c.skewed, 0, /*seed=*/3);
  base.fragmented_fraction = c.fragmented_fraction;
  return base;
}

TEST(CalibrateExactTest, EarlyStopMatchesSequentialBisection) {
  StackConfig stack = TinyStack();
  for (const WorkloadCase& c : kWorkloads) {
    WorkloadConfig base = BaseFor(stack, c);
    for (double target : kTargets) {
      SCOPED_TRACE(std::string(c.name) + " target " + std::to_string(target));
      ExpectSameRate(CalibrateRate(stack, base, target, kWindow),
                     ReferenceCalibrateRate(stack, base, target, kWindow));
    }
  }
}

// A fine sweep, so that some probes end just inside or just outside the
// band, where an early stop must not change the bisection's path.
TEST(CalibrateExactTest, TargetSweepMatchesSequentialBisection) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = BaseFor(stack, kWorkloads[0]);
  for (int pct = 5; pct < 100; pct += 5) {
    double target = pct / 100.0;
    SCOPED_TRACE("target " + std::to_string(target));
    ExpectSameRate(CalibrateRate(stack, base, target, kWindow),
                   ReferenceCalibrateRate(stack, base, target, kWindow));
  }
}

// Targets on both sides of the unthrottled margin below the natural maximum,
// where the max-utilization probe's early stop decides the outcome.
TEST(CalibrateExactTest, TargetsAroundTheUnthrottledMargin) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = BaseFor(stack, kWorkloads[1]);
  double max_util = ReferenceUtilization(stack, base, kWindow);
  for (double below : {0.02, 0.0101, 0.0099, 0.005}) {
    double target = max_util - below;
    SCOPED_TRACE("max - " + std::to_string(below));
    CalibratedRate want = ReferenceCalibrateRate(stack, base, target, kWindow);
    EXPECT_EQ(want.unthrottled, below < 0.01);
    ExpectSameRate(CalibrateRate(stack, base, target, kWindow), want);
  }
}

TEST(CalibrateExactTest, StopsProbesThatSaturateTheDisk) {
  obs::ObsContext ctx;
  obs::ObsScope scope(&ctx);
  StackConfig stack = TinyStack();
  WorkloadConfig base = BaseFor(stack, kWorkloads[0]);
  CalibratedRate rate = CalibrateRate(stack, base, 0.4, kWindow);
  ASSERT_FALSE(rate.unthrottled);
  uint64_t probes = ctx.metrics.GetCounter("harness.calibrate.probes")->value();
  uint64_t stopped = ctx.metrics.GetCounter("harness.calibrate.probes_stopped")->value();
  uint64_t sim_ms = ctx.metrics.GetCounter("harness.calibrate.probe_sim_ms")->value();
  EXPECT_GT(stopped, 0u);
  EXPECT_LT(stopped, probes);
  // Each probe simulates at most warmup + window.
  EXPECT_LT(sim_ms, probes * (kWindow + kWindow / 5) / kMillisecond);
}

// With 2 MiB files, even the lowest rate the bisection reaches (about 2
// ops/s) exceeds this target by more than the band. All 11 bisection probes
// stop early, so none is a choice until some run to the end.
TEST(CalibrateExactTest, TargetBelowEveryProbeRunsStoppedProbesToTheEnd) {
  obs::ObsContext ctx;
  obs::ObsScope scope(&ctx);
  StackConfig stack = TinyStack();
  stack.mean_file_size = 2ull * 1024 * 1024;
  WorkloadConfig base = BaseFor(stack, kWorkloads[0]);
  const double target = 0.001;
  // Over a shorter window the lowest rate lands inside the band.
  const SimDuration window = 2 * kWindow;
  CalibratedRate rate = CalibrateRate(stack, base, target, window);
  ExpectSameRate(rate, ReferenceCalibrateRate(stack, base, target, window));
  EXPECT_GT(rate.achieved_util - target, 0.015);
  // The max-utilization probe and 11 bisection probes, plus reruns.
  EXPECT_EQ(ctx.metrics.GetCounter("harness.calibrate.probes_stopped")->value(), 12u);
  EXPECT_GT(ctx.metrics.GetCounter("harness.calibrate.probes")->value(), 12u);
}

// RateTable shares one probe memo across targets; each rate must still be
// the one a fresh, memo-free calibration returns, and asking again replays
// the earlier calibration bit for bit without running a probe.
TEST(CalibrateExactTest, RateTableMemoMatchesFreshCalibration) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = BaseFor(stack, kWorkloads[0]);
  RateTable table;
  const double targets[] = {0.6, 0.2, 0.4, 0.2, 0.9999, 0.3};
  std::vector<CalibratedRate> first;
  for (double target : targets) {
    SCOPED_TRACE("target " + std::to_string(target));
    first.push_back(table.Get(stack, base, target));
    ExpectSameRate(first.back(), CalibrateRate(stack, base, target, Seconds(12)));
  }
  obs::ObsContext ctx;
  obs::ObsScope scope(&ctx);
  for (size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("repeated target " + std::to_string(targets[i]));
    CalibratedRate again = table.Get(stack, base, targets[i]);
    EXPECT_EQ(std::memcmp(&again.ops_per_sec, &first[i].ops_per_sec, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&again.achieved_util, &first[i].achieved_util, sizeof(double)),
              0);
    EXPECT_EQ(again.unthrottled, first[i].unthrottled);
  }
  EXPECT_EQ(ctx.metrics.GetCounter("harness.calibrate.probes")->value(), 0u);
}

}  // namespace
}  // namespace duet
