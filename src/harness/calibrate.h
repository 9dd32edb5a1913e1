// Workload-rate calibration, mirroring the paper's methodology (§6.1.2):
// each Filebench personality is profiled alone (no maintenance) at different
// throttle settings to find the ops/sec rate that produces a target device
// utilization.
#ifndef SRC_HARNESS_CALIBRATE_H_
#define SRC_HARNESS_CALIBRATE_H_

#include <string>
#include <unordered_map>

#include "src/harness/rig.h"
#include "src/harness/stack_config.h"

namespace duet {

// Runs the workload alone for a profiling window and returns the measured
// best-effort device utilization (the iostat %util analogue).
double MeasureUtilization(const StackConfig& stack, const WorkloadConfig& workload,
                          SimDuration profile_window = Seconds(12));

// What probes have learned, keyed by every field of the stack and workload
// configs plus the profile window: a probe's exact utilization, or a lower
// bound on it when the probe stopped early.
struct ProbeUtil {
  double util = 0;
  bool exact = false;
};
using ProbeMemo = std::unordered_map<std::string, ProbeUtil>;

// Finds the ops/sec rate at which the workload alone drives the device at
// `target_util` (0 < target_util < 1). Returns 0 for target 0 (workload off).
// A target at or above the workload's maximum achievable utilization (less
// 0.01) returns 0 rate with `unthrottled` set. Otherwise the rate is bisected
// over [0.1, 4000] ops/s for at most 11 probes, stopping at the first probe
// within 0.015 of the target, and the probe closest to the target wins (the
// earliest on a tie).
//
// Probes stop once their answer is known. Best-effort busy time only grows
// as requests complete, so busy-so-far / profile window is a lower bound on
// the probe's final utilization. The max-utilization probe stops once that
// bound exceeds the target by more than 0.01 (the workload is throttled),
// and a bisection probe once the bound reaches the target + 0.015 (the rate
// is too high, so the bisection halves downwards). The choice of the
// closest probe uses only probes that ran to the end; a stopped probe whose
// bound does not prove it farther from the target than that choice is run
// to the end, and the choice is made again. The result is bit-identical to
// running every probe to the end.
//
// With a memo, a probe reuses an exact entry, or a lower bound that already
// answers its question, and records what it measured; without one, every
// probe simulates. Calls count probes run, probes stopped early and their
// simulated milliseconds in the registry (harness.calibrate.*).
struct CalibratedRate {
  double ops_per_sec = 0;   // 0 with unthrottled=false means "no workload"
  bool unthrottled = false; // target at/above the natural maximum
  double achieved_util = 0;
};
CalibratedRate CalibrateRate(const StackConfig& stack, const WorkloadConfig& base,
                             double target_util,
                             SimDuration profile_window = Seconds(12),
                             ProbeMemo* memo = nullptr);

// Calibrates for the bench binaries, sharing one ProbeMemo across every
// (stack, workload, target) combination a binary asks for. The memo is keyed
// by every config field, so a repeated combination replays its earlier
// calibration exactly without running a probe, and a new target reuses every
// probe it shares with earlier ones. Nothing is kept across processes.
class RateTable {
 public:
  CalibratedRate Get(const StackConfig& stack, const WorkloadConfig& base,
                     double target_util) {
    return CalibrateRate(stack, base, target_util, Seconds(12), &probes_);
  }

 private:
  ProbeMemo probes_;
};

}  // namespace duet

#endif  // SRC_HARNESS_CALIBRATE_H_
