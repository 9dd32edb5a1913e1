// Background garbage collector for logfs (paper §5.4), modeled on the F2fs
// cleaner: it wakes periodically, and if the device has been idle it scans a
// window of segments, picks the victim with the minimum cost, and cleans it.
//
// Opportunistic mode registers a Duet block task for Exists ∨ Flushed and
// maintains per-segment counters of cached valid blocks from the events; the
// cost function charges `valid - cached/2` blocks for the move instead of
// `valid` (reads and writes weighed equally; cached blocks save the read).
// The done primitives are not used — a segment can always become dirty again.
#ifndef SRC_TASKS_GC_TASK_H_
#define SRC_TASKS_GC_TASK_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/logfs/logfs.h"
#include "src/tasks/maintenance_task.h"
#include "src/util/stats.h"

namespace duet {

struct GcConfig {
  bool use_duet = false;
  SimDuration wake_interval = Millis(500);  // cleaner wake-up period
  SimDuration idle_threshold = Millis(50);  // device idle time before running
};

// A periodic cleaner: a run lasts from Start() to Stop() and never finishes
// on its own; Stop() emits the Finished event.
class GcTask : public MaintenanceTask {
 public:
  GcTask(LogFs* fs, DuetCore* duet, GcConfig config);
  ~GcTask() override { Stop(); }

  // Per-segment cleaning time distribution (paper Table 6).
  const RunningStats& cleaning_time_ms() const { return cleaning_time_ms_; }
  uint64_t segments_cleaned() const { return segments_cleaned_; }
  // Ground-truth check of the event-maintained counters (tests).
  int64_t CachedCounter(SegmentNo seg) const { return cached_[seg]; }

 private:
  void OnStart() override;
  void OnStop() override;
  // One cleaner wake-up; returns false while a cleaning pass is in flight
  // (its completion re-arms the timer).
  bool OnPoll() override;
  void OnDuetItem(const DuetItem& item) override;
  double VictimCost(SegmentNo seg, const SegmentInfo& info);

  LogFs* const log_;
  const GcConfig config_;
  // A segment clean is on the device (whichever run issued it).
  bool cleaning_ = false;
  SegmentNo window_cursor_ = 0;
  std::vector<int64_t> cached_;  // per-segment cached-valid-block counters
  // Which segment each cached page was last counted against, so moves adjust
  // both the old and the new segment's counters (§5.4).
  std::unordered_map<FilePage, SegmentNo, FilePageHash> counted_;
  uint64_t segments_cleaned_ = 0;
  RunningStats cleaning_time_ms_;
};

}  // namespace duet

#endif  // SRC_TASKS_GC_TASK_H_
