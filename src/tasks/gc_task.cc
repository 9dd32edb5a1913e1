#include "src/tasks/gc_task.h"

#include <algorithm>

namespace duet {
namespace {

// F2fs gates *when* the cleaner runs on idleness, but its reads are
// ordinary kernel I/O, not idle-class.
constexpr IoClass kIoClass = IoClass::kBestEffort;
// Victim-search window per wake-up (§5.4).
constexpr uint64_t kWindowSegments = 4096;

}  // namespace

GcTask::GcTask(LogFs* fs, DuetCore* duet, GcConfig config)
    : MaintenanceTask(fs, duet, config.use_duet, "gc", TaskTag::kGc,
                      config.wake_interval),
      log_(fs),
      config_(config) {}

void GcTask::OnStart() {
  window_cursor_ = 0;
  cached_.assign(log_->segment_count(), 0);
  counted_.clear();
  segments_cleaned_ = 0;
  cleaning_time_ms_ = RunningStats{};
  if (use_duet_) {
    RegisterBlockSession(kDuetPageExists | kDuetPageFlushed);
  }
  SchedulePoll();  // the cleaner's wake-ups, in either mode
}

void GcTask::OnStop() {
  if (running()) {
    EmitFinished();
  }
}

void GcTask::OnDuetItem(const DuetItem& item) {
  SegmentNo seg = log_->SegmentOf(item.id);
  // Resolve the owning page through the back references (F2fs's SSA), so
  // a page that moved segments adjusts both counters (§5.4).
  Result<FileSystem::BlockOwner> owner = log_->Rmap(item.id);
  bool removed = item.has(kDuetPageRemoved);  // the page left the cache
  if (seg >= cached_.size() || !owner.ok() ||
      !(removed || item.has(kDuetPageExists) || item.has(kDuetPageFlushed))) {
    return;
  }
  FilePage key{owner->ino, owner->idx};
  auto counted = counted_.find(key);
  if (counted != counted_.end()) {
    if (!removed && counted->second == seg) {
      return;  // already counted against this segment
    }
    if (cached_[counted->second] > 0) {
      --cached_[counted->second];
    }
    counted_.erase(counted);
  }
  if (!removed) {
    // Cached and currently backed by `seg`.
    counted_.emplace(key, seg);
    ++cached_[seg];
  }
}

double GcTask::VictimCost(SegmentNo seg, const SegmentInfo& info) {
  if (!use_duet_) {
    return GcCostBaseline(info, log_->segment_blocks(), now());
  }
  int64_t cached = std::max<int64_t>(cached_[seg], 0);
  uint64_t capped = std::min<uint64_t>(static_cast<uint64_t>(cached), info.valid);
  return GcCostDuet(info, log_->segment_blocks(), now(), capped);
}

bool GcTask::OnPoll() {
  if (use_duet_) {
    DrainDuetEvents();
  }
  // Run only when the device has been idle for a while (background GC).
  SimTime at = now();
  SimTime last_activity = log_->device().last_best_effort_activity();
  bool idle = !log_->device().busy() && at - last_activity >= config_.idle_threshold;
  if (!idle || cleaning_) {
    return true;
  }
  std::optional<SegmentNo> victim = log_->SelectVictim(
      window_cursor_, kWindowSegments,
      [this](SegmentNo seg, const SegmentInfo& info) { return VictimCost(seg, info); });
  window_cursor_ = (window_cursor_ + kWindowSegments) % log_->segment_count();
  if (!victim.has_value()) {
    return true;
  }
  cleaning_ = true;
  ChunkStarted(*victim, 0);
  auto cleaned = Guard([this](const CleanResult& r) {
    ChunkFinished(r.segment, r.blocks_moved);
    if (r.status.ok() && r.blocks_moved > 0) {
      ++segments_cleaned_;
      cleaning_time_ms_.Add(ToMillis(r.duration));
      stats_.work_done += r.blocks_moved;
      stats_.io_read_pages += r.blocks_read_disk;
      stats_.saved_read_pages += r.blocks_from_cache;
      // Counters for the cleaned segment are stale now; reset them.
      if (r.segment < cached_.size()) {
        cached_[r.segment] = 0;
      }
    }
    SchedulePoll();
  });
  log_->CleanSegment(*victim, kIoClass, [this, cleaned](const CleanResult& r) {
    cleaning_ = false;
    cleaned(r);
  });
  return false;
}

}  // namespace duet
