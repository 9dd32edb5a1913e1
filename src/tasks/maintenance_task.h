// The skeleton every maintenance task shares (paper §4.2, §5): register a
// Duet session, fetch its events on a poll, mark items done, and scan in the
// task's baseline order while skipping what is already done. The skeleton
// owns that pattern and the run lifecycle; a task supplies only its policy —
// how it handles events, how it picks the next unit, its chunk I/O and its
// accounting. DESIGN.md §2.1 states the contract.
#ifndef SRC_TASKS_MAINTENANCE_TASK_H_
#define SRC_TASKS_MAINTENANCE_TASK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/block/durable_image.h"
#include "src/duet/duet_core.h"
#include "src/duet/duet_library.h"
#include "src/fs/file_system.h"
#include "src/obs/obs.h"

namespace duet {

// Counters shared by all maintenance tasks, supporting the paper's metrics
// (Table 4): I/O saved, work completed, and completion time.
struct TaskStats {
  uint64_t work_total = 0;      // units (pages/blocks) the task must process
  uint64_t work_done = 0;       // units processed (normally or opportunistically)
  uint64_t io_read_pages = 0;   // device read I/O the task performed
  uint64_t io_write_pages = 0;  // device write I/O the task performed
  uint64_t saved_read_pages = 0;   // reads avoided thanks to cached data
  uint64_t saved_write_pages = 0;  // writes avoided (already-dirty pages)
  uint64_t opportunistic_units = 0;  // units processed out of order
  bool finished = false;
  SimTime started_at = 0;
  SimTime finished_at = 0;

  double CompletionFraction() const {
    if (work_total == 0) {
      return 1.0;
    }
    double f = static_cast<double>(work_done) / static_cast<double>(work_total);
    return f > 1.0 ? 1.0 : f;
  }
  uint64_t TotalIoPages() const { return io_read_pages + io_write_pages; }
  SimDuration Runtime() const { return finished ? finished_at - started_at : 0; }
};

// A file page, hashable for unordered containers.
using FilePage = std::pair<InodeNo, PageIdx>;
struct FilePageHash {
  size_t operator()(const FilePage& k) const {
    return std::hash<uint64_t>()(k.first * 0x9e3779b97f4a7c15ULL ^ k.second);
  }
};

// Trace payload tags (wire format; do not renumber existing entries).
enum class TaskTag : uint64_t {
  kScrub = 1,
  kBackup = 2,
  kIncBackup = 3,
  kDefrag = 4,
  kGc = 5,
  kRsync = 6,
  kVirusScan = 7,
};

class MaintenanceTask {
 public:
  virtual ~MaintenanceTask() = default;
  MaintenanceTask(const MaintenanceTask&) = delete;
  MaintenanceTask& operator=(const MaintenanceTask&) = delete;

  // Starts a run; `on_finish` fires when the run completes its work.
  void Start(std::function<void()> on_finish = nullptr);
  // Ends the run early (e.g. at the end of the experiment window).
  void Stop();
  // Crash resume: the task persists its cursor under "cursor.<name>" in the
  // durable image as it goes, and a Start() after a crash and remount
  // resumes from it. Finishing a run clears it.
  void EnableCursorPersistence(DurableImage* image) { cursor_image_ = image; }

  const TaskStats& stats() const { return stats_; }
  bool running() const { return running_; }

 protected:
  static constexpr size_t kFetchBatch = 256;  // events per fetch call
  // §6.4: tasks fetch many times a second, so hints keep flowing even when
  // the task's own idle-class I/O is starved.
  static constexpr SimDuration kPollInterval = Millis(20);

  // `duet` may be null when `use_duet` is false. Metrics go to
  // tasks.<name>.* of the ObsContext current at construction.
  MaintenanceTask(FileSystem* fs, DuetCore* duet, bool use_duet,
                  std::string_view name, TaskTag tag,
                  SimDuration poll_period = kPollInterval);

  // ---- Policy hooks ----
  // Resets the task's own per-run state and issues the first step.
  virtual void OnStart() = 0;
  // Stop-time cleanup; the Duet session is still registered.
  virtual void OnStop() {}
  // Final accounting before the Finished event, session still registered.
  virtual void OnFinish() {}
  // One poll tick: drains events and finishes the run once WorkDone().
  // Returns whether to keep polling; a task returning false re-arms the
  // timer itself with SchedulePoll().
  virtual bool OnPoll();
  // Whether every unit of the run's work is done, e.g. by other parties'
  // I/O while the task's own idle-class I/O is starved.
  virtual bool WorkDone() { return false; }
  // One fetched item of a block-task session.
  virtual void OnDuetItem(const DuetItem&) {}
  // File tasks: whether to process an inode taken from the hot queue, or
  // from the baseline worklist.
  virtual bool AcceptHot(InodeNo) { return true; }
  virtual bool AcceptListed(InodeNo) { return true; }
  // File tasks: the next accepted hinted inode. Defaults to draining events
  // (Duet mode) and taking the hot queue's best accepted entry.
  virtual std::optional<InodeNo> NextHot();
  // File tasks: processes one picked file, then calls ScheduleNextFile().
  virtual void ProcessFile(InodeNo, bool /*opportunistic*/) {}

  // ---- Duet session and poll timer ----
  void RegisterBlockSession(uint8_t mask);
  // Registers for `dir` and feeds the hot queue, ranked by `score`
  // (Algorithm 1's priority).
  void RegisterFileSession(const std::string& dir, uint8_t mask,
                           std::function<double(InodeNo, uint64_t)> score);
  void ReleaseSession();
  // Fetches every pending event into OnDuetItem or the hot queue.
  void DrainDuetEvents();
  // Duet mode: whether an item is marked done; marking one done mutes its
  // events and drops a file from the hot queue.
  bool IsDone(uint64_t id) { return use_duet_ && duet_->CheckDone(sid_, id); }
  void MarkDone(uint64_t id) {
    if (use_duet_) {
      (void)duet_->SetDone(sid_, id);
      if (hot_ != nullptr) {
        hot_->Erase(id);
      }
    }
  }
  void SchedulePoll() {
    poll_event_ = loop().ScheduleAfter(poll_period_, [this] { PollTick(); });
  }
  void CancelPoll();

  // ---- Run lifecycle ----
  // Completes the run: OnFinish, Finished, cursor cleared, session
  // released, then `on_finish`.
  void Finish();
  void set_on_finish(std::function<void()> fn) { on_finish_ = std::move(fn); }
  // The epoch guard: wraps an async completion so it runs only while the
  // run that issued it is still current. Every completion goes through it.
  template <typename Fn>
  auto Guard(Fn fn) {
    return [this, epoch = epoch_, fn = std::move(fn)](auto&&... args) {
      if (running_ && epoch == epoch_) {
        fn(std::forward<decltype(args)>(args)...);
      }
    };
  }
  // Transient-failure retry: while `*attempt` < `max_retries`, schedules
  // `again` after an exponentially growing backoff and returns true;
  // otherwise resets `*attempt` and returns false.
  bool RetryLater(uint32_t* attempt, uint32_t max_retries, uint64_t start,
                  std::function<void()> again);

  // ---- File tasks (Algorithm 1) ----
  // Appends the files under `dir` that `keep` accepts to the worklist in
  // depth-first order, charging `units_per_page` units of work per page.
  void ListFiles(const std::string& dir, uint64_t units_per_page,
                 const std::function<bool(const Inode&)>& keep = nullptr);
  // Processes the hottest accepted hint, else the next accepted worklist
  // inode; finishes the run once the worklist is exhausted.
  void ProcessNextFile();
  // Continues with the next file through the event loop, so long runs of
  // skipped files do not recurse on the stack.
  void ScheduleNextFile() {
    loop().ScheduleAfter(0, Guard([this] { ProcessNextFile(); }));
  }
  // Reads up to `chunk_pages` pages of `ino` from `next_page` through the
  // page cache, credits them, then calls `done` with the read's result and
  // page count. Returns false, issuing nothing, once the file is exhausted.
  bool ReadFileChunk(InodeNo ino, PageIdx next_page, uint64_t size,
                     uint32_t chunk_pages, IoClass io_class,
                     std::function<void(const FsIoResult&, uint64_t count)> done);

  // ---- Durable cursor ----
  // The persisted cursor, if it has exactly `words` words.
  std::optional<std::vector<uint64_t>> LoadCursor(size_t words) const;
  void SaveCursor(const std::vector<uint64_t>& words);

  // ---- Task-layer trace events and their tasks.<name>.* counters ----
  void ChunkStarted(uint64_t start, uint64_t count) {
    Emit(obs::TraceKind::kChunkStarted, start, count);
  }
  void ChunkFinished(uint64_t start, uint64_t count) {
    chunks_->Add();
    Emit(obs::TraceKind::kChunkFinished, start, count);
  }
  // One repair round: `repaired` blocks rewritten, `unrecoverable` left bad.
  void Repairs(uint64_t repaired, uint64_t unrecoverable) {
    repairs_->Add(repaired);
    Emit(obs::TraceKind::kRepair, repaired, unrecoverable);
  }
  void EmitFinished() {
    finished_->Add();
    Emit(obs::TraceKind::kTaskFinished, stats_.work_done);
  }

  SimTime now() { return fs_->loop().now(); }
  EventLoop& loop() { return fs_->loop(); }

  FileSystem* const fs_;
  DuetCore* const duet_;
  const bool use_duet_;
  SessionId sid_ = kInvalidSession;
  TaskStats stats_;
  // File tasks: the baseline processing order, the next position in it,
  // and (Duet mode) the inodes ranked by their pages in memory.
  std::vector<InodeNo> worklist_;
  size_t worklist_pos_ = 0;
  std::unique_ptr<InodePriorityQueue> hot_;

 private:
  void PollTick();
  void Emit(obs::TraceKind kind, uint64_t b = 0, uint64_t c = 0) {
    obs_->trace.Emit(now(), obs::TraceLayer::kTask, kind, tag_, b, c);
  }

  obs::ObsContext* const obs_;
  const uint64_t tag_;
  obs::Counter* const started_;
  obs::Counter* const finished_;
  obs::Counter* const chunks_;
  obs::Counter* const repairs_;
  obs::Counter* const retries_;
  obs::Counter* const fetch_calls_;
  const std::string cursor_key_;
  const SimDuration poll_period_;
  DurableImage* cursor_image_ = nullptr;
  bool running_ = false;
  uint64_t epoch_ = 0;  // one per Start(); see Guard()
  EventId poll_event_ = kInvalidEvent;
  std::function<void()> on_finish_;
};

}  // namespace duet

#endif  // SRC_TASKS_MAINTENANCE_TASK_H_
