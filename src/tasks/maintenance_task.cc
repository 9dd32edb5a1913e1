#include "src/tasks/maintenance_task.h"

#include <algorithm>
#include <cassert>

#include "src/fs/meta_codec.h"

namespace duet {
namespace {

// First transient-retry backoff; doubles per consecutive retry.
constexpr SimDuration kRetryBackoff = Millis(10);

obs::Counter* TaskCounter(obs::ObsContext* obs, std::string_view task,
                          const char* name) {
  return obs->metrics.GetCounter("tasks." + std::string(task) + "." + name);
}

}  // namespace

MaintenanceTask::MaintenanceTask(FileSystem* fs, DuetCore* duet, bool use_duet,
                                 std::string_view name, TaskTag tag,
                                 SimDuration poll_period)
    : fs_(fs),
      duet_(duet),
      use_duet_(use_duet),
      obs_(obs::CurrentObs()),
      tag_(static_cast<uint64_t>(tag)),
      started_(TaskCounter(obs_, name, "started")),
      finished_(TaskCounter(obs_, name, "finished")),
      chunks_(TaskCounter(obs_, name, "chunks")),
      repairs_(TaskCounter(obs_, name, "repairs")),
      retries_(TaskCounter(obs_, name, "retries")),
      fetch_calls_(TaskCounter(obs_, name, "fetch_calls")),
      cursor_key_("cursor." + std::string(name)),
      poll_period_(poll_period) {
  assert(fs_ != nullptr);
  assert(!use_duet_ || duet_ != nullptr);
}

void MaintenanceTask::Start(std::function<void()> on_finish) {
  assert(!running_);
  on_finish_ = std::move(on_finish);
  running_ = true;
  ++epoch_;
  stats_ = TaskStats{};
  stats_.started_at = now();
  worklist_.clear();
  worklist_pos_ = 0;
  hot_.reset();
  started_->Add();
  Emit(obs::TraceKind::kTaskStarted);
  OnStart();
}

void MaintenanceTask::Stop() {
  OnStop();
  running_ = false;
  CancelPoll();
  ReleaseSession();
}

void MaintenanceTask::Finish() {
  if (!running_) {
    return;
  }
  stats_.finished = true;
  stats_.finished_at = now();
  running_ = false;
  OnFinish();
  EmitFinished();
  if (cursor_image_ != nullptr) {
    // Run complete: the next run starts from the beginning again.
    cursor_image_->EraseMeta(cursor_key_);
  }
  CancelPoll();
  ReleaseSession();
  // Moved out first: the callback may start the next run.
  if (std::function<void()> done = std::move(on_finish_)) {
    done();
  }
}

void MaintenanceTask::RegisterBlockSession(uint8_t mask) {
  Result<SessionId> sid = duet_->RegisterBlockTask(mask);
  assert(sid.ok());
  sid_ = *sid;
}

void MaintenanceTask::RegisterFileSession(
    const std::string& dir, uint8_t mask,
    std::function<double(InodeNo, uint64_t)> score) {
  hot_ = std::make_unique<InodePriorityQueue>(std::move(score));
  Result<SessionId> sid = duet_->RegisterFileTask(dir, mask);
  assert(sid.ok());
  sid_ = *sid;
}

void MaintenanceTask::ReleaseSession() {
  if (sid_ != kInvalidSession) {
    (void)duet_->Deregister(sid_);
    sid_ = kInvalidSession;
  }
}

void MaintenanceTask::DrainDuetEvents() {
  fetch_calls_->Add();
  if (hot_ != nullptr) {
    DrainEvents(*duet_, sid_, *hot_, kFetchBatch);
    return;
  }
  DrainEvents(*duet_, sid_, [this](const DuetItem& item) { OnDuetItem(item); },
              kFetchBatch);
}

void MaintenanceTask::CancelPoll() {
  if (poll_event_ != kInvalidEvent) {
    loop().Cancel(poll_event_);
    poll_event_ = kInvalidEvent;
  }
}

bool MaintenanceTask::OnPoll() {
  DrainDuetEvents();
  if (WorkDone()) {
    Finish();
  }
  return true;
}

void MaintenanceTask::PollTick() {
  poll_event_ = kInvalidEvent;
  if (running_ && OnPoll() && running_) {
    SchedulePoll();
  }
}

bool MaintenanceTask::RetryLater(uint32_t* attempt, uint32_t max_retries,
                                 uint64_t start, std::function<void()> again) {
  if (*attempt >= max_retries) {
    *attempt = 0;
    return false;
  }
  SimDuration backoff = kRetryBackoff * (SimDuration{1} << *attempt);
  ++*attempt;
  retries_->Add();
  Emit(obs::TraceKind::kRetry, start, *attempt);
  loop().ScheduleAfter(backoff, Guard(std::move(again)));
  return true;
}

std::optional<InodeNo> MaintenanceTask::NextHot() {
  if (!use_duet_) {
    return std::nullopt;
  }
  DrainDuetEvents();
  while (hot_ != nullptr) {
    std::optional<InodeNo> hot = hot_->Dequeue();
    if (!hot.has_value() || AcceptHot(*hot)) {
      return hot;
    }
  }
  return std::nullopt;
}

void MaintenanceTask::ListFiles(const std::string& dir, uint64_t units_per_page,
                                const std::function<bool(const Inode&)>& keep) {
  Result<InodeNo> root = fs_->ns().Resolve(dir);
  assert(root.ok());
  fs_->ns().WalkDepthFirst(*root, [&](const Inode& inode) {
    if (!inode.is_dir() && (keep == nullptr || keep(inode))) {
      worklist_.push_back(inode.ino);
      stats_.work_total += units_per_page * inode.PageCount();
    }
    return true;
  });
}

void MaintenanceTask::ProcessNextFile() {
  if (std::optional<InodeNo> hot = NextHot()) {
    ProcessFile(*hot, /*opportunistic=*/true);
    return;
  }
  while (worklist_pos_ < worklist_.size()) {
    InodeNo ino = worklist_[worklist_pos_++];
    if (AcceptListed(ino)) {
      ProcessFile(ino, /*opportunistic=*/false);
      return;
    }
  }
  Finish();
}

bool MaintenanceTask::ReadFileChunk(
    InodeNo ino, PageIdx next_page, uint64_t size, uint32_t chunk_pages,
    IoClass io_class, std::function<void(const FsIoResult&, uint64_t count)> done) {
  uint64_t total_pages = PagesForBytes(size);
  if (next_page >= total_pages) {
    return false;
  }
  uint64_t count = std::min<uint64_t>(chunk_pages, total_pages - next_page);
  ByteOff off = next_page * kPageSize;
  uint64_t len = std::min<uint64_t>(count * kPageSize, size - off);
  ChunkStarted(ino, count);
  fs_->Read(ino, off, len, io_class,
            Guard([this, count, done = std::move(done)](const FsIoResult& read) {
              stats_.io_read_pages += read.pages_from_disk;
              stats_.saved_read_pages += read.pages_from_cache;
              stats_.work_done += read.pages_requested;
              done(read, count);
            }));
  return true;
}

std::optional<std::vector<uint64_t>> MaintenanceTask::LoadCursor(size_t words) const {
  if (cursor_image_ == nullptr) {
    return std::nullopt;
  }
  std::optional<std::vector<uint64_t>> saved = GetCursorMeta(*cursor_image_, cursor_key_);
  if (!saved.has_value() || saved->size() != words) {
    return std::nullopt;
  }
  return saved;
}

void MaintenanceTask::SaveCursor(const std::vector<uint64_t>& words) {
  if (cursor_image_ != nullptr) {
    PutCursorMeta(cursor_image_, cursor_key_, words);
  }
}

}  // namespace duet
