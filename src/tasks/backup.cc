#include "src/tasks/backup.h"

#include <algorithm>

namespace duet {
namespace {

constexpr IoClass kIoClass = IoClass::kIdle;

}  // namespace

Backup::Backup(CowFs* fs, DuetCore* duet, BackupConfig config)
    : MaintenanceTask(fs, duet, config.use_duet, "backup", TaskTag::kBackup),
      cow_(fs),
      config_(config) {}

void Backup::OnStart() {
  OnStop();  // a finished run's snapshot is released when the next starts
  resumed_ = false;
  resumed_pages_ = 0;
  pages_sent_ = 0;
  sent_.clear();
  if (std::optional<std::vector<uint64_t>> saved = LoadCursor(2);
      saved.has_value() && cow_->GetSnapshot((*saved)[0]) != nullptr) {
    snapshot_ = (*saved)[0];
    resumed_ = true;
    BeginStreaming((*saved)[1]);
    return;
  }
  cow_->CreateSnapshotAsync(Guard([this](Result<SnapshotId> snap) {
    if (!snap.ok()) {
      Stop();
      return;
    }
    snapshot_ = *snap;
    SaveCursor({snapshot_, 0});
    BeginStreaming(0);
  }));
}

void Backup::OnStop() {
  if (snapshot_ != 0) {
    (void)cow_->DeleteSnapshot(snapshot_);
    snapshot_ = 0;
    snap_ = nullptr;
  }
}

void Backup::BeginStreaming(InodeNo resume_after) {
  snap_ = cow_->GetSnapshot(snapshot_);
  for (const auto& [ino, file] : snap_->files) {
    bool already_sent = ino <= resume_after;
    sent_.emplace(ino, std::vector<bool>(file.blocks.size(), already_sent));
    if (already_sent) {
      resumed_pages_ += file.blocks.size();
    } else {
      worklist_.push_back(ino);
      stats_.work_total += file.blocks.size();
    }
  }
  if (use_duet_) {
    RegisterBlockSession(kDuetPageExists);
    SchedulePoll();
  }
  ProcessNextFile();
}

bool Backup::MarkSent(InodeNo ino, PageIdx idx) {
  auto it = sent_.find(ino);
  if (it == sent_.end() || idx >= it->second.size() || it->second[idx]) {
    return false;
  }
  it->second[idx] = true;
  ++pages_sent_;
  return true;
}

void Backup::OnDuetItem(const DuetItem& item) {
  if (!item.has(kDuetPageExists)) {
    return;  // ¬exists notifications are uninteresting here
  }
  Result<FileSystem::BlockOwner> owner = cow_->Rmap(item.id);
  if (!owner.ok()) {
    return;
  }
  auto file = snap_->files.find(owner->ino);
  if (file == snap_->files.end() || owner->idx >= file->second.blocks.size() ||
      file->second.blocks[owner->idx] != item.id) {
    return;  // not part of the snapshot, or modified since
  }
  // "Lock the page, check that it is not dirty, copy it out" (§5.2).
  const CachedPage* page = cow_->cache().Peek(owner->ino, owner->idx);
  if (page == nullptr || page->dirty) {
    return;  // hint went stale or content is in flux — back out
  }
  if (MarkSent(owner->ino, owner->idx)) {
    ++stats_.work_done;
    ++stats_.saved_read_pages;
    ++stats_.opportunistic_units;
    MarkDone(item.id);
  }
}

void Backup::StreamChunk(InodeNo ino, PageIdx next_page) {
  if (use_duet_) {
    DrainDuetEvents();
  }
  const std::vector<BlockNo>& blocks = snap_->files.at(ino).blocks;
  const std::vector<bool>& sent = sent_.at(ino);
  PageIdx p = next_page;
  while (p < blocks.size() && sent[p]) {
    ++p;
  }
  if (p >= blocks.size()) {
    // The in-order stream is past every file up to and including this one;
    // an interrupted run can resume from here.
    SaveCursor({snapshot_, ino});
    ScheduleNextFile();
    return;
  }
  // A run of unsent pages with the same sharing category.
  bool shared = cow_->SharedWithSnapshot(snapshot_, ino, p);
  PageIdx end = p;
  while (end < blocks.size() && !sent[end] && end - p < config_.chunk_pages &&
         cow_->SharedWithSnapshot(snapshot_, ino, end) == shared) {
    ++end;
  }
  ChunkStarted(ino, end - p);
  auto complete = Guard([this, ino, p, end](uint64_t read_pages, uint64_t cached_pages) {
    for (PageIdx q = p; q < end; ++q) {
      if (MarkSent(ino, q)) {
        ++stats_.work_done;
      }
    }
    stats_.io_read_pages += read_pages;
    stats_.saved_read_pages += cached_pages;
    ChunkFinished(ino, end - p);
    StreamChunk(ino, end);
  });
  if (shared) {
    // Unmodified since the snapshot: read through the live file (this
    // populates the page cache — visible to other Duet tasks).
    cow_->Read(ino, p * kPageSize, (end - p) * kPageSize, kIoClass,
               [complete](const FsIoResult& r) {
                 complete(r.pages_from_disk, r.pages_from_cache);
               });
  } else {
    // Modified since the snapshot: stream the preserved old blocks.
    cow_->ReadBlocks(std::vector<BlockNo>(blocks.begin() + static_cast<long>(p),
                                          blocks.begin() + static_cast<long>(end)),
                     kIoClass,
                     [complete](const RawReadResult& r) { complete(r.blocks_read, 0); });
  }
}

bool Backup::AllPagesSentOnce() const {
  return std::all_of(sent_.begin(), sent_.end(), [](const auto& file) {
    return std::find(file.second.begin(), file.second.end(), false) == file.second.end();
  });
}

}  // namespace duet
