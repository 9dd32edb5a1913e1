#include "src/tasks/incremental_backup.h"

#include <algorithm>
#include <cassert>

namespace duet {
namespace {

constexpr IoClass kIoClass = IoClass::kIdle;
constexpr uint32_t kChunkPages = 16;
// Transiently failed batch reads are retried with backoff this often.
constexpr uint32_t kMaxRetries = 3;

}  // namespace

IncrementalBackup::IncrementalBackup(CowFs* fs, DuetCore* duet,
                                     IncrementalBackupConfig config)
    : MaintenanceTask(fs, duet, config.use_duet, "inc_backup", TaskTag::kIncBackup),
      cow_(fs) {}

void IncrementalBackup::OnStart() {
  OnStop();  // the previous epoch's snapshots
  captured_.clear();
  batch_retry_ = 0;
  cow_->CreateSnapshotAsync(Guard([this](Result<SnapshotId> snap) {
    assert(snap.ok());
    base_snapshot_ = *snap;
    if (use_duet_) {
      // Modified-state notifications: an item arrives when a page's dirty
      // status changes; ¬Modified (Flushed polarity) means the cached page
      // now matches the on-disk block — safe to capture.
      RegisterBlockSession(kDuetPageModified);
      SchedulePoll();
    }
  }));
}

void IncrementalBackup::OnStop() {
  for (SnapshotId* snap : {&base_snapshot_, &end_snapshot_}) {
    if (*snap != 0) {
      (void)cow_->DeleteSnapshot(*snap);
      *snap = 0;
    }
  }
}

void IncrementalBackup::OnDuetItem(const DuetItem& item) {
  if (!item.has(kDuetPageFlushed)) {
    return;  // page became dirty: content still in flux
  }
  Result<FileSystem::BlockOwner> owner = cow_->Rmap(item.id);
  if (!owner.ok()) {
    return;
  }
  const CachedPage* page = cow_->cache().Peek(owner->ino, owner->idx);
  if (page == nullptr || page->dirty) {
    return;  // hint went stale
  }
  // Copy the just-flushed content from memory — the read the paper's §1
  // example saves.
  captured_[FilePage{owner->ino, owner->idx}] = page->data;
  ++stats_.opportunistic_units;
}

void IncrementalBackup::EndEpoch(std::function<void()> on_finish) {
  assert(running());
  set_on_finish(std::move(on_finish));
  // Flush everything so the end snapshot and the captured pages agree with
  // the on-disk state, then cut the snapshot and catch up on the diff.
  cow_->CreateSnapshotAsync(Guard([this](Result<SnapshotId> snap) {
    assert(snap.ok());
    end_snapshot_ = *snap;
    if (sid_ != kInvalidSession) {
      DrainDuetEvents();  // final flush events from the sync above
      CancelPoll();
      ReleaseSession();
    }
    // Build the diff worklist; pages captured from memory are reads saved.
    pending_reads_.clear();
    pending_cursor_ = 0;
    ForEachChangedPage([this](const FilePage& key, BlockNo end_block) {
      ++stats_.work_total;
      if (Captured(key, end_block)) {
        ++stats_.saved_read_pages;
        ++stats_.work_done;
      } else {
        pending_reads_.emplace_back(key, end_block);
      }
      return true;
    });
    ProcessDiff();
  }));
}

bool IncrementalBackup::Captured(const FilePage& key, BlockNo block) const {
  auto captured = captured_.find(key);
  return captured != captured_.end() && captured->second == cow_->DiskToken(block);
}

bool IncrementalBackup::ForEachChangedPage(
    const std::function<bool(const FilePage&, BlockNo)>& fn) const {
  const CowFs::Snapshot* base = cow_->GetSnapshot(base_snapshot_);
  const CowFs::Snapshot* end = cow_->GetSnapshot(end_snapshot_);
  for (const auto& [ino, end_file] : end->files) {
    auto base_file = base->files.find(ino);
    for (PageIdx p = 0; p < end_file.blocks.size(); ++p) {
      BlockNo end_block = end_file.blocks[p];
      bool changed = base_file == base->files.end() ||
                     p >= base_file->second.blocks.size() ||
                     base_file->second.blocks[p] != end_block;
      if (end_block != kInvalidBlock && changed && !fn(FilePage{ino, p}, end_block)) {
        return false;
      }
    }
  }
  return true;
}

void IncrementalBackup::ProcessDiff() {
  if (pending_cursor_ >= pending_reads_.size()) {
    Finish();
    return;
  }
  size_t first = pending_cursor_;
  size_t end = std::min<size_t>(pending_reads_.size(), first + kChunkPages);
  std::vector<BlockNo> blocks;
  for (size_t i = first; i < end; ++i) {
    blocks.push_back(pending_reads_[i].second);
  }
  pending_cursor_ = end;
  ChunkStarted(first, end - first);
  cow_->ReadBlocks(std::move(blocks), kIoClass,
                   Guard([this, first, end](const RawReadResult& result) {
                     stats_.io_read_pages += result.blocks_read;
                     if (IsTransient(result.status) &&
                         RetryLater(&batch_retry_, kMaxRetries, first,
                                    [this] { ProcessDiff(); })) {
                       pending_cursor_ = first;  // device busy window
                       return;
                     }
                     batch_retry_ = 0;
                     ChunkFinished(first, end - first);
                     const std::vector<BlockNo>& bad = result.bad_blocks;
                     for (size_t i = first; i < end; ++i) {
                       // Blocks that failed to read or verify are not
                       // captured; the next increment retries them.
                       const auto& [key, block] = pending_reads_[i];
                       if (!std::binary_search(bad.begin(), bad.end(), block)) {
                         captured_[key] = cow_->DiskToken(block);
                         ++stats_.work_done;
                       }
                     }
                     ProcessDiff();
                   }));
}

bool IncrementalBackup::IncrementComplete() const {
  if (cow_->GetSnapshot(base_snapshot_) == nullptr ||
      cow_->GetSnapshot(end_snapshot_) == nullptr) {
    return false;
  }
  return ForEachChangedPage(
      [this](const FilePage& key, BlockNo end_block) { return Captured(key, end_block); });
}

}  // namespace duet
