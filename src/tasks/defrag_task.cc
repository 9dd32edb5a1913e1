#include "src/tasks/defrag_task.h"

#include <algorithm>

namespace duet {
namespace {

constexpr IoClass kIoClass = IoClass::kIdle;
// Only files with more than this many extents are rewritten.
constexpr uint64_t kExtentThreshold = 3;
// The whole file system is defragmented.
constexpr const char* kRoot = "/";

}  // namespace

DefragTask::DefragTask(CowFs* fs, DuetCore* duet, DefragConfig config)
    : MaintenanceTask(fs, duet, config.use_duet, "defrag", TaskTag::kDefrag),
      cow_(fs) {}

void DefragTask::OnStart() {
  files_defragmented_ = 0;
  // Fragmented files in inode order are the baseline order (Table 3). Work
  // units are pages: each file costs a read and a write of all its pages.
  ListFiles(kRoot, 2, [this](const Inode& inode) {
    return cow_->ExtentCount(inode.ino) > kExtentThreshold;
  });
  std::sort(worklist_.begin(), worklist_.end());
  if (use_duet_) {
    // Priority: fraction of the file's pages in memory relative to its size
    // (§5.3).
    RegisterFileSession(kRoot, kDuetPageExists, [this](InodeNo ino, uint64_t pages) {
      const Inode* inode = fs_->ns().Get(ino);
      if (inode == nullptr || inode->PageCount() == 0) {
        return 0.0;
      }
      return static_cast<double>(pages) / static_cast<double>(inode->PageCount());
    });
  }
  ProcessNextFile();
}

bool DefragTask::AcceptHot(InodeNo ino) {
  // A COW overwrite may have defragmented (or deleted) the file meanwhile —
  // the task can simply skip it (§3.1).
  return !IsDone(ino) && fs_->ns().Exists(ino) &&
         cow_->ExtentCount(ino) > kExtentThreshold;
}

bool DefragTask::AcceptListed(InodeNo ino) {
  if (AcceptHot(ino)) {
    return true;
  }
  // Unless processed (and credited) opportunistically, the file was
  // defragmented by a COW overwrite or deleted by the workload: the
  // obligation is discharged without I/O.
  if (!IsDone(ino)) {
    const Inode* inode = fs_->ns().Get(ino);
    stats_.work_done += 2 * (inode != nullptr ? inode->PageCount() : 0);
  }
  return false;
}

void DefragTask::ProcessFile(InodeNo ino, bool opportunistic) {
  ChunkStarted(ino, 0);
  cow_->DefragFile(ino, kIoClass, Guard([this, ino, opportunistic](const DefragResult& result) {
    ChunkFinished(ino, result.pages);
    if (result.status.ok()) {
      ++files_defragmented_;
      stats_.work_done += 2 * result.pages;
      stats_.io_read_pages += result.pages_read_disk;
      stats_.io_write_pages += result.pages_written;
      stats_.saved_read_pages += result.pages_from_cache;
      // Pages the workload had already dirtied would have been written back
      // anyway — their writeback is work the system saves (§6.2).
      stats_.saved_write_pages += result.dirty_pages;
      if (opportunistic) {
        stats_.opportunistic_units += 2 * result.pages;
      }
    }
    MarkDone(ino);
    ScheduleNextFile();
  }));
}

}  // namespace duet
