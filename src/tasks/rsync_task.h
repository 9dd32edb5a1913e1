// Rsync-style directory synchronization (paper §5.5): copies a source
// directory tree to a destination file system (a separate device), as when
// rsync runs locally between two disks. The sender walks the source tree
// depth-first; the generator/receiver side checksums existing destination
// files and writes updated data. With an initially empty destination, every
// file is read once at the source and written once at the destination.
//
// Opportunistic mode registers a Duet file task for Exists notifications and
// prioritizes files with the most pages in memory (Algorithm 1). File
// metadata is sent exactly once, whether a file is processed in DFS order or
// out of order. Unlike the in-kernel tasks, rsync runs at *normal* I/O
// priority (§6.2), so it competes with the foreground workload.
#ifndef SRC_TASKS_RSYNC_TASK_H_
#define SRC_TASKS_RSYNC_TASK_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "src/duet/inotify.h"
#include "src/tasks/maintenance_task.h"

namespace duet {

// Hint source for opportunistic processing (§3.3 compares Duet's page-level
// hints with Inotify's file-level ones).
enum class RsyncHints { kNone, kDuet, kInotify };

struct RsyncConfig {
  RsyncHints hints = RsyncHints::kNone;
  std::string source_dir = "/";
  std::string dest_dir = "/";
};

class RsyncTask : public MaintenanceTask {
 public:
  // Source and destination are distinct file systems on distinct devices.
  // `duet` may be null unless the hints are kDuet.
  RsyncTask(FileSystem* src, FileSystem* dst, DuetCore* duet, RsyncConfig config);
  ~RsyncTask() override { Stop(); }

  uint64_t files_synced() const { return files_synced_; }
  // Inotify mode: number of per-directory watches that had to be created.
  uint64_t watches_created() const { return watches_created_; }

  // Verifies every source file exists at the destination with identical
  // content (test hook; call after the destination has been synced).
  bool DestinationMatchesSource() const;

 private:
  void OnStart() override;
  std::optional<InodeNo> NextHot() override;
  // Metadata goes out exactly once, so files already synced are skipped, as
  // are files deleted since the walk. The path lookup is the truth for a
  // Duet hint (§3.2): it fails once the file's pages are gone.
  bool AcceptHot(InodeNo ino) override {
    return synced_.count(ino) == 0 && duet_->GetPath(sid_, ino).ok();
  }
  bool AcceptListed(InodeNo ino) override {
    return synced_.count(ino) == 0 && fs_->ns().Exists(ino);
  }
  // Sends the file's metadata, then its contents chunk by chunk.
  void ProcessFile(InodeNo src_ino, bool opportunistic) override;
  void CopyChunk(InodeNo src_ino, InodeNo dst_ino, PageIdx next_page,
                 uint64_t src_size);
  // Destination path of a source file (same path relative to the roots).
  std::string DestPath(InodeNo src_ino) const;

  // The source file system is fs_.
  FileSystem* const dst_;
  const RsyncConfig config_;
  std::unordered_set<InodeNo> synced_;  // metadata sent exactly once
  // Inotify mode: recency list of files with recent activity (no page
  // counts, no eviction knowledge — the information gap vs Duet).
  std::unique_ptr<Inotify> inotify_;
  std::deque<InodeNo> recent_;
  uint64_t watches_created_ = 0;
  uint64_t files_synced_ = 0;
};

}  // namespace duet

#endif  // SRC_TASKS_RSYNC_TASK_H_
