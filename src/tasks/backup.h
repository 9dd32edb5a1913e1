// Snapshot-based backup (paper §5.2), modeled on the Btrfs backup tool: a
// read-only snapshot is taken at start, and files are streamed to backup
// storage in inode order, each file read fully before the next.
//
// Opportunistic mode registers a Duet block task for Exists state
// notifications. Each reported block is translated through back references
// to its (file, page); if the page is clean in the cache and still shares
// its block with the snapshot (i.e. unmodified since), it is copied to the
// backup stream out of order, saving the read.
//
// Crash resume persists {snapshot id, last fully-streamed inode} after every
// file. A Start() after a crash and remount reuses the persisted snapshot
// (snapshots are part of the committed superblock) and skips files already
// streamed; the file in flight at the crash is re-streamed. Without a
// surviving snapshot it starts afresh.
#ifndef SRC_TASKS_BACKUP_H_
#define SRC_TASKS_BACKUP_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/cowfs/cowfs.h"
#include "src/tasks/maintenance_task.h"

namespace duet {

struct BackupConfig {
  bool use_duet = false;
  uint32_t chunk_pages = 16;  // 64 KiB reads, as the paper's tool issues
};

class Backup : public MaintenanceTask {
 public:
  Backup(CowFs* fs, DuetCore* duet, BackupConfig config);
  ~Backup() override { Stop(); }

  bool resumed() const { return resumed_; }
  // Pages skipped on resume because a previous run already streamed them.
  uint64_t resumed_pages() const { return resumed_pages_; }
  // Bytes "sent" to backup storage (both in-order and opportunistic).
  uint64_t bytes_sent() const { return pages_sent_ * kPageSize; }
  // Test hook: every page of the snapshot was sent exactly once.
  bool AllPagesSentOnce() const;

 private:
  void OnStart() override;
  void OnStop() override;  // drops the run's snapshot
  // Everything may have been copied opportunistically.
  bool WorkDone() override { return pages_sent_ >= stats_.work_total; }
  void OnDuetItem(const DuetItem& item) override;
  void ProcessFile(InodeNo ino, bool) override { StreamChunk(ino, 0); }

  // Builds the sent-page maps and the inode-order worklist of files after
  // `resume_after`, then starts streaming.
  void BeginStreaming(InodeNo resume_after);
  void StreamChunk(InodeNo ino, PageIdx next_page);
  // Records a page as sent; returns false if it was sent before.
  bool MarkSent(InodeNo ino, PageIdx idx);

  CowFs* const cow_;
  const BackupConfig config_;
  SnapshotId snapshot_ = 0;
  const CowFs::Snapshot* snap_ = nullptr;  // snapshot_ while streaming
  bool resumed_ = false;
  uint64_t resumed_pages_ = 0;
  uint64_t pages_sent_ = 0;
  // Per file: bitmap of sent pages (tracked outside Duet so completion can
  // be verified independently of the hint layer).
  std::map<InodeNo, std::vector<bool>> sent_;
};

}  // namespace duet

#endif  // SRC_TASKS_BACKUP_H_
