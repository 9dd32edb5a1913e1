// Incremental backup: the paper's §1 motivating example — "a block modified
// by the workload can be used by an incremental backup task, avoiding an
// additional read".
//
// The task copies to backup storage every block modified since a previous
// snapshot (epoch). Baseline: at the end of the backup window it diffs the
// current snapshot against the base snapshot and reads every changed block
// from disk. Opportunistic mode subscribes to Modified state notifications:
// when the workload dirties a block, the task copies the page straight from
// memory (after it is flushed, so the backup matches on-disk state), before
// it can be evicted — turning the end-of-window read pass into a trickle of
// free copies.
#ifndef SRC_TASKS_INCREMENTAL_BACKUP_H_
#define SRC_TASKS_INCREMENTAL_BACKUP_H_

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cowfs/cowfs.h"
#include "src/tasks/maintenance_task.h"

namespace duet {

struct IncrementalBackupConfig {
  bool use_duet = false;
};

class IncrementalBackup : public MaintenanceTask {
 public:
  IncrementalBackup(CowFs* fs, DuetCore* duet, IncrementalBackupConfig config);
  ~IncrementalBackup() override { Stop(); }

  // Starts a run: takes the *base* snapshot; changes after this instant
  // belong to the increment. The previous epoch's snapshots are released.
  void BeginEpoch() { Start(); }
  // Ends the epoch: takes the end snapshot, then copies every page whose
  // content differs from the base snapshot (reading from disk whatever was
  // not already captured opportunistically). `on_finish` fires when the
  // increment is fully captured.
  void EndEpoch(std::function<void()> on_finish = nullptr);

  uint64_t pages_captured() const { return captured_.size(); }
  // Test hook: true if every page that differs between the base and end
  // snapshots was captured with its end-snapshot content.
  bool IncrementComplete() const;

 private:
  void OnStart() override;
  void OnStop() override;  // drops the epoch's snapshots
  void OnDuetItem(const DuetItem& item) override;

  // Calls `fn` for every page whose block differs between the base and end
  // snapshots, in (inode, page) order, until it returns false; returns
  // whether every call returned true.
  bool ForEachChangedPage(
      const std::function<bool(const FilePage&, BlockNo)>& fn) const;
  // Whether `key` was captured with the content of `block`.
  bool Captured(const FilePage& key, BlockNo block) const;
  void ProcessDiff();  // end-of-epoch catch-up pass

  CowFs* const cow_;
  SnapshotId base_snapshot_ = 0;
  SnapshotId end_snapshot_ = 0;
  // Captured increment: page -> content token at capture time.
  std::unordered_map<FilePage, uint64_t, FilePageHash> captured_;
  // Diff worklist for the catch-up pass.
  std::vector<std::pair<FilePage, BlockNo>> pending_reads_;
  size_t pending_cursor_ = 0;
  uint32_t batch_retry_ = 0;  // consecutive transient retries of this batch
};

}  // namespace duet

#endif  // SRC_TASKS_INCREMENTAL_BACKUP_H_
