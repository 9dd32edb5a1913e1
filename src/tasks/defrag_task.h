// Whole-file-system defragmentation task (paper §5.3), modeled on the
// in-kernel Btrfs defragmenter the authors built: walks files in inode-number
// order and rewrites fragmented files into contiguous extents.
//
// Opportunistic mode registers a Duet file task for Exists notifications and
// keeps a priority queue of files ordered by the fraction of their pages in
// memory (Algorithm 1); queued files are defragmented first, saving their
// cached reads, and pages already dirtied by the workload count as saved
// writes (they would have been written back anyway).
#ifndef SRC_TASKS_DEFRAG_TASK_H_
#define SRC_TASKS_DEFRAG_TASK_H_

#include <cstdint>

#include "src/cowfs/cowfs.h"
#include "src/tasks/maintenance_task.h"

namespace duet {

struct DefragConfig {
  bool use_duet = false;
};

class DefragTask : public MaintenanceTask {
 public:
  DefragTask(CowFs* fs, DuetCore* duet, DefragConfig config);
  ~DefragTask() override { Stop(); }

  uint64_t files_defragmented() const { return files_defragmented_; }

 private:
  void OnStart() override;
  // Files not yet processed that are still fragmented.
  bool AcceptHot(InodeNo ino) override;
  bool AcceptListed(InodeNo ino) override;
  // Defragments `ino` then continues with the next file.
  void ProcessFile(InodeNo ino, bool opportunistic) override;

  CowFs* const cow_;
  uint64_t files_defragmented_ = 0;
};

}  // namespace duet

#endif  // SRC_TASKS_DEFRAG_TASK_H_
