// File-system scrubber (paper §5.1), modeled on the Btrfs scrubber: reads
// every allocated block sequentially and verifies it against its checksum.
//
// Opportunistic mode registers a Duet block task for Added ∨ Dirtied:
//  * Added  — the page was just read through the file system, and cowfs
//    verifies checksums on every read, so the block is marked scrubbed;
//  * Dirtied — the block's content changed; its (new) block must be
//    re-verified, so the done bit is cleared.
// The sequential scan then skips blocks already marked done, which is where
// the I/O savings come from. Crash resume persists the scan cursor after
// every chunk, so a pass interrupted by a crash resumes where it stopped.
#ifndef SRC_TASKS_SCRUBBER_H_
#define SRC_TASKS_SCRUBBER_H_

#include <cstdint>

#include "src/cowfs/cowfs.h"
#include "src/tasks/maintenance_task.h"

namespace duet {

struct ScrubberConfig {
  bool use_duet = false;
  uint32_t chunk_blocks = 256;  // blocks per scan request (1 MiB)
  // Transient chunk failures (device busy / latency spike) are retried with
  // exponential backoff this many times before the chunk is skipped.
  uint32_t max_retries = 3;
};

class Scrubber : public MaintenanceTask {
 public:
  Scrubber(CowFs* fs, DuetCore* duet, ScrubberConfig config);
  ~Scrubber() override { Stop(); }

  // Cursor the current pass started from (nonzero only when resumed).
  BlockNo resume_start() const { return resume_start_; }
  uint64_t checksum_errors() const { return checksum_errors_; }
  uint64_t read_errors() const { return read_errors_; }
  uint64_t blocks_repaired() const { return blocks_repaired_; }
  uint64_t blocks_unrecoverable() const { return blocks_unrecoverable_; }
  uint64_t transient_retries() const { return transient_retries_; }

 private:
  void OnStart() override;
  void OnStop() override { FinalizeAccounting(); }
  void OnFinish() override;
  // The whole device may have been verified by other parties' reads.
  bool WorkDone() override { return duet_->DoneCount(sid_) >= stats_.work_total; }
  void OnDuetItem(const DuetItem& item) override;

  void ProcessNextChunk();
  void OnChunkRead(BlockNo start, uint32_t count, const RawReadResult& result);
  // Derives saved/completed work from the done bitmap (Duet mode).
  void FinalizeAccounting();

  CowFs* const cow_;
  const ScrubberConfig config_;
  BlockNo cursor_ = 0;  // next block of the pass
  BlockNo resume_start_ = 0;
  uint32_t chunk_retry_ = 0;  // consecutive transient retries of this chunk
  uint64_t checksum_errors_ = 0;
  uint64_t read_errors_ = 0;
  uint64_t blocks_repaired_ = 0;
  uint64_t blocks_unrecoverable_ = 0;
  uint64_t transient_retries_ = 0;
};

}  // namespace duet

#endif  // SRC_TASKS_SCRUBBER_H_
