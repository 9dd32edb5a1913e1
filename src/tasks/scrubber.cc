#include "src/tasks/scrubber.h"

#include <algorithm>

namespace duet {
namespace {

constexpr IoClass kIoClass = IoClass::kIdle;
// Minimum run of already-verified blocks worth skipping. Breaking the scan
// at every done block shatters it into tiny requests, and on disk one
// repositioning (~1.7 ms) costs as much as reading ~64 blocks — short
// verified runs are cheaper to read through than to seek around. The value
// sits just under that crossover to bias toward more frequent re-coverage
// of unverified data.
constexpr uint32_t kSkipRunBlocks = 48;
// Scrub reads surface in the page cache so concurrent tasks can use the
// same pass (§6.3: scrub and backup accesses benefit each other).
constexpr bool kPopulateCache = true;

}  // namespace

Scrubber::Scrubber(CowFs* fs, DuetCore* duet, ScrubberConfig config)
    : MaintenanceTask(fs, duet, config.use_duet, "scrub", TaskTag::kScrub),
      cow_(fs),
      config_(config) {}

void Scrubber::OnStart() {
  stats_.work_total = cow_->allocated_blocks();
  chunk_retry_ = 0;
  // Resume an interrupted pass where it left off (btrfs scrub's progress
  // checkpoint). A pass that finished cleanly cleared the cursor.
  std::optional<std::vector<uint64_t>> saved = LoadCursor(1);
  cursor_ = saved.has_value() && (*saved)[0] < cow_->capacity_blocks() ? (*saved)[0] : 0;
  resume_start_ = cursor_;
  if (use_duet_) {
    RegisterBlockSession(kDuetPageAdded | kDuetPageDirtied);
    SchedulePoll();
  }
  ProcessNextChunk();
}

void Scrubber::FinalizeAccounting() {
  if (sid_ == kInvalidSession) {
    return;  // not in Duet mode, or already final (the session is released)
  }
  // Blocks marked done that the scan did not read were verified for free by
  // other parties' reads — the I/O Duet saved. Done bits also measure how
  // much scrubbing work is complete, whether or not the scan pass finished.
  uint64_t done = duet_->DoneCount(sid_);
  uint64_t by_io = stats_.io_read_pages;
  stats_.saved_read_pages = done > by_io ? done - by_io : 0;
  stats_.work_done = std::min(std::max(done, by_io), stats_.work_total);
}

void Scrubber::OnFinish() {
  // Release the poll before the Finished event: trace order is part of the
  // run's fingerprint.
  CancelPoll();
  if (use_duet_) {
    FinalizeAccounting();
  } else {
    stats_.work_done = stats_.io_read_pages;
  }
}

void Scrubber::OnDuetItem(const DuetItem& item) {
  if (item.has(kDuetPageDirtied)) {
    // Content changed: the (possibly relocated) block needs re-verifying.
    (void)duet_->UnsetDone(sid_, item.id);
    return;
  }
  // Added: the read path verified this block's checksum; mark it scrubbed.
  if (item.has(kDuetPageAdded) && !IsDone(item.id)) {
    MarkDone(item.id);
  }
}

void Scrubber::ProcessNextChunk() {
  if (use_duet_) {
    DrainDuetEvents();
  }
  // Find the next block that still needs scrubbing. Blocks already marked
  // done were verified by someone else's read; the scan skips them without
  // I/O (accounted in FinalizeAccounting).
  std::optional<BlockNo> next = cow_->NextAllocated(cursor_);
  while (next.has_value() && IsDone(*next)) {
    next = cow_->NextAllocated(*next + 1);
  }
  if (!next.has_value()) {
    Finish();
    return;
  }
  // Scrub a chunk starting at `next`. Done blocks end the chunk only when a
  // long verified run follows: skipping it saves more transfer time than the
  // repositioning it costs, while short verified runs are read through to
  // keep the scan's requests large and sequential.
  BlockNo start = *next;
  BlockNo end = start;
  while (end - start < config_.chunk_blocks && end < cow_->capacity_blocks()) {
    BlockNo run_end = end;  // end of the verified run starting at `end`
    while (run_end < cow_->capacity_blocks() && run_end - end < kSkipRunBlocks &&
           IsDone(run_end)) {
      ++run_end;
    }
    if (run_end - end >= kSkipRunBlocks) {
      break;
    }
    end = std::max(run_end, end + 1);  // a short verified run, or one block
  }
  uint32_t count = static_cast<uint32_t>(end - start);
  ChunkStarted(start, count);
  cow_->ReadRawBlocks(start, count, kIoClass, kPopulateCache,
                      Guard([this, start, count](const RawReadResult& result) {
                        OnChunkRead(start, count, result);
                      }));
}

void Scrubber::OnChunkRead(BlockNo start, uint32_t count, const RawReadResult& result) {
  stats_.io_read_pages += result.blocks_read;
  if (IsTransient(result.status)) {
    // Transient (busy window): retry the same chunk after a backoff; once
    // the retry budget is exhausted, skip the chunk this pass.
    if (RetryLater(&chunk_retry_, config_.max_retries, start,
                   [this] { ProcessNextChunk(); })) {
      ++transient_retries_;
      return;
    }
    cursor_ = start + count;
    SaveCursor({cursor_});
    ProcessNextChunk();
    return;
  }
  chunk_retry_ = 0;
  checksum_errors_ += result.checksum_errors;
  read_errors_ += result.read_errors;
  stats_.work_done += result.blocks_read;
  cursor_ = start + count;
  SaveCursor({cursor_});
  ChunkFinished(start, count);
  auto resume = Guard([this, start, count] {
    if (use_duet_) {
      // Mark verified blocks so events for them are muted.
      for (BlockNo v = start; v < start + count; ++v) {
        if (cow_->IsAllocated(v)) {
          MarkDone(v);
        }
      }
    }
    ProcessNextChunk();
  });
  if (!result.bad_blocks.empty()) {
    // Rewrite each bad block from an intact copy (cached page or DUP
    // mirror); blocks with no intact copy are reported unrecoverable. The repair counts even if the run
    // ended meanwhile: the blocks were rewritten.
    cow_->RepairBlocks(result.bad_blocks, kIoClass,
                       [this, resume](const CowFs::RepairResult& r) {
                         blocks_repaired_ += r.repaired();
                         blocks_unrecoverable_ += r.unrecoverable;
                         Repairs(r.repaired(), r.unrecoverable);
                         stats_.io_read_pages += r.device_reads;
                         stats_.io_write_pages += r.device_writes;
                         resume();
                       });
    return;
  }
  resume();
}

}  // namespace duet
