// Shared file-system machinery for the two concrete file systems (cowfs,
// logfs): namespace, page cache, async read/write paths over the simulated
// block device, and writeback. Two mechanisms every maintenance task rests
// on live here and nowhere else: the per-block CRC32C, verified by
// VerifyBlock whenever a block is read from the device, and request
// formation, where SubmitRuns turns blocks into one device request per run
// of consecutive blocks. The recovery protocol (Checkpoint, Mount,
// CheckConsistency) is also written once, here. Concrete file systems supply
// block placement (COW vs log-structured), each reader's per-block policy,
// and their own metadata through four recovery hooks.
//
// All data callbacks are delivered through the event loop (never inline), so
// task state machines cannot recurse unboundedly on all-cached reads.
#ifndef SRC_FS_FILE_SYSTEM_H_
#define SRC_FS_FILE_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/block/block_device.h"
#include "src/cache/page_cache.h"
#include "src/cache/writeback.h"
#include "src/fs/namespace.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace duet {

class FaultInjector;
class ByteReader;
class ByteWriter;

// Outcome of an asynchronous file-system operation. The per-source page
// counts let maintenance tasks account I/O performed vs I/O saved.
struct FsIoResult {
  Status status;
  uint64_t pages_requested = 0;
  uint64_t pages_from_cache = 0;  // served without device I/O
  uint64_t pages_from_disk = 0;
  uint64_t pages_failed = 0;      // device read failed or checksum mismatch
  uint64_t device_ops = 0;        // requests submitted to the device
};

using FsIoCallback = std::function<void(const FsIoResult&)>;

// Outcome of a mount-time recovery (FileSystem::Mount).
struct MountReport {
  Status status;
  uint64_t generation = 0;       // checkpoint/superblock generation loaded
  uint64_t blocks_restored = 0;  // blocks reloaded from the durable image
  uint64_t blocks_replayed = 0;  // log records rolled forward (logfs)
  uint64_t blocks_discarded = 0; // torn or orphaned records discarded
  uint64_t blocks_missing = 0;   // referenced by metadata, absent from image
  uint64_t files = 0;            // regular files recovered
  uint64_t meta_bytes = 0;       // checkpoint payload size read
  SimDuration duration = 0;      // virtual time the mount took
};

// Outcome of an fsck-style full consistency check (CheckConsistency).
struct FsckReport {
  uint64_t blocks_checked = 0;
  uint64_t structural_errors = 0;  // refcount/bitmap/extent-map disagreements
  uint64_t checksum_errors = 0;    // stored CRC32C does not match content
  BlockNo first_bad_block = kInvalidBlock;

  bool clean() const { return structural_errors == 0 && checksum_errors == 0; }
  void NoteBad(BlockNo block) {
    if (first_bad_block == kInvalidBlock) {
      first_bad_block = block;
    }
  }
};

// Outcome of a raw block-level read (no page-cache involvement).
struct RawReadResult {
  Status status;
  uint64_t blocks_read = 0;
  uint64_t checksum_errors = 0;
  uint64_t read_errors = 0;  // device-level failures (latent sector errors)
  uint64_t device_ops = 0;
  // Blocks that failed verification or could not be read, ascending; the
  // scrubber's repair path consumes this.
  std::vector<BlockNo> bad_blocks;
};

class FileSystem : public WritebackTarget {
 public:
  // `checkpoint_key` names the file system's two checkpoint slots in the
  // durable image's metadata area.
  FileSystem(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
             WritebackParams wb_params, std::string checkpoint_key);
  ~FileSystem() override = default;

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // ---- Components ----
  Namespace& ns() { return ns_; }
  const Namespace& ns() const { return ns_; }
  PageCache& cache() { return cache_; }
  const PageCache& cache() const { return cache_; }
  BlockDevice& device() { return *device_; }
  EventLoop& loop() { return *loop_; }
  Writeback& writeback() { return writeback_; }

  // ---- Namespace convenience ----
  Result<InodeNo> CreateFile(std::string_view path) {
    return ns_.Create(path, FileType::kRegular);
  }
  Result<InodeNo> Mkdir(std::string_view path) {
    return ns_.Create(path, FileType::kDirectory);
  }
  // Unlinks a regular file: drops its cache pages, frees its blocks.
  Status DeleteFile(InodeNo ino);

  // ---- Data path (asynchronous; callbacks via the event loop) ----

  // Reads [off, off+len) of `ino`. Cached pages are free; misses are mapped
  // to blocks, coalesced into contiguous runs, and submitted at `io_class`.
  void Read(InodeNo ino, ByteOff off, uint64_t len, IoClass io_class, FsIoCallback cb);

  // Writes [off, off+len): allocates (COW / log-append) a new block per
  // page, installs dirty pages in the cache, extends the file if needed.
  // Completes without device I/O; writeback flushes later.
  void Write(InodeNo ino, ByteOff off, uint64_t len, IoClass io_class, FsIoCallback cb);

  // Appends `len` bytes at EOF.
  void Append(InodeNo ino, uint64_t len, IoClass io_class, FsIoCallback cb);

  // Like Write, but installs the given page contents instead of generating
  // fresh tokens (one token per page of the range). Used by copy tasks
  // (rsync's receiver) so destination content equals the source.
  void CopyIn(InodeNo ino, ByteOff off, uint64_t len, std::vector<uint64_t> tokens,
              IoClass io_class, FsIoCallback cb);

  // Reads an explicit list of device blocks, bypassing the page cache.
  // Consecutive block numbers are coalesced into single requests, and every
  // block read is checked by VerifyBlock. Used by tasks that must read data
  // with no live page, e.g. preserved snapshot blocks.
  void ReadBlocks(std::vector<BlockNo> blocks, IoClass io_class,
                  std::function<void(const RawReadResult&)> cb);

  // ---- Mapping (the FIBMAP ioctl the paper relies on, §4.2) ----
  // Returns the device block currently backing page `idx` of `ino`.
  // Inline: block-task hook dispatch translates every page event through
  // Bmap, making this one of the hottest lookups in the stack.
  Result<BlockNo> Bmap(InodeNo ino, PageIdx idx) const {
    auto it = fmap_.find(ino);
    if (it == fmap_.end() || idx >= it->second.blocks.size() ||
        it->second.blocks[idx] == kInvalidBlock) {
      return Status(StatusCode::kNotFound, "unmapped page");
    }
    return it->second.blocks[idx];
  }

  // Reverse mapping (back references): the file page currently stored in
  // `block`, if any. Used to surface block-level reads as page events and by
  // the logfs cleaner.
  struct BlockOwner {
    InodeNo ino = kInvalidInode;
    PageIdx idx = 0;
  };
  Result<BlockOwner> Rmap(BlockNo block) const;

  // ---- Setup-time population (no I/O, no virtual time) ----
  // Creates the file's data instantly: allocates blocks, writes tokens and
  // metadata directly to the simulated disk. Returns the inode.
  Result<InodeNo> PopulateFile(std::string_view path, uint64_t bytes) {
    return Populate(path, bytes, 0, nullptr);
  }

  // Population with deliberate fragmentation, where the file system supports
  // it (cowfs: after each page, the allocation cursor jumps with probability
  // `break_prob`); logfs ignores `break_prob` and appends to its log.
  Result<InodeNo> PopulateFileAged(std::string_view path, uint64_t bytes,
                                   double break_prob, Rng& rng) {
    return Populate(path, bytes, break_prob, &rng);
  }

  // ---- Crash consistency (durability boundary & recovery) ----

  // Wires the durable image (owned by the harness, so it survives stack
  // teardown) to this stack: the device commits its volatile write set into
  // it on every completed Flush(), pulling content through a provider backed
  // by this file system's simulated platter. Call before any I/O.
  void AttachDurableImage(DurableImage* image);
  DurableImage* durable_image() const { return image_; }

  // fsync-style barrier: flushes every dirty page, then issues a device
  // Flush(). When `done` fires, all data written before the call is in the
  // durable image (it survives a crash).
  void Sync(std::function<void()> done);

  // Setup-time seeding: commits every in-use block into the durable image
  // instantly (populate writes bypass the device, so the image never saw
  // them). Call after population, before the run starts.
  void SnapshotToDurable();

  // Commits a recovery point: Sync(), then serialize the namespace, the
  // extent maps and SerializeMeta's part into the next generation (two-slot,
  // CRC-protected; cowfs calls it a superblock, logfs a checkpoint), written
  // after MetaIoLatency. Requires quiesced foreground writes between the
  // internal Sync and the metadata write — the transaction-commit stall of a
  // real COW/log file system — and an attached durable image.
  void Checkpoint(std::function<void()> done);

  // Mount-time recovery: loads the newest valid generation, restores the
  // namespace and extent maps, then RestoreMeta's part; charges
  // MetaIoLatency and reads back the blocks RestoreMeta names. Must be
  // called on a freshly constructed file system (empty namespace).
  void Mount(std::function<void(const MountReport&)> cb);

  // fsck: every live file page mapped to an in-use block the reverse map
  // agrees with, no extent map without its file, CheckMeta's checks, the
  // CRC32C of every in-use block, and the in-use count. Pure in-memory check
  // (no modeled I/O); run it right after Mount to audit the recovered state.
  FsckReport CheckConsistency() const;

  // ---- Checksums ----
  // Per-block CRC32C over the stored token, updated on every flush.
  static uint32_t TokenChecksum(uint64_t token);
  // Verifies the on-disk copy of `block` against its stored checksum.
  bool BlockChecksumOk(BlockNo block) const {
    return disk_csum_[block] == TokenChecksum(disk_data_[block]);
  }
  // Mismatches VerifyBlock has found.
  uint64_t checksum_errors_detected() const { return checksum_errors_detected_; }

  // ---- Fault injection ----
  // Wires a fault injector to this stack: the device consults it on every
  // request, its corruption sink flips this file system's on-disk content,
  // and its target filter skips blocks not in use. Call before
  // FaultInjector::Start(). Passing nullptr detaches.
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  // ---- Introspection ----
  uint64_t allocated_blocks() const { return allocated_blocks_; }
  uint64_t capacity_blocks() const { return disk_data_.size(); }
  // Token currently stored on disk for `block` (tests, verification).
  uint64_t DiskToken(BlockNo block) const { return disk_data_[block]; }
  // Current in-memory-or-disk content of a file page (cache wins).
  Result<uint64_t> PageContent(InodeNo ino, PageIdx idx) const;

  // WritebackTarget:
  void WritebackPages(std::vector<PageCache::DirtyPageRef> pages,
                      std::function<void()> done) override;

 protected:
  // ---- Placement hooks implemented by cowfs / logfs ----

  // Allocates the block that will back (ino, idx), given the previous block
  // (kInvalidBlock for a fresh page). Must update internal maps so Bmap
  // reflects the new location; must release/invalidate `old_block`.
  virtual Result<BlockNo> AllocateForWrite(InodeNo ino, PageIdx idx,
                                           BlockNo old_block) = 0;

  // Frees every block of the file (unlink path).
  virtual void FreeFileBlocks(InodeNo ino) = 0;

  // Setup-time population of pages [0, npages) of the fresh file `ino`:
  // allocates a block per page and writes a fresh token straight to "disk".
  // `rng` is null for plain population and is never drawn from then. The
  // default allocates page by page through AllocateForWrite and ignores
  // `break_prob`.
  virtual Status PopulatePages(InodeNo ino, uint64_t npages, double break_prob,
                               Rng* rng);

  // Called when writeback has persisted `token` into `block`: stores the
  // token and its checksum. cowfs also updates its DUP mirror.
  virtual void OnBlockFlushed(BlockNo block, uint64_t token);

  // Corruption sink for the fault injector (and the CorruptBlock test
  // hooks): flips the on-disk content of `block` without touching any stored
  // checksum. cowfs extends it to optionally corrupt the DUP mirror too.
  virtual void InjectCorruption(BlockNo block, bool both_copies);

  // True if `block` currently holds live data (fault targeting filter, and
  // only in-use blocks are checksum-verified).
  virtual bool BlockInUse(BlockNo block) const = 0;

  // Checks a block just read from the device. An in-use block whose stored
  // checksum does not match its content is counted, reported to the fault
  // injector, and fails with kCorruption; a block not in use passes.
  Status VerifyBlock(BlockNo block);

  // Submits `*items` (callers sort them by block) in order, one device
  // request per run of consecutive blocks: items i and i+1 share a request
  // when block_of(items[i+1]) == block_of(items[i]) + 1. Each completion calls
  // on_run(io, run) with that request's items, and on_all() runs straight
  // after the last completion. Returns the number of requests; with no
  // items nothing is submitted and neither callback runs.
  template <typename Item, typename BlockOf, typename OnRun, typename OnAll>
  uint64_t SubmitRuns(std::shared_ptr<std::vector<Item>> items, BlockOf block_of,
                      IoDir dir, IoClass io_class, OnRun on_run, OnAll on_all);

  // The checkpoint payload's shared head: the namespace (inode table) and
  // the forward extent map, in deterministic (inode-sorted) order.
  void SerializeNamespaceAndMaps(ByteWriter* w) const;

  // ---- Recovery hooks implemented by cowfs / logfs ----

  // Appends the file system's own checkpoint metadata; the namespace and
  // extent maps precede it in the payload.
  virtual void SerializeMeta(ByteWriter* w) const = 0;

  // Runs once a checkpoint is durable: drops the pins recovery no longer
  // needs.
  virtual void OnCheckpointCommitted() = 0;

  // Reads SerializeMeta's part back (the namespace and extent maps are
  // installed) and rebuilds block-level state and content from the durable
  // image. Blocks appended to `read_back` are read through the device
  // before the mount completes. Returns kCorruption on a malformed payload.
  virtual Status RestoreMeta(ByteReader* r, MountReport* report,
                             std::vector<BlockNo>* read_back) = 0;

  // The file system's own fsck checks (refcounts, bitmaps, segment table).
  virtual void CheckMeta(FsckReport* report) const = 0;

  // Forward/reverse map storage shared by both file systems.
  struct FileMap {
    std::vector<BlockNo> blocks;  // page index -> block
  };
  std::unordered_map<InodeNo, FileMap> fmap_;
  std::vector<BlockOwner> rmap_;     // block -> owner page
  std::vector<uint64_t> disk_data_;  // block -> stored token
  // block -> CRC32C of the token last flushed there. It may disagree with
  // disk_data_: that is how torn writes and bit rot are detected.
  std::vector<uint32_t> disk_csum_;
  uint64_t allocated_blocks_ = 0;

  // Fresh unique content token.
  uint64_t NextToken() { return token_counter_ += 0x9e3779b97f4a7c15ULL; }

  // Installs a page->block mapping (and the reverse map).
  void SetMapping(InodeNo ino, PageIdx idx, BlockNo block);
  void ClearOwner(BlockNo block);

  EventLoop* loop_;
  BlockDevice* device_;
  PageCache cache_;
  Namespace ns_;
  Writeback writeback_;
  FaultInjector* injector_ = nullptr;
  DurableImage* image_ = nullptr;

 private:
  struct ReadJob;
  void FinishViaLoop(FsIoCallback cb, FsIoResult result);
  Result<InodeNo> Populate(std::string_view path, uint64_t bytes, double break_prob,
                           Rng* rng);

  // Inverse of SerializeNamespaceAndMaps; installs inodes and page->block
  // mappings (which also rebuilds the reverse map). Returns false on a
  // malformed payload.
  bool RestoreNamespaceAndMaps(ByteReader* r, uint64_t* files_out);
  // fsck piece: every page of every live file must be mapped (no holes),
  // its block in use, and the reverse map must agree.
  void CheckFileMappings(FsckReport* report) const;

  const std::string checkpoint_key_;
  uint64_t generation_ = 0;  // last committed or mounted checkpoint
  uint64_t token_counter_ = 1;
  uint64_t checksum_errors_detected_ = 0;
};

template <typename Item, typename BlockOf, typename OnRun, typename OnAll>
uint64_t FileSystem::SubmitRuns(std::shared_ptr<std::vector<Item>> items,
                                BlockOf block_of, IoDir dir, IoClass io_class,
                                OnRun on_run, OnAll on_all) {
  const std::vector<Item>& v = *items;
  auto run_end = [&v, &block_of](size_t i) {
    size_t j = i + 1;
    while (j < v.size() && block_of(v[j]) == block_of(v[j - 1]) + 1) {
      ++j;
    }
    return j;
  };
  uint64_t runs = 0;
  for (size_t i = 0; i < v.size(); i = run_end(i)) {
    ++runs;
  }
  if (runs == 0) {
    return 0;
  }
  // Shared by the requests; the last completion calls on_all.
  struct Job {
    std::shared_ptr<std::vector<Item>> items;
    OnRun on_run;
    OnAll on_all;
    uint64_t outstanding;
  };
  auto job = std::make_shared<Job>(
      Job{std::move(items), std::move(on_run), std::move(on_all), runs});
  for (size_t i = 0; i < v.size();) {
    size_t j = run_end(i);
    IoRequest req;
    req.block = block_of(v[i]);
    req.count = static_cast<uint32_t>(j - i);
    req.dir = dir;
    req.io_class = io_class;
    req.done = [job, i, j](const IoResult& io) {
      job->on_run(io, std::span<const Item>(job->items->data() + i, j - i));
      if (--job->outstanding == 0) {
        job->on_all();
      }
    };
    device_->Submit(std::move(req));
    i = j;
  }
  return runs;
}

}  // namespace duet

#endif  // SRC_FS_FILE_SYSTEM_H_
