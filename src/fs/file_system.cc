#include "src/fs/file_system.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/fs/meta_codec.h"
#include "src/obs/obs.h"
#include "src/util/crc32c.h"

namespace duet {

FileSystem::FileSystem(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
                       WritebackParams wb_params, std::string checkpoint_key)
    : loop_(loop),
      device_(device),
      cache_(cache_pages, [loop] { return loop->now(); }),
      writeback_(loop, &cache_, this, wb_params),
      checkpoint_key_(std::move(checkpoint_key)) {
  assert(loop_ != nullptr && device_ != nullptr);
  disk_data_.assign(device_->capacity_blocks(), 0);
  // A fresh device holds token 0 everywhere; checksums must agree, or every
  // allocated-but-never-flushed block would read as corrupt.
  disk_csum_.assign(device_->capacity_blocks(), TokenChecksum(0));
  rmap_.assign(device_->capacity_blocks(), BlockOwner{});
  writeback_.Start();
}

uint32_t FileSystem::TokenChecksum(uint64_t token) {
  return Crc32c(&token, sizeof(token));
}

Status FileSystem::VerifyBlock(BlockNo block) {
  if (BlockInUse(block) && !BlockChecksumOk(block)) {
    ++checksum_errors_detected_;
    if (injector_ != nullptr) {
      injector_->NoteCorruptionDetected(block);
    }
    return Status(StatusCode::kCorruption, "checksum mismatch");
  }
  return Status::Ok();
}

void FileSystem::OnBlockFlushed(BlockNo block, uint64_t token) {
  disk_data_[block] = token;
  disk_csum_[block] = TokenChecksum(token);
}

void FileSystem::InjectCorruption(BlockNo block, bool /*both_copies*/) {
  disk_data_[block] ^= 0xdeadbeefcafef00dULL;
  // The durable image models the same platter: rot that hits a committed
  // block must survive a crash and remount too.
  if (image_ != nullptr && image_->Present(block)) {
    image_->CorruptToken(block);
  }
}

void FileSystem::AttachFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  device_->SetFaultInjector(injector);
  if (injector != nullptr) {
    injector->SetCorruptionSink(
        [this](BlockNo block, bool both) { InjectCorruption(block, both); });
    injector->SetTargetFilter([this](BlockNo block) { return BlockInUse(block); });
  }
}

void FileSystem::AttachDurableImage(DurableImage* image) {
  image_ = image;
  device_->SetDurableImage(image);
  if (image != nullptr) {
    device_->SetDurableContentProvider([this](BlockNo block) {
      DurableContent content;
      content.token = disk_data_[block];
      content.csum = disk_csum_[block];
      content.ino = rmap_[block].ino;
      content.idx = rmap_[block].idx;
      content.in_use = BlockInUse(block);
      return content;
    });
  }
}

void FileSystem::Sync(std::function<void()> done) {
  writeback_.Sync([this, done = std::move(done)]() mutable {
    device_->Flush(IoClass::kBestEffort,
                   [done = std::move(done)](const IoResult&) { done(); });
  });
}

void FileSystem::SnapshotToDurable() {
  if (image_ == nullptr) {
    return;
  }
  for (BlockNo b = 0; b < capacity_blocks(); ++b) {
    if (BlockInUse(b)) {
      image_->Commit(b, disk_data_[b], disk_csum_[b], rmap_[b].ino, rmap_[b].idx);
    }
  }
}

void FileSystem::Checkpoint(std::function<void()> done) {
  assert(image_ != nullptr && "attach a durable image before checkpointing");
  Sync([this, done = std::move(done)]() mutable {
    // Quiesced commit: with no foreground writes racing the sync, the cache
    // is clean at the barrier, so the payload references only durably
    // committed blocks.
    assert(cache_.DirtyCount() == 0 && "quiesce writes during checkpoint");
    ByteWriter w;
    SerializeNamespaceAndMaps(&w);
    SerializeMeta(&w);
    std::vector<uint8_t> payload = w.Take();
    uint64_t generation = generation_ + 1;
    SimDuration latency = MetaIoLatency(payload.size());
    // The checkpoint area is written FUA at the end of the modeled latency;
    // a crash inside the window simply leaves the previous generation (and
    // the image's PutMeta is a no-op once frozen anyway).
    loop_->ScheduleAfter(latency, [this, payload = std::move(payload), generation,
                                   done = std::move(done)]() mutable {
      CommitCheckpointSlot(image_, checkpoint_key_, generation, payload);
      generation_ = generation;
      OnCheckpointCommitted();
      obs::CurrentObs()->trace.Emit(loop_->now(), obs::TraceLayer::kFs,
                                    obs::TraceKind::kCheckpointCommit, generation,
                                    payload.size(), image_->commit_seq());
      done();
    });
  });
}

void FileSystem::Mount(std::function<void(const MountReport&)> cb) {
  assert(image_ != nullptr && "attach a durable image before mounting");
  assert(ns_.inode_count() == 1 && fmap_.empty() &&
         "mount requires a freshly constructed file system");
  SimTime started = loop_->now();
  auto report = std::make_shared<MountReport>();
  std::optional<LoadedCheckpoint> loaded = LoadNewestCheckpoint(*image_, checkpoint_key_);
  auto read_back = std::make_shared<std::vector<BlockNo>>();
  if (!loaded.has_value()) {
    report->status = Status(StatusCode::kNotFound, "no committed checkpoint");
  } else {
    report->generation = loaded->generation;
    report->meta_bytes = loaded->payload.size();
    ByteReader r(loaded->payload);
    report->status = RestoreNamespaceAndMaps(&r, &report->files)
                         ? RestoreMeta(&r, report.get(), read_back.get())
                         : Status(StatusCode::kCorruption, "bad checkpoint namespace");
  }
  if (!report->status.ok()) {
    loop_->ScheduleAfter(0, [cb = std::move(cb), report] { cb(*report); });
    return;
  }
  generation_ = loaded->generation;
  auto finish = [this, report, cb = std::move(cb), started] {
    report->duration = loop_->now() - started;
    obs::CurrentObs()->trace.Emit(loop_->now(), obs::TraceLayer::kFs,
                                  obs::TraceKind::kMountRecovered,
                                  report->generation, report->blocks_restored,
                                  report->blocks_discarded);
    cb(*report);
  };
  // Model the recovery I/O: read the checkpoint area, then whatever blocks
  // RestoreMeta asked to read back (logfs's replayed log tail, so its
  // recovery latency scales with the post-checkpoint work the crash left).
  loop_->ScheduleAfter(MetaIoLatency(loaded->payload.size()),
                       [this, read_back, finish = std::move(finish)]() mutable {
    if (read_back->empty()) {
      finish();
      return;
    }
    ReadBlocks(*read_back, IoClass::kBestEffort,
               [finish = std::move(finish)](const RawReadResult&) { finish(); });
  });
}

FsckReport FileSystem::CheckConsistency() const {
  FsckReport report;
  CheckFileMappings(&report);
  for (const auto& [ino, map] : fmap_) {
    const Inode* inode = ns_.Get(ino);
    if (inode == nullptr || inode->is_dir()) {
      ++report.structural_errors;  // extent map for a nonexistent file
    }
  }
  CheckMeta(&report);
  for (BlockNo b = 0; b < capacity_blocks(); ++b) {
    if (!BlockInUse(b)) {
      continue;
    }
    ++report.blocks_checked;
    if (!BlockChecksumOk(b)) {
      ++report.checksum_errors;
      report.NoteBad(b);
    }
  }
  if (report.blocks_checked != allocated_blocks_) {
    ++report.structural_errors;
  }
  obs::CurrentObs()->trace.Emit(loop_->now(), obs::TraceLayer::kFs,
                                obs::TraceKind::kFsckRan,
                                report.structural_errors, report.checksum_errors,
                                report.blocks_checked);
  return report;
}

void FileSystem::SerializeNamespaceAndMaps(ByteWriter* w) const {
  std::vector<const Inode*> inodes;
  ns_.ForEachInode([&inodes](const Inode& inode) { inodes.push_back(&inode); });
  std::sort(inodes.begin(), inodes.end(),
            [](const Inode* a, const Inode* b) { return a->ino < b->ino; });
  w->U64(ns_.max_ino());
  w->U64(inodes.size());
  for (const Inode* inode : inodes) {
    w->U64(inode->ino);
    w->U8(inode->is_dir() ? 1 : 0);
    w->U64(inode->size);
    w->U64(inode->parent);
    w->Str(inode->name);
  }
  std::vector<std::pair<InodeNo, const FileMap*>> maps;
  maps.reserve(fmap_.size());
  for (const auto& [ino, map] : fmap_) {
    maps.emplace_back(ino, &map);
  }
  std::sort(maps.begin(), maps.end());
  w->U64(maps.size());
  for (const auto& [ino, map] : maps) {
    w->U64(ino);
    w->U64(map->blocks.size());
    for (BlockNo block : map->blocks) {
      w->U64(block);
    }
  }
}

bool FileSystem::RestoreNamespaceAndMaps(ByteReader* r, uint64_t* files_out) {
  InodeNo next_ino = r->U64();
  uint64_t inode_count = r->U64();
  uint64_t files = 0;
  for (uint64_t k = 0; k < inode_count && r->ok(); ++k) {
    InodeNo ino = r->U64();
    FileType type = r->U8() != 0 ? FileType::kDirectory : FileType::kRegular;
    uint64_t size = r->U64();
    InodeNo parent = r->U64();
    std::string name = r->Str();
    if (!r->ok()) {
      return false;
    }
    ns_.RestoreInode(ino, type, size, parent, std::move(name));
    if (type == FileType::kRegular) {
      ++files;
    }
  }
  if (!r->ok()) {
    return false;
  }
  if (!ns_.RestoreLinks(next_ino).ok()) {
    return false;
  }
  uint64_t map_count = r->U64();
  for (uint64_t k = 0; k < map_count && r->ok(); ++k) {
    InodeNo ino = r->U64();
    uint64_t nblocks = r->U64();
    for (PageIdx idx = 0; idx < nblocks; ++idx) {
      BlockNo block = r->U64();
      if (!r->ok() || (block != kInvalidBlock && block >= capacity_blocks())) {
        return false;
      }
      SetMapping(ino, idx, block);
    }
  }
  if (!r->ok()) {
    return false;
  }
  if (files_out != nullptr) {
    *files_out = files;
  }
  return true;
}

void FileSystem::CheckFileMappings(FsckReport* report) const {
  ns_.ForEachInode([this, report](const Inode& inode) {
    if (inode.is_dir()) {
      return;
    }
    // The walk is bounded by the extent map, not by the size: a restored
    // size is untrusted and may claim far more pages than the map holds.
    auto it = fmap_.find(inode.ino);
    uint64_t mapped = it == fmap_.end() ? 0 : it->second.blocks.size();
    if (mapped < inode.PageCount()) {
      ++report->structural_errors;  // the file extends past its extent map
    }
    for (PageIdx p = 0; p < std::min(mapped, inode.PageCount()); ++p) {
      BlockNo block = it->second.blocks[p];
      if (block == kInvalidBlock) {
        ++report->structural_errors;  // hole inside a live file
        continue;
      }
      if (!BlockInUse(block) || rmap_[block].ino != inode.ino ||
          rmap_[block].idx != p) {
        ++report->structural_errors;
        report->NoteBad(block);
      }
    }
  });
}

void FileSystem::SetMapping(InodeNo ino, PageIdx idx, BlockNo block) {
  FileMap& map = fmap_[ino];
  if (map.blocks.size() <= idx) {
    map.blocks.resize(idx + 1, kInvalidBlock);
  }
  map.blocks[idx] = block;
  if (block != kInvalidBlock) {
    rmap_[block] = BlockOwner{ino, idx};
  }
}

void FileSystem::ClearOwner(BlockNo block) {
  if (block != kInvalidBlock) {
    rmap_[block] = BlockOwner{};
    if (injector_ != nullptr) {
      // A freed block's fault can no longer serve corrupt data to a reader.
      injector_->OnBlockFreed(block);
    }
  }
}

Result<FileSystem::BlockOwner> FileSystem::Rmap(BlockNo block) const {
  if (block >= rmap_.size() || rmap_[block].ino == kInvalidInode) {
    return Status(StatusCode::kNotFound, "unowned block");
  }
  return rmap_[block];
}

Result<uint64_t> FileSystem::PageContent(InodeNo ino, PageIdx idx) const {
  if (const CachedPage* page = cache_.Peek(ino, idx)) {
    return page->data;
  }
  Result<BlockNo> block = Bmap(ino, idx);
  if (!block.ok()) {
    return block.status();
  }
  return disk_data_[*block];
}

Status FileSystem::DeleteFile(InodeNo ino) {
  const Inode* inode = ns_.Get(ino);
  if (inode == nullptr) {
    return Status(StatusCode::kNotFound);
  }
  if (inode->is_dir()) {
    return Status(StatusCode::kInvalidArgument, "is a directory");
  }
  cache_.RemoveInode(ino);
  FreeFileBlocks(ino);
  fmap_.erase(ino);
  return ns_.Unlink(ino);
}

void FileSystem::FinishViaLoop(FsIoCallback cb, FsIoResult result) {
  if (!cb) {
    return;
  }
  loop_->ScheduleAfter(0, [cb = std::move(cb), result = std::move(result)] { cb(result); });
}

// Shared context for a multi-request read.
struct FileSystem::ReadJob {
  struct Miss {
    BlockNo block;
    PageIdx idx;
  };
  std::vector<Miss> misses;  // uncached pages, in block order once sorted
  FsIoResult result;
  FsIoCallback cb;
};

void FileSystem::Read(InodeNo ino, ByteOff off, uint64_t len, IoClass io_class,
                      FsIoCallback cb) {
  const Inode* inode = ns_.Get(ino);
  FsIoResult result;
  if (inode == nullptr || inode->is_dir()) {
    result.status = Status(StatusCode::kNotFound, "bad inode for read");
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  if (off >= inode->size || len == 0) {
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  len = std::min(len, inode->size - off);
  PageIdx first = off / kPageSize;
  PageIdx last = (off + len + kPageSize - 1) / kPageSize;  // exclusive

  // Classify pages: cache hits are free, misses become block reads.
  using Miss = ReadJob::Miss;
  auto job = std::make_shared<ReadJob>();
  job->cb = std::move(cb);
  job->result.pages_requested = last - first;
  for (PageIdx p = first; p < last; ++p) {
    if (cache_.Lookup(ino, p).has_value()) {
      ++job->result.pages_from_cache;
      continue;
    }
    Result<BlockNo> block = Bmap(ino, p);
    if (!block.ok()) {
      job->result.status = Status(StatusCode::kCorruption, "hole in file");
      FinishViaLoop(std::move(job->cb), std::move(job->result));
      return;
    }
    job->misses.push_back(Miss{*block, p});
  }
  if (job->misses.empty()) {
    FinishViaLoop(std::move(job->cb), std::move(job->result));
    return;
  }

  // Coalesce block-contiguous misses into device requests.
  std::sort(job->misses.begin(), job->misses.end(),
            [](const Miss& a, const Miss& b) { return a.block < b.block; });
  job->result.device_ops = SubmitRuns(
      std::shared_ptr<std::vector<Miss>>(job, &job->misses),
      [](const Miss& m) { return m.block; }, IoDir::kRead, io_class,
      [this, ino, job](const IoResult& io, std::span<const Miss> run) {
        bool whole_request_failed = !io.status.ok() && io.failed_blocks.empty();
        for (const Miss& m : run) {
          // A write may have raced this read: if the page gained a cache
          // entry while the read was in flight, that entry is newer than the
          // disk content the read carries. The fill must not clobber it (a
          // dirty entry holds data the disk has never seen), and a read
          // failure must not evict it.
          const CachedPage* raced = cache_.Peek(ino, m.idx);
          // No data transferred for the page, or corrupt content: neither
          // may enter the page cache, and a clean stale copy is invalidated
          // so the cache cannot mask the failure.
          Status status = whole_request_failed || io.BlockFailed(m.block)
                              ? io.status
                              : VerifyBlock(m.block);
          if (!status.ok()) {
            ++job->result.pages_failed;
            if (raced == nullptr || !raced->dirty) {
              cache_.Remove(ino, m.idx);
            }
            if (job->result.status.ok()) {
              job->result.status = std::move(status);
            }
            continue;
          }
          ++job->result.pages_from_disk;
          if (raced == nullptr) {
            cache_.Insert(ino, m.idx, disk_data_[m.block], /*dirty=*/false);
          }
        }
      },
      // Already async (device completion), deliver directly.
      [job] {
        if (job->cb) {
          job->cb(job->result);
        }
      });
}

void FileSystem::Write(InodeNo ino, ByteOff off, uint64_t len, IoClass io_class,
                       FsIoCallback cb) {
  CopyIn(ino, off, len, {}, io_class, std::move(cb));
}

void FileSystem::CopyIn(InodeNo ino, ByteOff off, uint64_t len,
                        std::vector<uint64_t> tokens, IoClass /*io_class*/,
                        FsIoCallback cb) {
  Inode* inode = ns_.GetMutable(ino);
  FsIoResult result;
  if (inode == nullptr || inode->is_dir()) {
    result.status = Status(StatusCode::kNotFound, "bad inode for write");
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  if (len == 0) {
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  PageIdx first = off / kPageSize;
  PageIdx last = (off + len + kPageSize - 1) / kPageSize;  // exclusive
  assert(tokens.empty() || tokens.size() >= last - first);
  result.pages_requested = last - first;
  for (PageIdx p = first; p < last; ++p) {
    BlockNo old_block = kInvalidBlock;
    if (auto mapped = Bmap(ino, p); mapped.ok()) {
      old_block = *mapped;
    }
    Result<BlockNo> fresh = AllocateForWrite(ino, p, old_block);
    if (!fresh.ok()) {
      result.status = fresh.status();
      break;
    }
    uint64_t token = tokens.empty() ? NextToken() : tokens[p - first];
    if (!cache_.MarkDirty(ino, p, token)) {
      cache_.Insert(ino, p, token, /*dirty=*/true);
    }
  }
  if (result.status.ok()) {
    inode->size = std::max(inode->size, off + len);
  }
  writeback_.MaybeKick();
  FinishViaLoop(std::move(cb), std::move(result));
}

void FileSystem::Append(InodeNo ino, uint64_t len, IoClass io_class, FsIoCallback cb) {
  const Inode* inode = ns_.Get(ino);
  if (inode == nullptr) {
    FsIoResult result;
    result.status = Status(StatusCode::kNotFound);
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  Write(ino, inode->size, len, io_class, std::move(cb));
}

void FileSystem::ReadBlocks(std::vector<BlockNo> blocks, IoClass io_class,
                            std::function<void(const RawReadResult&)> cb) {
  auto result = std::make_shared<RawReadResult>();
  if (blocks.empty()) {
    loop_->ScheduleAfter(0, [cb = std::move(cb), result] { cb(*result); });
    return;
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  result->device_ops = SubmitRuns(
      std::make_shared<std::vector<BlockNo>>(std::move(blocks)),
      [](BlockNo b) { return b; }, IoDir::kRead, io_class,
      [this, result](const IoResult& io, std::span<const BlockNo> run) {
        bool whole_request_failed = !io.status.ok() && io.failed_blocks.empty();
        for (BlockNo b : run) {
          if (whole_request_failed || io.BlockFailed(b)) {
            ++result->read_errors;
            result->bad_blocks.push_back(b);
            result->status = io.status;
            continue;
          }
          ++result->blocks_read;
          Status verify = VerifyBlock(b);
          if (!verify.ok()) {
            ++result->checksum_errors;
            result->bad_blocks.push_back(b);
            result->status = verify;
          }
        }
      },
      [result, cb = std::move(cb)] {
        // Requests may complete out of submission order.
        std::sort(result->bad_blocks.begin(), result->bad_blocks.end());
        cb(*result);
      });
}

void FileSystem::WritebackPages(std::vector<PageCache::DirtyPageRef> pages,
                                std::function<void()> done) {
  // Re-resolve current mappings and tokens: a page may have been re-written
  // (new COW/log location) since it was collected.
  struct Flush {
    BlockNo block;
    InodeNo ino;
    PageIdx idx;
    uint64_t token;
  };
  auto flushes = std::make_shared<std::vector<Flush>>();
  flushes->reserve(pages.size());
  for (const auto& ref : pages) {
    const CachedPage* page = cache_.Peek(ref.ino, ref.idx);
    if (page == nullptr || !page->dirty) {
      continue;  // already gone or cleaned
    }
    Result<BlockNo> block = Bmap(ref.ino, ref.idx);
    if (!block.ok()) {
      continue;  // file deleted under us
    }
    flushes->push_back(Flush{*block, ref.ino, ref.idx, page->data});
  }
  if (flushes->empty()) {
    loop_->ScheduleAfter(0, std::move(done));
    return;
  }
  std::sort(flushes->begin(), flushes->end(),
            [](const Flush& a, const Flush& b) { return a.block < b.block; });
  SubmitRuns(
      std::move(flushes),
      [](const Flush& f) { return f.block; }, IoDir::kWrite,
      // Flusher I/O is driven by foreground writes; it competes best-effort.
      IoClass::kBestEffort,
      [this](const IoResult&, std::span<const Flush> run) {
        for (const Flush& f : run) {
          OnBlockFlushed(f.block, f.token);
          const CachedPage* page = cache_.Peek(f.ino, f.idx);
          // Only clean the page if it was not re-dirtied with new content
          // while the write was in flight.
          if (page != nullptr && page->dirty && page->data == f.token) {
            cache_.MarkClean(f.ino, f.idx);
          }
        }
      },
      [done = std::move(done)] {
        if (done) {
          done();
        }
      });
}

Result<InodeNo> FileSystem::Populate(std::string_view path, uint64_t bytes,
                                     double break_prob, Rng* rng) {
  Result<InodeNo> created = ns_.Create(path, FileType::kRegular);
  if (!created.ok()) {
    return created;
  }
  InodeNo ino = *created;
  Status populated = PopulatePages(ino, PagesForBytes(bytes), break_prob, rng);
  if (!populated.ok()) {
    return populated;
  }
  ns_.GetMutable(ino)->size = bytes;
  return ino;
}

Status FileSystem::PopulatePages(InodeNo ino, uint64_t npages, double /*break_prob*/,
                                 Rng* /*rng*/) {
  for (PageIdx p = 0; p < npages; ++p) {
    Result<BlockNo> block = AllocateForWrite(ino, p, kInvalidBlock);
    if (!block.ok()) {
      return block.status();
    }
    OnBlockFlushed(*block, NextToken());  // content goes straight to "disk"
  }
  return Status::Ok();
}

}  // namespace duet
