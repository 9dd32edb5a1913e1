#include "src/tasks/rsync_task.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace duet {
namespace {

// Rsync runs at normal priority (§6.2), competing with the workload.
constexpr IoClass kIoClass = IoClass::kBestEffort;
// Rsync processes files in 32 KiB chunks (§5.6).
constexpr uint32_t kChunkPages = 8;

}  // namespace

RsyncTask::RsyncTask(FileSystem* src, FileSystem* dst, DuetCore* duet,
                     RsyncConfig config)
    : MaintenanceTask(src, duet, config.hints == RsyncHints::kDuet, "rsync",
                      TaskTag::kRsync),
      dst_(dst),
      config_(std::move(config)) {
  assert(dst_ != nullptr);
}

void RsyncTask::OnStart() {
  synced_.clear();
  recent_.clear();
  files_synced_ = 0;
  ListFiles(config_.source_dir, 2);  // read + write
  if (config_.hints == RsyncHints::kDuet) {
    // Priority: absolute number of pages in memory (§5.5).
    RegisterFileSession(config_.source_dir, kDuetPageExists,
                        [](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
  } else if (config_.hints == RsyncHints::kInotify) {
    // One watch per directory, recursively — the setup cost Duet avoids
    // with a single registration (§3.3).
    inotify_ = std::make_unique<Inotify>(fs_);
    Result<uint64_t> created = inotify_->AddWatchRecursive(
        *fs_->ns().Resolve(config_.source_dir), kInAccess | kInModify);
    watches_created_ = created.ok() ? *created : 0;
  }
  ProcessNextFile();
}

std::optional<InodeNo> RsyncTask::NextHot() {
  if (config_.hints != RsyncHints::kInotify) {
    return MaintenanceTask::NextHot();
  }
  // File-level hints only: most-recently-touched first, with no idea how
  // much of the file is still cached (or whether it was evicted).
  for (const InotifyEvent& event : inotify_->ReadEvents(kFetchBatch)) {
    recent_.push_back(event.ino);
  }
  while (!recent_.empty()) {
    InodeNo hot = recent_.back();
    recent_.pop_back();
    if (AcceptListed(hot)) {
      return hot;
    }
  }
  return std::nullopt;
}

std::string RsyncTask::DestPath(InodeNo src_ino) const {
  // Source paths are absolute, so the part below the source root starts
  // with a slash.
  std::string rel = *fs_->ns().PathOf(src_ino);
  std::string base = *fs_->ns().PathOf(*fs_->ns().Resolve(config_.source_dir));
  if (base != "/") {
    rel = rel.substr(base.size());
  }
  std::string dest = config_.dest_dir;
  if (!dest.empty() && dest.back() == '/') {
    dest.pop_back();
  }
  return dest + rel;
}

void RsyncTask::ProcessFile(InodeNo src_ino, bool opportunistic) {
  synced_.insert(src_ino);
  const Inode* inode = fs_->ns().Get(src_ino);  // accepted files exist
  // Sender transmits the file metadata; receiver creates the file (and any
  // missing parent directories).
  std::string dst_path = DestPath(src_ino);
  auto parts = SplitPath(dst_path);
  std::string prefix;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    prefix += '/';
    prefix += parts[i];
    (void)dst_->Mkdir(prefix);  // kExists is fine
  }
  Result<InodeNo> dst_ino = dst_->ns().Resolve(dst_path);
  if (!dst_ino.ok()) {
    dst_ino = dst_->CreateFile(dst_path);
  }
  if (!dst_ino.ok()) {
    ScheduleNextFile();
    return;
  }
  if (opportunistic) {
    stats_.opportunistic_units += 2 * inode->PageCount();
  }
  CopyChunk(src_ino, *dst_ino, 0, inode->size);
}

void RsyncTask::CopyChunk(InodeNo src_ino, InodeNo dst_ino, PageIdx next_page,
                          uint64_t src_size) {
  if (use_duet_) {
    DrainDuetEvents();  // keep the queue fresh while a large file streams
  }
  bool issued = ReadFileChunk(
      src_ino, next_page, src_size, kChunkPages, kIoClass,
      [this, src_ino, dst_ino, next_page, src_size](const FsIoResult&, uint64_t count) {
        // Receiver writes the chunk contents to the destination.
        std::vector<uint64_t> tokens;
        tokens.reserve(count);
        for (PageIdx q = next_page; q < next_page + count; ++q) {
          Result<uint64_t> content = fs_->PageContent(src_ino, q);
          tokens.push_back(content.ok() ? *content : 0);
        }
        ByteOff off = next_page * kPageSize;
        uint64_t len = std::min<uint64_t>(count * kPageSize, src_size - off);
        dst_->CopyIn(dst_ino, off, len, std::move(tokens), kIoClass,
                     Guard([this, src_ino, dst_ino, next_page, count,
                            src_size](const FsIoResult& write) {
                       stats_.io_write_pages += write.pages_requested;
                       stats_.work_done += write.pages_requested;
                       ChunkFinished(src_ino, count);
                       CopyChunk(src_ino, dst_ino, next_page + count, src_size);
                     }));
      });
  if (!issued) {
    ++files_synced_;
    ScheduleNextFile();
  }
}

bool RsyncTask::DestinationMatchesSource() const {
  Result<InodeNo> root = fs_->ns().Resolve(config_.source_dir);
  bool match = root.ok();
  if (match) {
    fs_->ns().WalkDepthFirst(*root, [&](const Inode& inode) {
      if (inode.is_dir()) {
        return true;
      }
      Result<InodeNo> dst = dst_->ns().Resolve(DestPath(inode.ino));
      match = dst.ok() && dst_->ns().Get(*dst)->size == inode.size;
      for (PageIdx p = 0; match && p < inode.PageCount(); ++p) {
        Result<uint64_t> want = fs_->PageContent(inode.ino, p);
        Result<uint64_t> got = dst_->PageContent(*dst, p);
        match = want.ok() && got.ok() && *want == *got;
      }
      return match;
    });
  }
  return match;
}

}  // namespace duet
