#include "src/tasks/virus_scanner.h"

namespace duet {
namespace {

constexpr IoClass kIoClass = IoClass::kIdle;  // background scan
constexpr uint32_t kChunkPages = 32;          // 128 KiB scan buffers

}  // namespace

VirusScanner::VirusScanner(FileSystem* fs, DuetCore* duet, VirusScannerConfig config)
    : MaintenanceTask(fs, duet, config.use_duet, "virus_scan", TaskTag::kVirusScan),
      config_(std::move(config)) {}

void VirusScanner::OnStart() {
  files_scanned_ = 0;
  infected_.clear();
  ListFiles(config_.root, 1);  // scans are read-only
  if (use_duet_) {
    RegisterFileSession(config_.root, kDuetPageExists,
                        [](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
    SchedulePoll();
  }
  ProcessNextFile();
}

void VirusScanner::ProcessFile(InodeNo ino, bool opportunistic) {
  MarkDone(ino);
  const Inode* inode = fs_->ns().Get(ino);  // accepted files exist
  if (opportunistic) {
    stats_.opportunistic_units += inode->PageCount();
  }
  ScanChunk(ino, 0, inode->size);
}

void VirusScanner::ScanChunk(InodeNo ino, PageIdx next_page, uint64_t size) {
  bool issued = ReadFileChunk(
      ino, next_page, size, kChunkPages, kIoClass,
      [this, ino, next_page, size](const FsIoResult&, uint64_t count) {
        ChunkFinished(ino, count);
        // Match each page's content against the signature set.
        for (PageIdx q = next_page; q < next_page + count; ++q) {
          Result<uint64_t> content = fs_->PageContent(ino, q);
          if (content.ok() && signatures_.count(*content) > 0 &&
              (infected_.empty() || infected_.back() != ino)) {
            infected_.push_back(ino);
          }
        }
        ScanChunk(ino, next_page + count, size);
      });
  if (!issued) {
    ++files_scanned_;
    ScheduleNextFile();
  }
}

}  // namespace duet
