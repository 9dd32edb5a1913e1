// On-demand virus scanner (the paper's §1-§2 motivation lists AV scans as a
// canonical maintenance task: full scans in virtual machines cause I/O
// storms). The scanner reads every file under a directory and matches its
// content against a signature set.
//
// Baseline order: depth-first directory traversal (how scanners walk a
// tree). Opportunistic mode registers a Duet file task for Exists
// notifications and scans files with the most cached pages first — data
// brought in by the workload or by other maintenance tasks is scanned
// without touching the device.
#ifndef SRC_TASKS_VIRUS_SCANNER_H_
#define SRC_TASKS_VIRUS_SCANNER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/tasks/maintenance_task.h"

namespace duet {

struct VirusScannerConfig {
  bool use_duet = false;
  std::string root = "/";
};

class VirusScanner : public MaintenanceTask {
 public:
  VirusScanner(FileSystem* fs, DuetCore* duet, VirusScannerConfig config);
  ~VirusScanner() override { Stop(); }

  // Content tokens considered "infected" (failure-injection hook: write a
  // token into a file, add it here, and the scan must flag that file).
  void AddSignature(uint64_t token) { signatures_.insert(token); }

  uint64_t files_scanned() const { return files_scanned_; }
  const std::vector<InodeNo>& infected() const { return infected_; }

 private:
  void OnStart() override;
  // Files already scanned, stale hints and files deleted since the walk are
  // skipped.
  bool AcceptHot(InodeNo ino) override {
    return !IsDone(ino) && duet_->GetPath(sid_, ino).ok();
  }
  bool AcceptListed(InodeNo ino) override {
    return !IsDone(ino) && fs_->ns().Exists(ino);
  }
  void ProcessFile(InodeNo ino, bool opportunistic) override;
  void ScanChunk(InodeNo ino, PageIdx next_page, uint64_t size);

  const VirusScannerConfig config_;
  std::unordered_set<uint64_t> signatures_;
  std::vector<InodeNo> infected_;
  uint64_t files_scanned_ = 0;
};

}  // namespace duet

#endif  // SRC_TASKS_VIRUS_SCANNER_H_
