// Lifecycle tests for all seven maintenance tasks: a second run on the same
// object starts from a clean slate, and a Start/Stop/Start with a chunk
// still in flight leaves exactly one processing chain and credits nothing
// from the stopped run.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/logfs/logfs.h"
#include "src/obs/obs.h"
#include "src/tasks/backup.h"
#include "src/tasks/defrag_task.h"
#include "src/tasks/gc_task.h"
#include "src/tasks/incremental_backup.h"
#include "src/tasks/rsync_task.h"
#include "src/tasks/scrubber.h"
#include "src/tasks/virus_scanner.h"
#include "src/util/format.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class CowLifecycleTest : public ::testing::Test {
 protected:
  CowLifecycleTest()
      : scope_(&ctx_),
        rig_(1'000'000, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/512),
        duet_(&fs_) {}

  void Populate(int files, uint64_t pages_each) {
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(fs_.PopulateFile(StrFormat("/f%d", i), pages_each * kPageSize).ok());
    }
  }

  // Best-effort device reads every 500 µs until `until`: the CFQ idle window
  // never opens, so idle-class maintenance reads stay queued meanwhile.
  void KeepDeviceBusy(SimTime until) {
    for (SimTime at = rig_.loop.now(); at < until; at += Micros(500)) {
      rig_.loop.ScheduleAt(at, [this] {
        IoRequest req;
        req.block = 900'000;
        req.io_class = IoClass::kBestEffort;
        rig_.device.Submit(std::move(req));
      });
    }
  }

  uint64_t Counter(const std::string& name) const {
    return ctx_.metrics.CounterValue(name);
  }

  obs::ObsContext ctx_;
  obs::ObsScope scope_;
  SimRig rig_;
  CowFs fs_;
  DuetCore duet_;
};

// ---- A second run after completion ----

TEST_F(CowLifecycleTest, ScrubberRestartsAfterCompletion) {
  Populate(8, 32);
  ScrubberConfig config;
  config.use_duet = true;
  Scrubber task(&fs_, &duet_, config);
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  task.Stop();
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_EQ(task.stats().work_total, fs_.allocated_blocks());
}

TEST_F(CowLifecycleTest, BackupRestartsAfterCompletion) {
  Populate(8, 32);
  BackupConfig config;
  config.use_duet = true;
  Backup task(&fs_, &duet_, config);
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  task.Stop();
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  EXPECT_EQ(task.stats().work_total, 256u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_EQ(task.bytes_sent(), 256 * kPageSize);
  EXPECT_TRUE(task.AllPagesSentOnce());
}

TEST_F(CowLifecycleTest, IncrementalBackupRestartsAfterCompletion) {
  Populate(4, 16);
  IncrementalBackupConfig config;
  config.use_duet = true;
  IncrementalBackup task(&fs_, &duet_, config);
  InodeNo f1 = *fs_.ns().Resolve("/f1");
  for (uint64_t changed : {5u, 9u}) {
    task.BeginEpoch();
    rig_.loop.RunUntil(rig_.loop.now() + Millis(100));
    fs_.Write(f1, 0, changed * kPageSize, IoClass::kBestEffort, nullptr);
    rig_.loop.RunUntil(rig_.loop.now() + Millis(100));
    bool finished = false;
    task.EndEpoch([&] { finished = true; });
    rig_.loop.Run();
    ASSERT_TRUE(finished);
    EXPECT_EQ(task.stats().work_total, changed);
    EXPECT_EQ(task.stats().work_done, task.stats().work_total);
    EXPECT_TRUE(task.IncrementComplete());
  }
}

TEST_F(CowLifecycleTest, DefragRestartsAfterCompletion) {
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        fs_.PopulateFileAged(StrFormat("/f%d", i), 32 * kPageSize, 0.5, rng).ok());
  }
  DefragConfig config;
  config.use_duet = true;
  DefragTask task(&fs_, &duet_, config);
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  task.Stop();
  for (int i = 6; i < 9; ++i) {
    ASSERT_TRUE(
        fs_.PopulateFileAged(StrFormat("/f%d", i), 32 * kPageSize, 0.5, rng).ok());
  }
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  EXPECT_EQ(task.stats().work_total, 2u * 3 * 32);  // only the new files
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_EQ(task.files_defragmented(), 3u);
}

TEST_F(CowLifecycleTest, VirusScannerRestartsAfterCompletion) {
  Populate(10, 16);
  VirusScannerConfig config;
  VirusScanner task(&fs_, nullptr, config);
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  task.Stop();
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  EXPECT_EQ(task.files_scanned(), 10u);
  EXPECT_EQ(task.stats().work_total, 160u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
}

TEST_F(CowLifecycleTest, RestartFromCompletionCallback) {
  Populate(4, 16);
  VirusScanner task(&fs_, nullptr, VirusScannerConfig{});
  int runs = 0;
  std::function<void()> on_finish = [&] {
    if (++runs < 3) {
      task.Start(on_finish);  // the next run begins inside the callback
    }
  };
  task.Start(on_finish);
  rig_.loop.Run();
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(Counter("tasks.virus_scan.finished"), 3u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_EQ(task.files_scanned(), 4u);
}

// ---- Start/Stop/Start with a chunk still queued ----

// Each case stops and restarts the task while the first run's chunk I/O
// sits queued behind foreground reads, then runs to quiescence. The stale
// completion must neither credit the new run nor fork a second chain: the
// task finishes once, with every unit counted once.
TEST_F(CowLifecycleTest, ScrubberRestartWithChunkQueued) {
  Populate(8, 32);
  ScrubberConfig config;
  config.use_duet = true;
  Scrubber task(&fs_, &duet_, config);
  KeepDeviceBusy(Millis(20));
  rig_.loop.RunUntil(Millis(1));
  int first = 0, second = 0;
  task.Start([&] { ++first; });
  rig_.loop.RunUntil(Millis(5));
  task.Stop();
  task.Start([&] { ++second; });
  rig_.loop.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(Counter("tasks.scrub.finished"), 1u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
}

TEST_F(CowLifecycleTest, BackupRestartWithChunkQueued) {
  Populate(8, 32);
  BackupConfig config;
  config.use_duet = true;
  Backup task(&fs_, &duet_, config);
  KeepDeviceBusy(Millis(20));
  rig_.loop.RunUntil(Millis(1));
  int first = 0, second = 0;
  task.Start([&] { ++first; });
  rig_.loop.RunUntil(Millis(5));
  task.Stop();
  task.Start([&] { ++second; });
  rig_.loop.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(Counter("tasks.backup.finished"), 1u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_EQ(task.stats().io_read_pages + task.stats().saved_read_pages,
            task.stats().work_total);
  EXPECT_TRUE(task.AllPagesSentOnce());
}

TEST_F(CowLifecycleTest, IncrementalBackupRestartWithChunkQueued) {
  Populate(4, 32);
  IncrementalBackup task(&fs_, nullptr, IncrementalBackupConfig{});
  InodeNo f2 = *fs_.ns().Resolve("/f2");
  task.BeginEpoch();
  rig_.loop.RunUntil(Millis(100));
  fs_.Write(f2, 0, 24 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(200));
  fs_.cache().RemoveInode(f2);
  int first = 0, second = 0;
  KeepDeviceBusy(Millis(400));
  task.EndEpoch([&] { ++first; });
  rig_.loop.RunUntil(Millis(300));
  task.Stop();
  task.BeginEpoch();
  rig_.loop.RunUntil(Millis(500));
  fs_.Write(f2, 0, 20 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(600));
  fs_.cache().RemoveInode(f2);
  task.EndEpoch([&] { ++second; });
  rig_.loop.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(Counter("tasks.inc_backup.finished"), 1u);
  EXPECT_EQ(task.stats().work_total, 20u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_EQ(task.stats().io_read_pages, 20u);
  EXPECT_TRUE(task.IncrementComplete());
}

TEST_F(CowLifecycleTest, DefragRestartWithChunkQueued) {
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        fs_.PopulateFileAged(StrFormat("/f%d", i), 32 * kPageSize, 0.5, rng).ok());
  }
  DefragConfig config;
  config.use_duet = true;
  DefragTask task(&fs_, &duet_, config);
  KeepDeviceBusy(Millis(20));
  rig_.loop.RunUntil(Millis(1));
  int first = 0, second = 0;
  task.Start([&] { ++first; });
  rig_.loop.RunUntil(Millis(5));
  task.Stop();
  task.Start([&] { ++second; });
  rig_.loop.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(Counter("tasks.defrag.finished"), 1u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
}

TEST_F(CowLifecycleTest, VirusScannerRestartWithChunkQueued) {
  Populate(10, 16);
  VirusScannerConfig config;
  config.use_duet = true;
  VirusScanner task(&fs_, &duet_, config);
  // One signature per file: every file must be scanned, each exactly once.
  std::set<InodeNo> all_files;
  for (int f = 0; f < 10; ++f) {
    InodeNo ino = *fs_.ns().Resolve(StrFormat("/f%d", f));
    all_files.insert(ino);
    task.AddSignature(*fs_.PageContent(ino, 0));
  }
  KeepDeviceBusy(Millis(20));
  rig_.loop.RunUntil(Millis(1));
  int first = 0, second = 0;
  task.Start([&] { ++first; });
  rig_.loop.RunUntil(Millis(5));
  task.Stop();
  task.Start([&] { ++second; });
  rig_.loop.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(Counter("tasks.virus_scan.finished"), 1u);
  EXPECT_EQ(task.infected().size(), 10u);
  EXPECT_EQ(std::set<InodeNo>(task.infected().begin(), task.infected().end()),
            all_files);
  EXPECT_EQ(task.files_scanned(), 10u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_EQ(task.stats().io_read_pages + task.stats().saved_read_pages,
            task.stats().work_total);
}

// ---- Rsync: source and destination on separate devices ----

class RsyncLifecycleTest : public CowLifecycleTest {
 protected:
  RsyncLifecycleTest()
      : dst_device_(&rig_.loop,
                    std::make_unique<FixedLatencyModel>(Micros(100), 1'000'000),
                    std::make_unique<CfqScheduler>()),
        dst_fs_(&rig_.loop, &dst_device_, 512) {}

  RsyncConfig Config() {
    RsyncConfig config;
    config.hints = RsyncHints::kDuet;
    config.source_dir = "/src";
    config.dest_dir = "/dst";
    return config;
  }

  void PopulateSource(int files) {
    ASSERT_TRUE(fs_.Mkdir("/src").ok());
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(fs_.PopulateFile(StrFormat("/src/f%d", i), 12 * kPageSize).ok());
    }
  }

  BlockDevice dst_device_;
  CowFs dst_fs_;
};

TEST_F(RsyncLifecycleTest, RestartsAfterCompletion) {
  PopulateSource(8);
  RsyncTask task(&fs_, &dst_fs_, &duet_, Config());
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  task.Stop();
  task.Start();
  rig_.loop.Run();
  ASSERT_TRUE(task.stats().finished);
  EXPECT_EQ(task.files_synced(), 8u);
  EXPECT_EQ(task.stats().work_total, 2u * 8 * 12);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_TRUE(task.DestinationMatchesSource());
}

TEST_F(RsyncLifecycleTest, RestartWithChunkInFlight) {
  PopulateSource(8);
  RsyncTask task(&fs_, &dst_fs_, &duet_, Config());
  int first = 0, second = 0;
  // Rsync reads at normal priority, so its first chunk is simply in flight
  // when the restart happens at the same instant.
  task.Start([&] { ++first; });
  task.Stop();
  task.Start([&] { ++second; });
  rig_.loop.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(Counter("tasks.rsync.finished"), 1u);
  EXPECT_EQ(task.files_synced(), 8u);
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
  EXPECT_TRUE(task.DestinationMatchesSource());
}

// ---- GC: a periodic cleaner, so "a run" is a Start/Stop window ----

class GcLifecycleTest : public ::testing::Test {
 protected:
  GcLifecycleTest()
      : scope_(&ctx_),
        rig_(16'384, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/256, /*segment_blocks=*/64),
        duet_(&fs_) {}

  GcConfig Config() {
    GcConfig config;
    config.use_duet = true;
    config.wake_interval = Millis(100);
    config.idle_threshold = Millis(10);
    return config;
  }

  obs::ObsContext ctx_;
  obs::ObsScope scope_;
  SimRig rig_;
  LogFs fs_;
  DuetCore duet_;
};

TEST_F(GcLifecycleTest, RestartRebuildsCountersAndResults) {
  InodeNo a = *fs_.PopulateFile("/a", 64 * kPageSize);  // exactly segment 0
  GcTask gc(&fs_, &duet_, Config());
  gc.Start();
  fs_.Read(a, 0, 32 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Seconds(1));
  gc.Stop();
  ASSERT_GE(gc.CachedCounter(0), 24);
  // Evicted while no session listens: the next run must not inherit the
  // stale count.
  fs_.cache().RemoveInode(a);
  gc.Start();
  rig_.loop.RunUntil(Seconds(2));
  gc.Stop();
  EXPECT_EQ(gc.CachedCounter(0), 0);
  EXPECT_EQ(gc.segments_cleaned(), 0u);
  EXPECT_EQ(gc.stats().work_done, 0u);
}

TEST_F(GcLifecycleTest, RestartWithCleanInFlight) {
  InodeNo a = *fs_.PopulateFile("/a", 128 * kPageSize);
  ASSERT_TRUE(fs_.PopulateFile("/b", 128 * kPageSize).ok());
  fs_.Write(a, 0, 120 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(500));
  fs_.cache().RemoveInode(a);
  GcTask gc(&fs_, &duet_, Config());
  gc.Start();
  // Step until the first cleaning pass has its I/O on the device.
  while (!rig_.device.busy() && rig_.loop.now() < Seconds(5)) {
    ASSERT_TRUE(rig_.loop.RunOne());
  }
  ASSERT_TRUE(rig_.device.busy());
  gc.Stop();
  gc.Start();
  // Shorter than the wake interval: only the stale clean can complete.
  rig_.loop.RunUntil(rig_.loop.now() + Millis(50));
  EXPECT_EQ(gc.segments_cleaned(), 0u);
  EXPECT_EQ(gc.stats().work_done, 0u);
  EXPECT_EQ(ctx_.metrics.CounterValue("tasks.gc.chunks"), 0u);
  // The new run still wakes and cleans on its own schedule afterwards.
  rig_.loop.RunUntil(rig_.loop.now() + Seconds(5));
  gc.Stop();
  EXPECT_GT(ctx_.metrics.CounterValue("tasks.gc.chunks"), 0u);
  EXPECT_EQ(gc.segments_cleaned(), gc.cleaning_time_ms().count());
}

}  // namespace
}  // namespace duet
