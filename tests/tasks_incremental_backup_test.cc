#include "src/tasks/incremental_backup.h"

#include <gtest/gtest.h>

#include "src/duet/duet_core.h"
#include "src/obs/obs.h"
#include "src/util/format.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class IncrementalBackupTest : public ::testing::Test {
 protected:
  IncrementalBackupTest()
      : rig_(1'000'000, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/512),
        duet_(&fs_) {}

  void Populate(int files, uint64_t pages_each) {
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(fs_.PopulateFile(StrFormat("/f%d", i), pages_each * kPageSize).ok());
    }
  }

  void WriteAndSettle(InodeNo ino, ByteOff off, uint64_t len) {
    fs_.Write(ino, off, len, IoClass::kBestEffort, nullptr);
    rig_.loop.RunUntil(rig_.loop.now() + Millis(100));
  }

  void SettleAndFlush() {
    fs_.writeback().Sync(nullptr);
    rig_.loop.RunUntil(rig_.loop.now() + Seconds(1));
  }

  SimRig rig_;
  CowFs fs_;
  DuetCore duet_;
};

TEST_F(IncrementalBackupTest, BaselineCapturesExactlyTheDiff) {
  Populate(4, 16);
  IncrementalBackup inc(&fs_, nullptr, IncrementalBackupConfig{});
  inc.BeginEpoch();
  rig_.loop.RunUntil(Millis(100));
  // Modify 5 pages of f0 and 3 pages of f2.
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  InodeNo f2 = *fs_.ns().Resolve("/f2");
  WriteAndSettle(f0, 0, 5 * kPageSize);
  WriteAndSettle(f2, 4 * kPageSize, 3 * kPageSize);
  bool finished = false;
  inc.EndEpoch([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(inc.stats().work_total, 8u);
  EXPECT_EQ(inc.stats().io_read_pages, 8u);  // baseline reads every changed page
  EXPECT_EQ(inc.stats().saved_read_pages, 0u);
  EXPECT_TRUE(inc.IncrementComplete());
}

TEST_F(IncrementalBackupTest, NoChangesMeansEmptyIncrement) {
  Populate(2, 8);
  IncrementalBackup inc(&fs_, nullptr, IncrementalBackupConfig{});
  inc.BeginEpoch();
  rig_.loop.RunUntil(Millis(100));
  bool finished = false;
  inc.EndEpoch([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(inc.stats().work_total, 0u);
  EXPECT_EQ(inc.stats().io_read_pages, 0u);
  EXPECT_TRUE(inc.IncrementComplete());
}

TEST_F(IncrementalBackupTest, DuetCapturesFlushedPagesFromMemory) {
  Populate(4, 16);
  IncrementalBackupConfig config;
  config.use_duet = true;
  IncrementalBackup inc(&fs_, &duet_, config);
  inc.BeginEpoch();
  rig_.loop.RunUntil(Millis(100));
  InodeNo f1 = *fs_.ns().Resolve("/f1");
  WriteAndSettle(f1, 0, 8 * kPageSize);
  SettleAndFlush();  // flush -> ¬Modified notifications -> in-memory capture
  rig_.loop.RunUntil(rig_.loop.now() + Millis(100));  // let the poller drain
  EXPECT_GT(inc.stats().opportunistic_units, 0u);
  bool finished = false;
  inc.EndEpoch([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(inc.stats().work_total, 8u);
  EXPECT_EQ(inc.stats().saved_read_pages, 8u);  // all captured from memory
  EXPECT_EQ(inc.stats().io_read_pages, 0u);
  EXPECT_TRUE(inc.IncrementComplete());
}

TEST_F(IncrementalBackupTest, RewrittenPageCapturedWithFinalContent) {
  Populate(1, 4);
  IncrementalBackupConfig config;
  config.use_duet = true;
  IncrementalBackup inc(&fs_, &duet_, config);
  inc.BeginEpoch();
  rig_.loop.RunUntil(Millis(100));
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  // Write, flush, write again, flush again: the increment must hold the
  // final content.
  WriteAndSettle(f0, 0, kPageSize);
  SettleAndFlush();
  rig_.loop.RunUntil(rig_.loop.now() + Millis(100));
  WriteAndSettle(f0, 0, kPageSize);
  SettleAndFlush();
  rig_.loop.RunUntil(rig_.loop.now() + Millis(100));
  bool finished = false;
  inc.EndEpoch([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_TRUE(inc.IncrementComplete());
  EXPECT_EQ(inc.stats().work_total, 1u);
}

TEST_F(IncrementalBackupTest, EvictedChangesFallBackToDiskReads) {
  Populate(2, 16);
  IncrementalBackupConfig config;
  config.use_duet = true;
  IncrementalBackup inc(&fs_, &duet_, config);
  inc.BeginEpoch();
  rig_.loop.RunUntil(Millis(100));
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  WriteAndSettle(f0, 0, 4 * kPageSize);
  SettleAndFlush();
  rig_.loop.RunUntil(rig_.loop.now() + Millis(100));
  // Evict everything: the opportunistic captures stand, but pretend some
  // were missed by dropping them via cache churn before the poller ran.
  fs_.cache().RemoveInode(f0);
  WriteAndSettle(f0, 8 * kPageSize, 2 * kPageSize);  // 2 more changed pages
  // Evict before flush notification can be used: force-sync then evict fast.
  fs_.writeback().Sync(nullptr);
  rig_.loop.RunUntil(rig_.loop.now() + Millis(1));
  fs_.cache().RemoveInode(f0);
  bool finished = false;
  inc.EndEpoch([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(inc.stats().work_total, 6u);
  EXPECT_TRUE(inc.IncrementComplete());  // correctness regardless of hints
}

TEST_F(IncrementalBackupTest, CreatedFileIsPartOfIncrement) {
  Populate(1, 4);
  IncrementalBackup inc(&fs_, nullptr, IncrementalBackupConfig{});
  inc.BeginEpoch();
  rig_.loop.RunUntil(Millis(100));
  InodeNo fresh = *fs_.CreateFile("/new");
  fs_.Write(fresh, 0, 6 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(rig_.loop.now() + Millis(100));
  bool finished = false;
  inc.EndEpoch([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(inc.stats().work_total, 6u);
  EXPECT_TRUE(inc.IncrementComplete());
}

// Behaviour lock for a task duetsim cannot reach: today's exact stats,
// tasks.inc_backup.* counters and task-trace fingerprint for one fixed Duet
// epoch (flushed changes captured from memory, evicted ones read back in
// several batches). A refactor must leave every value unchanged; a
// deliberate behaviour change re-baselines them in its own commit.
TEST_F(IncrementalBackupTest, PinnedDuetScenario) {
  obs::ObsContext ctx;
  obs::ObsScope scope(&ctx);
  Populate(4, 32);
  IncrementalBackupConfig config;
  config.use_duet = true;
  IncrementalBackup inc(&fs_, &duet_, config);
  inc.BeginEpoch();
  rig_.loop.RunUntil(Millis(100));
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  InodeNo f2 = *fs_.ns().Resolve("/f2");
  WriteAndSettle(f0, 0, 12 * kPageSize);
  SettleAndFlush();
  rig_.loop.RunUntil(rig_.loop.now() + Millis(100));
  // Changes evicted before their flush notification is drained: the
  // end-of-epoch pass must read them from disk.
  WriteAndSettle(f2, 2 * kPageSize, 28 * kPageSize);
  fs_.writeback().Sync(nullptr);
  rig_.loop.RunUntil(rig_.loop.now() + Millis(1));
  fs_.cache().RemoveInode(f2);
  bool finished = false;
  inc.EndEpoch([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  ASSERT_TRUE(inc.IncrementComplete());
  const TaskStats& s = inc.stats();
  EXPECT_EQ(s.work_total, 40u);
  EXPECT_EQ(s.work_done, 40u);
  EXPECT_EQ(s.io_read_pages, 28u);
  EXPECT_EQ(s.io_write_pages, 0u);
  EXPECT_EQ(s.saved_read_pages, 12u);
  EXPECT_EQ(s.saved_write_pages, 0u);
  EXPECT_EQ(s.opportunistic_units, 12u);
  EXPECT_TRUE(s.finished);
  EXPECT_EQ(s.started_at, 0u);
  EXPECT_EQ(s.finished_at, 1402300000u);
  EXPECT_EQ(inc.pages_captured(), 40u);
  const char* kCounters[] = {"started", "finished", "chunks",
                             "fetch_calls", "retries", "repairs"};
  const uint64_t kExpected[] = {1, 1, 2, 71, 0, 0};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ctx.metrics.CounterValue(std::string("tasks.inc_backup.") + kCounters[i]),
              kExpected[i])
        << kCounters[i];
  }
  EXPECT_EQ(ctx.trace.Fingerprint(), 0x5b62dfcc752caeeaULL);
  EXPECT_EQ(ctx.trace.events_emitted(), 6u);
}

}  // namespace
}  // namespace duet
