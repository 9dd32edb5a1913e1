#include "src/tasks/virus_scanner.h"

#include <gtest/gtest.h>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/obs/obs.h"
#include "src/util/format.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class VirusScannerTest : public ::testing::Test {
 protected:
  VirusScannerTest()
      : rig_(1'000'000, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/512),
        duet_(&fs_) {}

  void Populate(int files, uint64_t pages_each) {
    ASSERT_TRUE(fs_.Mkdir("/scan").ok());
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(
          fs_.PopulateFile(StrFormat("/scan/f%d", i), pages_each * kPageSize).ok());
    }
  }

  SimRig rig_;
  CowFs fs_;
  DuetCore duet_;
};

TEST_F(VirusScannerTest, BaselineScansEveryFile) {
  Populate(10, 16);
  VirusScannerConfig config;
  config.root = "/scan";
  VirusScanner scanner(&fs_, nullptr, config);
  bool finished = false;
  scanner.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(scanner.files_scanned(), 10u);
  EXPECT_EQ(scanner.stats().work_done, 160u);
  EXPECT_TRUE(scanner.infected().empty());
}

TEST_F(VirusScannerTest, DetectsPlantedSignature) {
  Populate(4, 8);
  InodeNo victim = *fs_.ns().Resolve("/scan/f2");
  uint64_t bad_token = *fs_.PageContent(victim, 5);
  VirusScannerConfig config;
  config.root = "/scan";
  VirusScanner scanner(&fs_, nullptr, config);
  scanner.AddSignature(bad_token);
  scanner.Start();
  rig_.loop.Run();
  ASSERT_EQ(scanner.infected().size(), 1u);
  EXPECT_EQ(scanner.infected()[0], victim);
}

TEST_F(VirusScannerTest, DuetScansCachedFilesWithoutIo) {
  Populate(10, 16);
  // Warm three files.
  for (int i = 4; i < 7; ++i) {
    InodeNo ino = *fs_.ns().Resolve(StrFormat("/scan/f%d", i));
    fs_.Read(ino, 0, 16 * kPageSize, IoClass::kBestEffort, nullptr);
  }
  rig_.loop.RunUntil(Millis(500));
  VirusScannerConfig config;
  config.root = "/scan";
  config.use_duet = true;
  VirusScanner scanner(&fs_, &duet_, config);
  bool finished = false;
  scanner.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(scanner.files_scanned(), 10u);
  EXPECT_GE(scanner.stats().saved_read_pages, 48u);  // the 3 warm files
  EXPECT_GT(scanner.stats().opportunistic_units, 0u);
  EXPECT_EQ(scanner.stats().work_done, scanner.stats().work_total);
}

TEST_F(VirusScannerTest, DuetStillDetectsInfectionsOutOfOrder) {
  Populate(6, 8);
  InodeNo victim = *fs_.ns().Resolve("/scan/f5");
  uint64_t bad_token = *fs_.PageContent(victim, 0);
  // Warm the infected file so it is scanned opportunistically, first.
  fs_.Read(victim, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(500));
  VirusScannerConfig config;
  config.root = "/scan";
  config.use_duet = true;
  VirusScanner scanner(&fs_, &duet_, config);
  scanner.AddSignature(bad_token);
  scanner.Start();
  rig_.loop.Run();
  ASSERT_EQ(scanner.infected().size(), 1u);
  EXPECT_EQ(scanner.infected()[0], victim);
}

TEST_F(VirusScannerTest, ScansEachFileOnceDespiteRepeatedHints) {
  Populate(4, 8);
  VirusScannerConfig config;
  config.root = "/scan";
  config.use_duet = true;
  VirusScanner scanner(&fs_, &duet_, config);
  bool finished = false;
  scanner.Start([&] { finished = true; });
  // Touch the same file repeatedly while the scan runs.
  InodeNo hot = *fs_.ns().Resolve("/scan/f0");
  for (int i = 0; i < 10; ++i) {
    rig_.loop.ScheduleAt(Micros(static_cast<uint64_t>(100 * i)), [this, hot] {
      fs_.Read(hot, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
    });
  }
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(scanner.files_scanned(), 4u);  // exactly once each
}

// Behaviour lock for a task duetsim cannot reach: today's exact stats,
// tasks.virus_scan.* counters and task-trace fingerprint for one fixed Duet
// scenario (warm files, a foreground reader during the scan, an infected
// file). A refactor must leave every value unchanged; a deliberate
// behaviour change re-baselines them in its own commit.
TEST_F(VirusScannerTest, PinnedDuetScenario) {
  obs::ObsContext ctx;
  obs::ObsScope scope(&ctx);
  Populate(12, 24);
  for (int i = 3; i < 6; ++i) {
    InodeNo ino = *fs_.ns().Resolve(StrFormat("/scan/f%d", i));
    fs_.Read(ino, 0, 24 * kPageSize, IoClass::kBestEffort, nullptr);
  }
  rig_.loop.RunUntil(Millis(500));
  InodeNo victim = *fs_.ns().Resolve("/scan/f9");
  VirusScannerConfig config;
  config.root = "/scan";
  config.use_duet = true;
  VirusScanner scanner(&fs_, &duet_, config);
  scanner.AddSignature(*fs_.PageContent(victim, 7));
  bool finished = false;
  scanner.Start([&] { finished = true; });
  InodeNo late = *fs_.ns().Resolve("/scan/f8");
  rig_.loop.ScheduleAfter(Micros(150), [this, late] {
    fs_.Read(late, 0, 24 * kPageSize, IoClass::kBestEffort, nullptr);
  });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  const TaskStats& s = scanner.stats();
  EXPECT_EQ(s.work_total, 288u);
  EXPECT_EQ(s.work_done, 288u);
  EXPECT_EQ(s.io_read_pages, 192u);
  EXPECT_EQ(s.io_write_pages, 0u);
  EXPECT_EQ(s.saved_read_pages, 96u);
  EXPECT_EQ(s.saved_write_pages, 0u);
  EXPECT_EQ(s.opportunistic_units, 96u);
  EXPECT_TRUE(s.finished);
  EXPECT_EQ(s.started_at, 500000000u);
  EXPECT_EQ(s.finished_at, 502900000u);
  EXPECT_EQ(scanner.files_scanned(), 12u);
  ASSERT_EQ(scanner.infected().size(), 1u);
  EXPECT_EQ(scanner.infected()[0], victim);
  const char* kCounters[] = {"started", "finished", "chunks",
                             "fetch_calls", "retries", "repairs"};
  const uint64_t kExpected[] = {1, 1, 12, 13, 0, 0};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ctx.metrics.CounterValue(std::string("tasks.virus_scan.") + kCounters[i]),
              kExpected[i])
        << kCounters[i];
  }
  EXPECT_EQ(ctx.trace.Fingerprint(), 0x1c1118604c47eacaULL);
  EXPECT_EQ(ctx.trace.events_emitted(), 26u);
}

}  // namespace
}  // namespace duet
