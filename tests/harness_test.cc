#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/harness/calibrate.h"
#include "src/harness/runner.h"

namespace duet {
namespace {

// A tiny stack so each run takes milliseconds of wall time.
StackConfig TinyStack() {
  StackConfig stack;
  stack.capacity_blocks = 40'960;               // 160 MiB device
  stack.data_bytes = 128ull * 1024 * 1024;      // 128 MiB data
  stack.cache_pages = 656;                      // ~2%
  stack.window = Seconds(6);
  stack.mean_file_size = 256 * 1024;
  return stack;
}

TEST(CalibrateTest, MeasureUtilizationRespondsToRate) {
  StackConfig stack = TinyStack();
  WorkloadConfig slow = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 20, 1);
  WorkloadConfig fast = slow;
  fast.ops_per_sec = 120;
  double u_slow = MeasureUtilization(stack, slow, Seconds(8));
  double u_fast = MeasureUtilization(stack, fast, Seconds(8));
  EXPECT_GT(u_slow, 0.0);
  EXPECT_GT(u_fast, u_slow);
  EXPECT_LE(u_fast, 1.0);
}

TEST(CalibrateTest, CalibrateRateHitsTarget) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 1);
  CalibratedRate rate = CalibrateRate(stack, base, 0.4, Seconds(8));
  ASSERT_FALSE(rate.unthrottled);
  EXPECT_NEAR(rate.achieved_util, 0.4, 0.05);
  // Verify independently.
  base.ops_per_sec = rate.ops_per_sec;
  EXPECT_NEAR(MeasureUtilization(stack, base, Seconds(8)), 0.4, 0.08);
}

TEST(CalibrateTest, ZeroTargetMeansNoWorkload) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 1);
  CalibratedRate rate = CalibrateRate(stack, base, 0.0);
  EXPECT_EQ(rate.ops_per_sec, 0);
  EXPECT_FALSE(rate.unthrottled);
}

TEST(CalibrateTest, UnreachableTargetReportsUnthrottled) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 1);
  CalibratedRate rate = CalibrateRate(stack, base, 0.9999, Seconds(6));
  EXPECT_TRUE(rate.unthrottled);
  EXPECT_GT(rate.achieved_util, 0.5);
}

TEST(RunnerTest, IdleBaselineScrubCompletes) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0;
  config.tasks = {MaintKind::kScrub};
  config.use_duet = false;
  MaintenanceRunResult result = RunMaintenance(config);
  ASSERT_EQ(result.task_stats.size(), 1u);
  EXPECT_TRUE(result.all_finished);
  EXPECT_EQ(result.IoSavedFraction(), 0);
  EXPECT_DOUBLE_EQ(result.WorkCompletedFraction(), 1.0);
  EXPECT_EQ(result.metrics.Value("workload.ops.completed"), 0u);
}

TEST(RunnerTest, DuetSavesUnderWorkload) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0.5;
  config.tasks = {MaintKind::kScrub};
  config.seed = 3;

  config.use_duet = false;
  MaintenanceRunResult baseline = RunMaintenance(config);
  config.use_duet = true;
  MaintenanceRunResult with_duet = RunMaintenance(config);

  EXPECT_EQ(baseline.IoSavedFraction(), 0);
  EXPECT_GT(with_duet.IoSavedFraction(), 0.02);
  // Duet performs strictly less maintenance I/O.
  EXPECT_LT(with_duet.TotalTaskIo(), baseline.TotalTaskIo() + 1);
}

TEST(RunnerTest, ConcurrentTasksCollaborateWhenIdle) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0;  // no foreground workload at all
  config.tasks = {MaintKind::kScrub, MaintKind::kBackup};
  config.use_duet = true;
  MaintenanceRunResult result = RunMaintenance(config);
  // One pass over the shared data serves both tasks (paper Fig. 5).
  EXPECT_GT(result.IoSavedFraction(), 0.35);
  EXPECT_TRUE(result.all_finished);
}

TEST(RunnerTest, DeterministicAcrossRuns) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0.3;
  config.ops_per_sec = 40;  // fixed rate: skip calibration
  config.tasks = {MaintKind::kScrub};
  config.use_duet = true;
  MaintenanceRunResult a = RunMaintenance(config);
  MaintenanceRunResult b = RunMaintenance(config);
  EXPECT_EQ(a.TotalTaskIo(), b.TotalTaskIo());
  EXPECT_EQ(a.metrics.Value("workload.ops.completed"),
            b.metrics.Value("workload.ops.completed"));
  EXPECT_EQ(a.task_stats[0].saved_read_pages, b.task_stats[0].saved_read_pages);
}

TEST(RunnerTest, RsyncDuetNoSlowerThanBaseline) {
  StackConfig stack = TinyStack();
  RsyncRunResult baseline =
      RunRsync(stack, Personality::kWebserver, 1.0, false, false, 5);
  RsyncRunResult with_duet =
      RunRsync(stack, Personality::kWebserver, 1.0, false, true, 5);
  ASSERT_TRUE(baseline.finished);
  ASSERT_TRUE(with_duet.finished);
  EXPECT_LE(with_duet.runtime, baseline.runtime);
  EXPECT_GT(with_duet.stats.saved_read_pages, 0u);
}

TEST(RunnerTest, GcRunProducesCleanings) {
  StackConfig stack = TinyStack();
  GcRunResult result = RunGc(stack, 0.5, /*use_duet=*/true, 9, /*ops_per_sec=*/60);
  EXPECT_GT(result.segments_cleaned, 0u);
  EXPECT_GT(result.cleaning_time_ms.count(), 0u);
}

TEST(RunnerTest, FindMaxUtilizationMonotoneResult) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.tasks = {MaintKind::kScrub};
  config.use_duet = false;
  double base_max = FindMaxUtilization(config, /*step=*/0.25);
  EXPECT_GE(base_max, 0.0);
  EXPECT_LE(base_max, 1.0);
}

// Keeps the peaks of live Duet descriptors and of cached pages over a run,
// sampled after Duet has applied each page event.
class DescriptorPeaks : public PageEventListener {
 public:
  struct Peaks {
    uint64_t descriptors = 0;
    uint64_t cached = 0;
  };

  explicit DescriptorPeaks(CowRig* rig) : rig_(rig) { rig_->fs().cache().AddListener(this); }
  ~DescriptorPeaks() override { rig_->fs().cache().RemoveListener(this); }

  void OnPageEvent(const PageEvent&) override {
    peaks_.descriptors = std::max(peaks_.descriptors, rig_->duet().descriptor_count());
    peaks_.cached = std::max(peaks_.cached, rig_->fs().cache().PageCount());
  }

  const Peaks& peaks() const { return peaks_; }

 private:
  CowRig* rig_;
  Peaks peaks_;
};

// Runs `kinds` in Duet mode for one window beside the workload, driven at
// the rate that calibrates to 50% utilization as in the paper's runs. The
// tasks mark what they process done. Returns the run's peaks.
DescriptorPeaks::Peaks RunMaintenancePeaks(const StackConfig& stack,
                                           Personality personality,
                                           double fragmented_fraction,
                                           std::vector<MaintKind> kinds) {
  WorkloadConfig workload = MakeWorkloadConfig(stack, personality, /*coverage=*/1.0,
                                               /*skewed=*/false, /*ops_per_sec=*/0,
                                               /*seed=*/42);
  workload.fragmented_fraction = fragmented_fraction;
  CalibratedRate rate = CalibrateRate(stack, workload, /*target_util=*/0.5);
  workload.ops_per_sec = rate.unthrottled ? 0 : rate.ops_per_sec;
  CowRig rig(stack, workload);
  std::vector<std::unique_ptr<MaintenanceTask>> tasks;
  for (MaintKind kind : kinds) {
    tasks.push_back(MakeTask(kind, rig, /*use_duet=*/true));
  }
  DescriptorPeaks peaks(&rig);
  for (std::unique_ptr<MaintenanceTask>& task : tasks) {
    task->Start();
  }
  rig.workload().Start();
  rig.loop().RunUntil(stack.window);
  Status invariants = rig.duet().CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  rig.workload().Stop();
  for (std::unique_ptr<MaintenanceTask>& task : tasks) {
    EXPECT_GT(task->stats().work_done, 0u);
    task->Stop();
  }
  EXPECT_GT(peaks.peaks().descriptors, 0u);
  return peaks.peaks();
}

// §4.2 / §6.4 at the scale of EXPERIMENTS.md (QuickStackConfig): live
// descriptors stay within 2 x the cache, although the tasks mark processed
// items done and those pages keep cycling through the cache.
TEST(RunnerTest, ScrubBackupDescriptorsWithinTwiceTheCache) {
  StackConfig stack = QuickStackConfig();
  DescriptorPeaks::Peaks peaks = RunMaintenancePeaks(
      stack, Personality::kWebserver, 0, {MaintKind::kScrub, MaintKind::kBackup});
  EXPECT_LE(peaks.descriptors, 2 * stack.cache_pages);
}

TEST(RunnerTest, ThreeTasksDescriptorsWithinTwiceTheCache) {
  StackConfig stack = QuickStackConfig();
  DescriptorPeaks::Peaks peaks =
      RunMaintenancePeaks(stack, Personality::kFileserver, 0.1,
                          {MaintKind::kScrub, MaintKind::kBackup, MaintKind::kDefrag});
  EXPECT_LE(peaks.descriptors, 2 * stack.cache_pages);
}

// The bound is per state session: each one keeps at most the pages it was
// told exist and that left the cache since its last fetch. Backup and
// defrag fetch at different times, so on the tiny stack the three tasks
// pass 2 x but stay within (1 + 2 state sessions) x the cached pages.
TEST(RunnerTest, ThreeTasksDescriptorsWithinOneCachePerStateSession) {
  DescriptorPeaks::Peaks peaks =
      RunMaintenancePeaks(TinyStack(), Personality::kFileserver, 0.1,
                          {MaintKind::kScrub, MaintKind::kBackup, MaintKind::kDefrag});
  EXPECT_LE(peaks.descriptors, 3 * peaks.cached);
}

}  // namespace
}  // namespace duet
