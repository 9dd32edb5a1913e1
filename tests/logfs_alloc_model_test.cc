// Differential test of logfs's block allocator against a naive reference.
//
// Seeded random sequences of writes, overwrites, file creations, deletes,
// segment cleaning and (with a durable image attached) checkpoints and a
// crash-and-remount run on small LogFs instances until the allocator is deep
// in scattered-write mode.
// Before each operation the test reads the allocator's state through the
// public accessors (BlockValid, PinnedBlock, segment(), open_segment()) and
// predicts every block the operation will allocate with a bit-by-bit scan
// from block 0. The file system must hand out exactly those blocks, end in
// exactly the predicted state, and pass CheckInvariants() after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/block/durable_image.h"
#include "src/logfs/logfs.h"
#include "src/util/format.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

// The allocator state the public accessors expose.
struct AllocView {
  uint32_t segment_blocks = 0;
  uint64_t capacity = 0;
  std::vector<bool> valid;
  std::vector<bool> pinned;
  std::vector<uint32_t> written;
  std::vector<uint32_t> valid_count;
  SegmentNo open = 0;
  uint64_t scattered = 0;

  BlockNo SegmentEnd(SegmentNo s) const {
    return std::min<BlockNo>((s + 1) * segment_blocks, capacity);
  }
};

AllocView Snapshot(const LogFs& fs) {
  AllocView v;
  v.segment_blocks = fs.segment_blocks();
  v.capacity = fs.capacity_blocks();
  for (BlockNo b = 0; b < v.capacity; ++b) {
    v.valid.push_back(fs.BlockValid(b));
    v.pinned.push_back(fs.PinnedBlock(b));
  }
  for (SegmentNo s = 0; s < fs.segment_count(); ++s) {
    v.written.push_back(fs.segment(s).written);
    v.valid_count.push_back(fs.segment(s).valid);
  }
  v.open = fs.open_segment();
  v.scattered = fs.scattered_writes();
  return v;
}

// Empty if equal, else the first difference.
std::string Diff(const AllocView& want, const AllocView& got) {
  for (BlockNo b = 0; b < want.capacity; ++b) {
    if (want.valid[b] != got.valid[b] || want.pinned[b] != got.pinned[b]) {
      return StrFormat("block %llu: want valid=%d pinned=%d, got valid=%d pinned=%d",
                       static_cast<unsigned long long>(b), int(want.valid[b]),
                       int(want.pinned[b]), int(got.valid[b]), int(got.pinned[b]));
    }
  }
  for (SegmentNo s = 0; s < want.written.size(); ++s) {
    if (want.written[s] != got.written[s] || want.valid_count[s] != got.valid_count[s]) {
      return StrFormat("segment %llu: want written=%u valid=%u, got written=%u valid=%u",
                       static_cast<unsigned long long>(s), want.written[s],
                       want.valid_count[s], got.written[s], got.valid_count[s]);
    }
  }
  if (want.open != got.open || want.scattered != got.scattered) {
    return StrFormat("want open=%llu scattered=%llu, got open=%llu scattered=%llu",
                     static_cast<unsigned long long>(want.open),
                     static_cast<unsigned long long>(want.scattered),
                     static_cast<unsigned long long>(got.open),
                     static_cast<unsigned long long>(got.scattered));
  }
  return "";
}

void Take(AllocView* v, BlockNo b, bool pin) {
  v->valid[b] = true;
  ++v->valid_count[b / v->segment_blocks];
  if (pin) {
    v->pinned[b] = true;
  }
}

void Drop(AllocView* v, BlockNo b) {
  if (v->valid[b]) {
    v->valid[b] = false;
    --v->valid_count[b / v->segment_blocks];
  }
}

// First block, scanning bit by bit from block 0, that lies below its
// segment's write frontier and is neither valid nor (if `use_pins`) pinned.
std::optional<BlockNo> NaiveHole(const AllocView& v, bool use_pins) {
  for (BlockNo b = 0; b < v.capacity; ++b) {
    SegmentNo s = b / v.segment_blocks;
    if (b - s * v.segment_blocks < v.written[s] && !v.valid[b] &&
        !(use_pins && v.pinned[b])) {
      return b;
    }
  }
  return std::nullopt;
}

struct Prediction {
  std::optional<BlockNo> block;
  bool pins_mattered = false;  // a scan ignoring pins would pick another block
};

// The reference LogAppend: fill the open segment; when it is full, open the
// lowest free segment (no valid and no pinned block); when none is free,
// reuse the lowest hole.
Prediction NaiveAppend(AllocView* v, bool pin) {
  Prediction p;
  if (v->open * v->segment_blocks + v->written[v->open] >= v->SegmentEnd(v->open)) {
    std::optional<SegmentNo> free;
    for (SegmentNo s = 0; s < v->written.size() && !free.has_value(); ++s) {
      if (s == v->open || v->valid_count[s] != 0) {
        continue;
      }
      bool any_pinned = false;
      for (BlockNo b = s * v->segment_blocks; b < v->SegmentEnd(s); ++b) {
        any_pinned = any_pinned || v->pinned[b];
      }
      if (!any_pinned) {
        free = s;
      }
    }
    if (!free.has_value()) {
      p.block = NaiveHole(*v, /*use_pins=*/true);
      p.pins_mattered = p.block != NaiveHole(*v, /*use_pins=*/false);
      if (p.block.has_value()) {
        Take(v, *p.block, pin);
        ++v->scattered;
      }
      return p;
    }
    v->open = *free;
    v->written[*free] = 0;
  }
  p.block = v->open * v->segment_blocks + v->written[v->open]++;
  Take(v, *p.block, pin);
  return p;
}

struct ModelCase {
  uint64_t capacity;
  uint32_t segment_blocks;
  bool durable_image;
};

std::string Describe(const ModelCase& c) {
  return StrFormat("cap%llu_seg%u_%s", static_cast<unsigned long long>(c.capacity),
                   c.segment_blocks, c.durable_image ? "pinned" : "plain");
}

// gtest prints the parameter into each test's listed name; without this it
// dumps the struct's raw bytes, padding included.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << Describe(c); }

std::string CaseName(const ::testing::TestParamInfo<ModelCase>& info) {
  return Describe(info.param);
}

class LogFsAllocModelTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(LogFsAllocModelTest, AllocatesWhatTheNaiveScanPredicts) {
  const ModelCase& c = GetParam();
  uint64_t pins_mattered = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    Rng rng(seed * 7919 + c.segment_blocks);
    DurableImage image(c.capacity);
    const bool pin = c.durable_image;
    std::unique_ptr<SimRig> rig;
    std::unique_ptr<LogFs> fs;
    auto boot = [&] {
      rig = std::make_unique<SimRig>(c.capacity, Micros(50));
      fs = std::make_unique<LogFs>(&rig->loop, &rig->device, /*cache_pages=*/32,
                                   c.segment_blocks);
      if (pin) {
        fs->AttachDurableImage(&image);
      }
    };
    boot();
    // Live data stays near 75% of the device, so churn exhausts the free
    // segments quickly.
    const uint64_t live_limit = c.capacity * 3 / 4;

    std::vector<InodeNo> files;
    int next_name = 0;
    // Writes pages [first, first + n) of `ino`, predicting every allocation.
    auto write_pages = [&](InodeNo ino, PageIdx first, uint64_t n) {
      AllocView want = Snapshot(*fs);
      std::vector<BlockNo> predicted;
      for (PageIdx p = first; p < first + n; ++p) {
        Prediction pr = NaiveAppend(&want, pin);
        ASSERT_TRUE(pr.block.has_value()) << "model ran out of space";
        pins_mattered += pr.pins_mattered ? 1 : 0;
        predicted.push_back(*pr.block);
        if (Result<BlockNo> old = fs->Bmap(ino, p); old.ok()) {
          Drop(&want, *old);
        }
      }
      bool ok = false;
      fs->Write(ino, first * kPageSize, n * kPageSize, IoClass::kBestEffort,
                [&](const FsIoResult& r) { ok = r.status.ok(); });
      rig->loop.Run();
      ASSERT_TRUE(ok);
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(*fs->Bmap(ino, first + i), predicted[i]) << "page " << first + i;
      }
      ASSERT_EQ(Diff(want, Snapshot(*fs)), "");
    };
    auto checkpoint = [&] {
      // A checkpoint drops the pins down to the blocks it references.
      AllocView want = Snapshot(*fs);
      want.pinned = want.valid;
      bool committed = false;
      fs->Checkpoint([&] { committed = true; });
      rig->loop.Run();
      ASSERT_TRUE(committed);
      ASSERT_EQ(Diff(want, Snapshot(*fs)), "");
    };
    // With pins, blocks freed since the last checkpoint stay unusable; take
    // a checkpoint before an operation that could run out of space.
    auto reserve = [&](uint64_t blocks) {
      uint64_t usable = 0;
      for (BlockNo b = 0; b < c.capacity; ++b) {
        usable += (!fs->BlockValid(b) && !fs->PinnedBlock(b)) ? 1 : 0;
      }
      if (pin && usable < blocks + c.segment_blocks) {
        checkpoint();
      }
    };
    auto create_file = [&](uint64_t pages) {
      Result<InodeNo> ino = fs->CreateFile(StrFormat("/f%d", next_name++));
      ASSERT_TRUE(ino.ok());
      files.push_back(*ino);
      reserve(pages);
      write_pages(*ino, 0, pages);
    };

    while (fs->allocated_blocks() < live_limit) {
      create_file(1 + rng.Uniform(12));
      ASSERT_FALSE(HasFatalFailure());
    }
    if (pin) {
      // Crash and remount with the log head one segment past the
      // checkpoint's: the checkpoint's open segment comes back as the open
      // one, and the segment the head had moved on to comes back partly
      // written but not open, a state only recovery produces. Scattered
      // scans must stop at its write frontier.
      checkpoint();
      const SegmentNo head = fs->open_segment();
      uint64_t extra = 1 + rng.Uniform(c.segment_blocks / 2);
      while (fs->open_segment() == head || extra-- > 0) {
        InodeNo ino = files[rng.Uniform(files.size())];
        write_pages(ino, rng.Uniform(fs->ns().Get(ino)->PageCount()), 1);
        ASSERT_FALSE(HasFatalFailure());
      }
      const SegmentNo partial = fs->open_segment();
      const uint32_t partial_written = fs->segment(partial).written;
      fs->Sync([] {});  // make the post-checkpoint tail durable
      rig->loop.Run();
      rig->device.CrashFreeze();
      fs.reset();
      rig.reset();
      image.Thaw();
      boot();
      MountReport report;
      fs->Mount([&](const MountReport& r) { report = r; });
      rig->loop.Run();
      ASSERT_TRUE(report.status.ok()) << report.status.ToString();
      ASSERT_EQ(fs->open_segment(), head);
      ASSERT_EQ(fs->segment(partial).written, partial_written);
      ASSERT_LT(partial_written, c.segment_blocks);
      ASSERT_TRUE(fs->CheckInvariants().ok());
      files.clear();
      fs->ns().ForEachInode([&](const Inode& inode) {
        if (!inode.is_dir()) {
          files.push_back(inode.ino);
        }
      });
    }

    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(StrFormat("step %d", step));
      uint64_t op = rng.Uniform(100);
      if (op < 60) {
        // Overwrite a run of pages inside one file.
        InodeNo ino = files[rng.Uniform(files.size())];
        uint64_t pages = fs->ns().Get(ino)->PageCount();
        PageIdx first = rng.Uniform(pages);
        uint64_t n = 1 + rng.Uniform(std::min<uint64_t>(8, pages - first));
        reserve(n);
        write_pages(ino, first, n);
      } else if (op < 70 && fs->allocated_blocks() < live_limit) {
        create_file(1 + rng.Uniform(12));
      } else if (op < 80 && files.size() > 2) {
        size_t i = rng.Uniform(files.size());
        AllocView want = Snapshot(*fs);
        for (PageIdx p = 0; p < fs->ns().Get(files[i])->PageCount(); ++p) {
          Drop(&want, *fs->Bmap(files[i], p));
        }
        ASSERT_TRUE(fs->DeleteFile(files[i]).ok());
        files.erase(files.begin() + static_cast<long>(i));
        rig->loop.Run();
        ASSERT_EQ(Diff(want, Snapshot(*fs)), "");
      } else if (op < 85) {
        // Clean a random segment with invalid blocks, other than the log
        // head. The move phase re-appends the victims in ascending block
        // order, invalidating each old copy right after its new block is
        // allocated.
        std::vector<SegmentNo> candidates;
        for (SegmentNo s = 0; s < fs->segment_count(); ++s) {
          const SegmentInfo& info = fs->segment(s);
          if (s != fs->open_segment() && info.valid > 0 && info.valid < info.written) {
            candidates.push_back(s);
          }
        }
        if (candidates.empty()) {
          continue;
        }
        SegmentNo seg = candidates[rng.Uniform(candidates.size())];
        reserve(fs->segment(seg).valid);
        AllocView want = Snapshot(*fs);
        std::vector<FileSystem::BlockOwner> owners;
        std::vector<BlockNo> predicted;
        for (BlockNo b : fs->ValidBlocksOf(seg)) {
          owners.push_back(*fs->Rmap(b));
          Prediction pr = NaiveAppend(&want, pin);
          ASSERT_TRUE(pr.block.has_value()) << "model ran out of space";
          pins_mattered += pr.pins_mattered ? 1 : 0;
          predicted.push_back(*pr.block);
          Drop(&want, b);
        }
        CleanResult result;
        fs->CleanSegment(seg, IoClass::kIdle, [&](const CleanResult& r) { result = r; });
        rig->loop.Run();
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        ASSERT_EQ(result.blocks_moved, owners.size());
        for (size_t i = 0; i < owners.size(); ++i) {
          ASSERT_EQ(*fs->Bmap(owners[i].ino, owners[i].idx), predicted[i]) << "victim " << i;
        }
        ASSERT_EQ(Diff(want, Snapshot(*fs)), "");
      } else if (pin) {
        checkpoint();
      }
      ASSERT_FALSE(HasFatalFailure());
      Status invariants = fs->CheckInvariants();
      ASSERT_TRUE(invariants.ok()) << invariants.ToString();
    }
    // Every sequence must spend a good part of its allocations in
    // scattered mode, the mode under test.
    EXPECT_GT(fs->scattered_writes(), 100u);
  }
  // With pins, some scattered allocations must skip a hole a pin-blind scan
  // would have taken.
  if (c.durable_image) {
    EXPECT_GT(pins_mattered, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LogFsAllocModelTest,
    ::testing::Values(ModelCase{1024, 64, false}, ModelCase{1024, 64, true},
                      ModelCase{1000, 100, false}, ModelCase{1000, 100, true},
                      // 10 full 48-block segments and a 20-block tail.
                      ModelCase{500, 48, false}, ModelCase{500, 48, true},
                      // 130-block segments straddle word seams; 38-block tail.
                      ModelCase{1208, 130, false}, ModelCase{1208, 130, true}),
    CaseName);

}  // namespace
}  // namespace duet
