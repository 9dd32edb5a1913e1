// Tests for the shared FileSystem data path, instantiated through CowFs.
#include "src/fs/file_system.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/cowfs/cowfs.h"
#include "src/obs/obs.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystemTest() : rig_(100'000), fs_(&rig_.loop, &rig_.device, /*cache_pages=*/64) {}

  InodeNo MakeFile(const char* path, uint64_t bytes) {
    Result<InodeNo> ino = fs_.PopulateFile(path, bytes);
    EXPECT_TRUE(ino.ok()) << ino.status().ToString();
    return *ino;
  }

  FsIoResult ReadSync(InodeNo ino, ByteOff off, uint64_t len,
                      IoClass io_class = IoClass::kBestEffort) {
    FsIoResult out;
    bool done = false;
    fs_.Read(ino, off, len, io_class, [&](const FsIoResult& r) {
      out = r;
      done = true;
    });
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
    EXPECT_TRUE(done);
    return out;
  }

  FsIoResult WriteSync(InodeNo ino, ByteOff off, uint64_t len) {
    FsIoResult out;
    bool done = false;
    fs_.Write(ino, off, len, IoClass::kBestEffort, [&](const FsIoResult& r) {
      out = r;
      done = true;
    });
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
    EXPECT_TRUE(done);
    return out;
  }

  SimRig rig_;
  CowFs fs_;
};

TEST_F(FileSystemTest, PopulateAllocatesAndMaps) {
  InodeNo ino = MakeFile("/f", 10 * kPageSize);
  EXPECT_EQ(fs_.ns().Get(ino)->size, 10 * kPageSize);
  EXPECT_EQ(fs_.allocated_blocks(), 10u);
  for (PageIdx p = 0; p < 10; ++p) {
    Result<BlockNo> block = fs_.Bmap(ino, p);
    ASSERT_TRUE(block.ok());
    Result<FileSystem::BlockOwner> owner = fs_.Rmap(*block);
    ASSERT_TRUE(owner.ok());
    EXPECT_EQ(owner->ino, ino);
    EXPECT_EQ(owner->idx, p);
  }
}

TEST_F(FileSystemTest, ReadMissGoesToDiskAndCaches) {
  InodeNo ino = MakeFile("/f", 8 * kPageSize);
  FsIoResult first = ReadSync(ino, 0, 8 * kPageSize);
  EXPECT_TRUE(first.status.ok());
  EXPECT_EQ(first.pages_requested, 8u);
  EXPECT_EQ(first.pages_from_disk, 8u);
  EXPECT_EQ(first.pages_from_cache, 0u);
  EXPECT_EQ(first.device_ops, 1u);  // contiguous file -> one coalesced read

  FsIoResult second = ReadSync(ino, 0, 8 * kPageSize);
  EXPECT_EQ(second.pages_from_cache, 8u);
  EXPECT_EQ(second.pages_from_disk, 0u);
  EXPECT_EQ(second.device_ops, 0u);
}

TEST_F(FileSystemTest, PartialReadTouchesOnlyItsPages) {
  InodeNo ino = MakeFile("/f", 10 * kPageSize);
  FsIoResult r = ReadSync(ino, 3 * kPageSize, 2 * kPageSize);
  EXPECT_EQ(r.pages_requested, 2u);
  EXPECT_TRUE(fs_.cache().Contains(ino, 3));
  EXPECT_TRUE(fs_.cache().Contains(ino, 4));
  EXPECT_FALSE(fs_.cache().Contains(ino, 0));
}

TEST_F(FileSystemTest, ReadBeyondEofIsEmpty) {
  InodeNo ino = MakeFile("/f", 4 * kPageSize);
  FsIoResult r = ReadSync(ino, 10 * kPageSize, kPageSize);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.pages_requested, 0u);
}

TEST_F(FileSystemTest, ReadClampsToFileSize) {
  InodeNo ino = MakeFile("/f", 3 * kPageSize);
  FsIoResult r = ReadSync(ino, 0, 100 * kPageSize);
  EXPECT_EQ(r.pages_requested, 3u);
}

TEST_F(FileSystemTest, WriteCreatesDirtyPagesWithoutDeviceIo) {
  InodeNo ino = MakeFile("/f", 4 * kPageSize);
  uint64_t ops_before = rig_.device.stats().TotalOps(IoClass::kBestEffort);
  FsIoResult w = WriteSync(ino, 0, 2 * kPageSize);
  EXPECT_TRUE(w.status.ok());
  EXPECT_EQ(w.pages_requested, 2u);
  EXPECT_EQ(fs_.cache().DirtyCount(), 2u);
  // Writes complete in memory; flusher I/O happens later.
  EXPECT_EQ(rig_.device.stats().TotalOps(IoClass::kBestEffort), ops_before);
}

TEST_F(FileSystemTest, AppendExtendsFile) {
  InodeNo ino = MakeFile("/f", kPageSize);
  bool done = false;
  fs_.Append(ino, 3 * kPageSize, IoClass::kBestEffort, [&](const FsIoResult& r) {
    EXPECT_TRUE(r.status.ok());
    done = true;
  });
  rig_.loop.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fs_.ns().Get(ino)->size, 4 * kPageSize);
  EXPECT_TRUE(fs_.Bmap(ino, 3).ok());
}

TEST_F(FileSystemTest, WritebackPersistsTokensToDisk) {
  InodeNo ino = MakeFile("/f", 2 * kPageSize);
  WriteSync(ino, 0, 2 * kPageSize);
  uint64_t cached0 = fs_.cache().Peek(ino, 0)->data;
  bool synced = false;
  fs_.writeback().Sync([&] { synced = true; });
  rig_.loop.Run();
  ASSERT_TRUE(synced);
  EXPECT_EQ(fs_.cache().DirtyCount(), 0u);
  Result<BlockNo> block = fs_.Bmap(ino, 0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(fs_.DiskToken(*block), cached0);
  // Flusher I/O was performed at best-effort priority.
  EXPECT_GT(rig_.device.stats().ops[static_cast<int>(IoClass::kBestEffort)]
                                   [static_cast<int>(IoDir::kWrite)], 0u);
}

TEST_F(FileSystemTest, PageContentPrefersCache) {
  InodeNo ino = MakeFile("/f", kPageSize);
  Result<BlockNo> block = fs_.Bmap(ino, 0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(*fs_.PageContent(ino, 0), fs_.DiskToken(*block));
  WriteSync(ino, 0, kPageSize);  // dirty page, disk now stale
  EXPECT_EQ(*fs_.PageContent(ino, 0), fs_.cache().Peek(ino, 0)->data);
  EXPECT_NE(*fs_.PageContent(ino, 0), fs_.DiskToken(*block));
}

TEST_F(FileSystemTest, DeleteFileReleasesEverything) {
  InodeNo ino = MakeFile("/f", 5 * kPageSize);
  ReadSync(ino, 0, 5 * kPageSize);
  EXPECT_EQ(fs_.cache().CachedPagesOfInode(ino), 5u);
  ASSERT_TRUE(fs_.DeleteFile(ino).ok());
  EXPECT_EQ(fs_.cache().CachedPagesOfInode(ino), 0u);
  EXPECT_EQ(fs_.allocated_blocks(), 0u);
  EXPECT_FALSE(fs_.ns().Exists(ino));
  EXPECT_FALSE(fs_.Bmap(ino, 0).ok());
}

TEST_F(FileSystemTest, DeleteDirectoryFails) {
  InodeNo dir = *fs_.Mkdir("/d");
  EXPECT_EQ(fs_.DeleteFile(dir).code(), StatusCode::kInvalidArgument);
}

TEST_F(FileSystemTest, ReadOfMissingInodeFails) {
  FsIoResult r = ReadSync(12345, 0, kPageSize);
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
}

TEST_F(FileSystemTest, ReadAtIdleClassUsesIdleQueue) {
  InodeNo ino = MakeFile("/f", 4 * kPageSize);
  FsIoResult r = ReadSync(ino, 0, 4 * kPageSize, IoClass::kIdle);
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(rig_.device.stats().TotalOps(IoClass::kIdle), 0u);
  EXPECT_EQ(rig_.device.stats().TotalOps(IoClass::kBestEffort), 0u);
}

TEST_F(FileSystemTest, RedirtiedPageSurvivesWritebackRace) {
  InodeNo ino = MakeFile("/f", kPageSize);
  WriteSync(ino, 0, kPageSize);
  // Start a sync, then re-dirty the page while the flush I/O is in flight.
  bool synced = false;
  fs_.writeback().Sync([&] { synced = true; });
  fs_.Write(ino, 0, kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  EXPECT_TRUE(synced);
  // The final content must end up on disk eventually.
  bool synced2 = false;
  fs_.writeback().Sync([&] { synced2 = true; });
  rig_.loop.Run();
  ASSERT_TRUE(synced2);
  EXPECT_EQ(fs_.cache().DirtyCount(), 0u);
  Result<BlockNo> block = fs_.Bmap(ino, 0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(fs_.DiskToken(*block), fs_.cache().Peek(ino, 0)->data);
}

// Request formation: which device requests each data path submits, in
// order, read back from the kIoSubmit trace events (block, count, and
// class<<1|dir). Pins the coalescing of Read, ReadBlocks, ReadRawBlocks and
// WritebackPages.
class FileSystemRequestTest : public ::testing::Test {
 protected:
  struct Submit {
    uint64_t block;
    uint64_t count;
    uint64_t class_dir;
    bool operator==(const Submit&) const = default;
  };
  struct SubmitRecorder : obs::TraceSink {
    void OnTraceEvent(const obs::TraceEvent& event) override {
      if (event.kind == obs::TraceKind::kIoSubmit) {
        submits.push_back(Submit{event.a, event.b, event.c});
      }
    }
    std::vector<Submit> submits;
  };

  FileSystemRequestTest()
      : rig_(100'000), fs_(&rig_.loop, &rig_.device, /*cache_pages=*/64) {
    obs_.trace.AddSink(&recorder_);
  }
  ~FileSystemRequestTest() override { obs_.trace.RemoveSink(&recorder_); }

  static uint64_t ClassDir(IoClass io_class, IoDir dir) {
    return static_cast<uint64_t>(io_class) << 1 | static_cast<uint64_t>(dir);
  }
  InodeNo MakeFile(const char* path, uint64_t pages) {
    return *fs_.PopulateFile(path, pages * kPageSize);
  }
  void Write(InodeNo ino, PageIdx idx) {
    fs_.Write(ino, idx * kPageSize, kPageSize, IoClass::kBestEffort, nullptr);
  }
  void Sync() {
    bool synced = false;
    fs_.Sync([&] { synced = true; });
    rig_.loop.Run();
    ASSERT_TRUE(synced);
  }
  std::vector<Submit> TakeSubmits() { return std::exchange(recorder_.submits, {}); }

  // Installed before the device is built, so its trace events reach the
  // recorder.
  obs::ObsContext obs_;
  obs::ObsScope obs_scope_{&obs_};
  SubmitRecorder recorder_;
  SimRig rig_;
  CowFs fs_;
};

TEST_F(FileSystemRequestTest, ReadCoalescesMissesInBlockOrder) {
  InodeNo a = MakeFile("/a", 4);  // blocks 0-3
  MakeFile("/gap", 2);            // blocks 4-5
  for (PageIdx p = 4; p < 8; ++p) {
    Write(a, p);  // appended after the gap: blocks 6-9
  }
  Write(a, 0);  // COW of page 0: block 10
  Sync();
  EXPECT_EQ(fs_.Bmap(a, 0).value(), 10u);
  EXPECT_EQ(fs_.Bmap(a, 4).value(), 6u);
  fs_.cache().RemoveInode(a);
  bool done = false;
  fs_.Read(a, kPageSize, kPageSize, IoClass::kIdle,
           [&](const FsIoResult&) { done = true; });  // caches page 1
  rig_.loop.Run();
  ASSERT_TRUE(done);
  TakeSubmits();

  FsIoResult out;
  fs_.Read(a, 0, 8 * kPageSize, IoClass::kIdle, [&](const FsIoResult& r) { out = r; });
  rig_.loop.Run();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.pages_from_cache, 1u);
  EXPECT_EQ(out.pages_from_disk, 7u);
  EXPECT_EQ(out.device_ops, 2u);
  // Misses at blocks 10, 2, 3, 6, 7, 8, 9 (page order) become two requests
  // in block order; page 1's block 1 is cached and splits block 0's extent.
  uint64_t read = ClassDir(IoClass::kIdle, IoDir::kRead);
  EXPECT_EQ(TakeSubmits(), (std::vector<Submit>{{2, 2, read}, {6, 5, read}}));
}

TEST_F(FileSystemRequestTest, ReadBlocksSortsAndDropsDuplicates) {
  MakeFile("/a", 12);
  TakeSubmits();
  RawReadResult out;
  fs_.ReadBlocks({9, 2, 3, 9, 7, 2, 8}, IoClass::kIdle,
                 [&](const RawReadResult& r) { out = r; });
  rig_.loop.Run();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.blocks_read, 5u);
  EXPECT_EQ(out.device_ops, 2u);
  uint64_t read = ClassDir(IoClass::kIdle, IoDir::kRead);
  EXPECT_EQ(TakeSubmits(), (std::vector<Submit>{{2, 2, read}, {7, 3, read}}));
}

TEST_F(FileSystemRequestTest, ReadRawBlocksSkipsUnallocatedGaps) {
  MakeFile("/a", 4);             // blocks 0-3
  InodeNo b = MakeFile("/b", 3); // blocks 4-6
  MakeFile("/c", 2);             // blocks 7-8
  ASSERT_TRUE(fs_.DeleteFile(b).ok());
  TakeSubmits();
  RawReadResult out;
  fs_.ReadRawBlocks(1, 10, IoClass::kIdle, /*populate_cache=*/false,
                    [&](const RawReadResult& r) { out = r; });
  rig_.loop.Run();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.blocks_read, 5u);
  EXPECT_EQ(out.device_ops, 2u);
  uint64_t read = ClassDir(IoClass::kIdle, IoDir::kRead);
  EXPECT_EQ(TakeSubmits(), (std::vector<Submit>{{1, 3, read}, {7, 2, read}}));
}

TEST_F(FileSystemRequestTest, WritebackCoalescesOnlyAdjacentDirtyBlocks) {
  InodeNo a = MakeFile("/a", 8);  // blocks 0-7
  InodeNo x = MakeFile("/x", 1);  // block 8
  MakeFile("/y", 1);              // block 9
  InodeNo z = MakeFile("/z", 1);  // block 10
  MakeFile("/w", 1);              // block 11
  ASSERT_TRUE(fs_.DeleteFile(x).ok());
  ASSERT_TRUE(fs_.DeleteFile(z).ok());
  // Each COW takes the first free block after the old one, and every COW
  // frees the old block for the next.
  Write(a, 7);  // block 8; frees 7
  Write(a, 2);  // block 7; frees 2
  Write(a, 0);  // block 2; frees 0
  Write(a, 3);  // block 10; frees 3
  EXPECT_EQ(fs_.Bmap(a, 7).value(), 8u);
  EXPECT_EQ(fs_.Bmap(a, 2).value(), 7u);
  EXPECT_EQ(fs_.Bmap(a, 0).value(), 2u);
  EXPECT_EQ(fs_.Bmap(a, 3).value(), 10u);
  TakeSubmits();
  Sync();
  // Dirty blocks 8, 7, 2, 10 (write order) go out in block order, 7 and 8
  // as one request; Sync's device flush follows.
  uint64_t write = ClassDir(IoClass::kBestEffort, IoDir::kWrite);
  EXPECT_EQ(TakeSubmits(), (std::vector<Submit>{
                               {2, 1, write}, {7, 2, write}, {10, 1, write}, {0, 0, write}}));
  EXPECT_EQ(fs_.cache().DirtyCount(), 0u);
}

}  // namespace
}  // namespace duet
