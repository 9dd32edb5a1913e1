// Mount-time recovery against malformed checkpoint metadata. Mount must
// return a Status for a payload it cannot trust, or mount it so that fsck
// completes and reports what is wrong; it must never crash, hang or run out
// of memory. Each targeted case below once did one of those.
#include <sys/resource.h>

#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cowfs/cowfs.h"
#include "src/fs/meta_codec.h"
#include "src/logfs/logfs.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

constexpr uint64_t kCapacity = 2048;
constexpr uint32_t kSlotMagic = 0x444b5054;    // meta_codec's slot magic
constexpr uint32_t kCursorMagic = 0x43525352;  // and its cursor magic
constexpr InodeNo kRootIno = Namespace::kRootIno;

enum class FsKind { kCow, kLog };

const char* Name(FsKind kind) { return kind == FsKind::kCow ? "cowfs" : "logfs"; }
void PrintTo(FsKind kind, std::ostream* os) { *os << Name(kind); }

// The slot key each file system commits its checkpoints under.
std::string SlotKey(FsKind kind) { return kind == FsKind::kCow ? "cowfs.sb" : "logfs.ckpt"; }

std::unique_ptr<FileSystem> MakeFs(FsKind kind, SimRig* rig) {
  if (kind == FsKind::kCow) {
    return std::make_unique<CowFs>(&rig->loop, &rig->device, /*cache_pages=*/64);
  }
  return std::make_unique<LogFs>(&rig->loop, &rig->device, /*cache_pages=*/64,
                                 /*segment_blocks=*/64);
}

struct Outcome {
  bool mounted = false;  // the mount callback ran
  MountReport mount;
  FsckReport fsck;  // filled when the mount succeeded
};

// Mounts a fresh file system of `kind` over `image` and, if that succeeds,
// runs fsck on it.
Outcome MountAndCheck(FsKind kind, DurableImage* image) {
  SimRig rig(kCapacity, Micros(50));
  std::unique_ptr<FileSystem> fs = MakeFs(kind, &rig);
  fs->AttachDurableImage(image);
  Outcome out;
  fs->Mount([&](const MountReport& r) {
    out.mount = r;
    out.mounted = true;
  });
  rig.loop.Run();
  if (out.mounted && out.mount.status.ok()) {
    out.fsck = fs->CheckConsistency();
  }
  return out;
}

// One inode record of a checkpoint's namespace.
struct InodeRecord {
  InodeNo ino;
  bool dir;
  uint64_t size;
  InodeNo parent;
  std::string name;
};

// The payload head FileSystem writes for every file system: the inode table,
// then the extent maps (each an inode and its page -> block list).
void PutNamespaceAndMaps(ByteWriter* w, InodeNo next_ino,
                         const std::vector<InodeRecord>& inodes,
                         const std::vector<std::pair<InodeNo, std::vector<BlockNo>>>& maps) {
  w->U64(next_ino);
  w->U64(inodes.size());
  for (const InodeRecord& inode : inodes) {
    w->U64(inode.ino);
    w->U8(inode.dir ? 1 : 0);
    w->U64(inode.size);
    w->U64(inode.parent);
    w->Str(inode.name);
  }
  w->U64(maps.size());
  for (const auto& [ino, blocks] : maps) {
    w->U64(ino);
    w->U64(blocks.size());
    for (BlockNo block : blocks) {
      w->U64(block);
    }
  }
}

const InodeRecord kRoot{kRootIno, true, 0, kInvalidInode, ""};

// A cowfs superblock with the given namespace and no snapshots.
std::vector<uint8_t> CowPayload(InodeNo next_ino, const std::vector<InodeRecord>& inodes,
                                const std::vector<std::pair<InodeNo, std::vector<BlockNo>>>&
                                    maps = {}) {
  ByteWriter w;
  PutNamespaceAndMaps(&w, next_ino, inodes, maps);
  w.U64(0);  // snapshots
  w.U64(1);  // next snapshot id
  return w.Take();
}

Outcome MountCowPayload(const std::vector<uint8_t>& payload) {
  DurableImage image(kCapacity);
  CommitCheckpointSlot(&image, SlotKey(FsKind::kCow), 1, payload);
  return MountAndCheck(FsKind::kCow, &image);
}

// Runs in a death-test child: caps CPU time and, outside AddressSanitizer
// builds (which reserve terabytes of shadow address space), the address
// space, so a defect that loops or allocates without bound kills the child
// quickly instead of stalling or exhausting the host.
void LimitChildResources() {
  rlimit cpu{10, 10};
  setrlimit(RLIMIT_CPU, &cpu);
#if !defined(__SANITIZE_ADDRESS__)
  rlimit as{uint64_t{1} << 30, uint64_t{1} << 30};
  setrlimit(RLIMIT_AS, &as);
#endif
}

TEST(MalformedCheckpointTest, ParentMissingOrNotADirectoryIsCorruption) {
  Outcome missing = MountCowPayload(CowPayload(3, {kRoot, {2, false, 0, 9, "f"}}));
  ASSERT_TRUE(missing.mounted);
  EXPECT_EQ(missing.mount.status.code(), StatusCode::kCorruption);

  Outcome file_parent = MountCowPayload(
      CowPayload(4, {kRoot, {2, false, 0, kRootIno, "f"}, {3, false, 0, 2, "g"}}));
  ASSERT_TRUE(file_parent.mounted);
  EXPECT_EQ(file_parent.mount.status.code(), StatusCode::kCorruption);
}

TEST(MalformedCheckpointTest, NamespaceThatIsNotOneTreeIsCorruption) {
  struct Case {
    const char* what;
    std::vector<uint8_t> payload;
  };
  std::vector<Case> cases = {
      {"parent cycle", CowPayload(4, {kRoot, {2, true, 0, 3, "a"}, {3, true, 0, 2, "b"}})},
      {"duplicate name",
       CowPayload(4, {kRoot, {2, false, 0, kRootIno, "f"}, {3, false, 0, kRootIno, "f"}})},
      {"inode number not below the next",
       CowPayload(2, {kRoot, {2, false, 0, kRootIno, "f"}})},
      {"root not a directory", CowPayload(2, {{kRootIno, false, 0, kInvalidInode, ""}})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Outcome out = MountCowPayload(c.payload);
    ASSERT_TRUE(out.mounted);
    EXPECT_EQ(out.mount.status.code(), StatusCode::kCorruption);
  }
  // The same shapes, made whole, mount clean.
  Outcome ok = MountCowPayload(CowPayload(
      4, {kRoot, {2, true, 0, kRootIno, "a"}, {3, true, 0, 2, "b"}}));
  ASSERT_TRUE(ok.mount.status.ok()) << ok.mount.status.ToString();
  EXPECT_TRUE(ok.fsck.clean());
}

// A snapshot claiming 2^40 blocks in a payload that ends right after the
// claim: restore must stop at the end of the bytes, not allocate the claim.
TEST(MalformedCheckpointTest, SnapshotBlockClaimIsBoundedByThePayload) {
  ByteWriter w;
  PutNamespaceAndMaps(&w, 2, {kRoot}, {});
  w.U64(1);                   // one snapshot
  w.U64(1);                   // its id
  w.U64(1);                   // one file
  w.U64(2);                   // its inode
  w.U64(0);                   // its size
  w.U64(uint64_t{1} << 40);   // and the block count claimed; no blocks follow
  std::vector<uint8_t> payload = w.Take();
  EXPECT_EXIT(
      {
        LimitChildResources();
        Outcome out = MountCowPayload(payload);
        std::exit(out.mounted && out.mount.status.code() == StatusCode::kCorruption ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// A file whose size claims 2^50 pages but whose extent map holds one: fsck
// walks the map, and counts the short map as one structural error.
TEST(MalformedCheckpointTest, HugeFileSizeFsckIsBoundedByTheExtentMap) {
  std::vector<uint8_t> payload = CowPayload(
      3, {kRoot, {2, false, uint64_t{1} << 62, kRootIno, "f"}}, {{2, {5}}});
  EXPECT_EXIT(
      {
        LimitChildResources();
        Outcome out = MountCowPayload(payload);
        bool as_expected = out.mounted && out.mount.status.ok() &&
                           out.fsck.structural_errors == 1 && out.fsck.checksum_errors == 0;
        std::exit(as_expected ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// A maintenance cursor claiming 2^32 - 1 words in a blob that holds none is
// no cursor; reading it must not allocate the claim.
TEST(MalformedCheckpointTest, CursorWordCountIsBoundedByTheBlob) {
  DurableImage image(kCapacity);
  ByteWriter w;
  w.U32(kCursorMagic);
  w.U32(~uint32_t{0});  // words claimed; none follow
  w.U32(0);             // CRC
  image.PutMeta("cursor", w.Take());
  EXPECT_EXIT(
      {
        LimitChildResources();
        std::exit(GetCursorMeta(image, "cursor").has_value() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

// A slot whose payload size makes header + payload + CRC wrap around 2^64
// is not a valid slot: there is no checkpoint to load.
TEST(MalformedCheckpointTest, SlotWithWrappingPayloadSizeIsIgnored) {
  DurableImage image(kCapacity);
  ByteWriter w;
  w.U32(kSlotMagic);
  w.U64(1);                   // generation
  w.U64(~uint64_t{0} - 10);   // payload size: 2^64 - 11
  w.U64(0);                   // a few bytes of "payload"
  image.PutMeta(SlotKey(FsKind::kCow) + ".0", w.Take());
  EXPECT_FALSE(LoadNewestCheckpoint(image, SlotKey(FsKind::kCow)).has_value());
  Outcome out = MountAndCheck(FsKind::kCow, &image);
  ASSERT_TRUE(out.mounted);
  EXPECT_EQ(out.mount.status.code(), StatusCode::kNotFound);
}

// Builds a small stack of `kind` on `image` and returns its newest
// checkpoint: a directory and three files, a snapshot on cowfs, a rewrite the
// checkpoint commits, then rewrites synced after it, which logfs rolls
// forward at mount and cowfs rolls back.
LoadedCheckpoint BuildCheckpointed(FsKind kind, DurableImage* image) {
  SimRig rig(kCapacity, Micros(50));
  std::unique_ptr<FileSystem> fs = MakeFs(kind, &rig);
  fs->AttachDurableImage(image);
  EXPECT_TRUE(fs->Mkdir("/d").ok());
  InodeNo a = *fs->PopulateFile("/d/a", 6 * kPageSize);
  InodeNo b = *fs->PopulateFile("/d/b", 3 * kPageSize + 100);
  EXPECT_TRUE(fs->PopulateFile("/c", 2 * kPageSize).ok());
  fs->SnapshotToDurable();
  if (kind == FsKind::kCow) {
    EXPECT_TRUE(static_cast<CowFs&>(*fs).CreateSnapshot().ok());
  }
  fs->Write(a, 0, kPageSize, IoClass::kBestEffort, nullptr);
  bool committed = false;
  fs->Checkpoint([&] { committed = true; });
  rig.loop.Run();
  EXPECT_TRUE(committed);
  fs->Write(a, 2 * kPageSize, 2 * kPageSize, IoClass::kBestEffort, nullptr);
  fs->Write(b, 0, kPageSize, IoClass::kBestEffort, nullptr);
  fs->Sync([] {});
  rig.loop.Run();
  return *LoadNewestCheckpoint(*image, SlotKey(kind));
}

class CheckpointMutationTest : public ::testing::TestWithParam<FsKind> {};

// Seeded mutations of a real checkpoint, resealed under a valid CRC so that
// they reach the restore path: one to three bytes changed, and sometimes the
// payload cut short. Every mount must come back, either with an error
// status or mounted with fsck run to completion.
TEST_P(CheckpointMutationTest, EveryMutationIsRejectedOrAudited) {
  constexpr uint64_t kSeeds = 1000;
  const std::string key = SlotKey(GetParam());
  DurableImage image(kCapacity);
  LoadedCheckpoint intact = BuildCheckpointed(GetParam(), &image);
  Outcome baseline = MountAndCheck(GetParam(), &image);
  ASSERT_TRUE(baseline.mount.status.ok()) << baseline.mount.status.ToString();
  ASSERT_TRUE(baseline.fsck.clean());

  uint64_t rejected = 0;
  uint64_t audited = 0;  // mounted, and fsck found something wrong
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    std::vector<uint8_t> payload = intact.payload;
    for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
      payload[rng.Uniform(payload.size())] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    if (rng.Chance(0.2)) {
      payload.resize(rng.Uniform(payload.size()));
    }
    // A higher generation than every earlier seed's: mount loads this one.
    CommitCheckpointSlot(&image, key, intact.generation + seed, payload);
    Outcome out = MountAndCheck(GetParam(), &image);
    ASSERT_TRUE(out.mounted) << "seed " << seed;
    if (!out.mount.status.ok()) {
      ++rejected;
    } else if (!out.fsck.clean()) {
      ++audited;
    }
  }
  // The sweep reaches both outcomes: some payloads fail to parse, others get
  // through restore into fsck.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(audited, 0u);
}

std::string FsName(const ::testing::TestParamInfo<FsKind>& param) {
  return Name(param.param);
}

INSTANTIATE_TEST_SUITE_P(BothFileSystems, CheckpointMutationTest,
                         ::testing::Values(FsKind::kCow, FsKind::kLog), FsName);

}  // namespace
}  // namespace duet
