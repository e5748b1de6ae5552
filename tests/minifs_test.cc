// Functional tests for MiniFs over both backends.
#include <gtest/gtest.h>

#include "backend/stack_builder.h"
#include "common/bytes.h"
#include "fs/minifs.h"

namespace tinca::fs {
namespace {

using backend::Stack;
using backend::StackConfig;
using backend::StackKind;

StackConfig fs_stack(StackKind kind) {
  StackConfig cfg;
  cfg.kind = kind;
  cfg.nvm_bytes = 16 << 20;
  cfg.disk_blocks = 1 << 14;
  cfg.classic.journal_blocks = 1024;
  cfg.tinca.ring_bytes = 128 * 1024;
  return cfg;
}

std::vector<std::byte> bytes_of(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> b(n);
  fill_pattern(b, seed);
  return b;
}

class MiniFsOnBackend : public ::testing::TestWithParam<StackKind> {
 protected:
  MiniFsOnBackend() : stack_(fs_stack(GetParam())) {
    fsys_ = MiniFs::mkfs(stack_.backend());
  }
  Stack stack_;
  std::unique_ptr<MiniFs> fsys_;
};

TEST_P(MiniFsOnBackend, FreshFsHasEmptyRoot) {
  EXPECT_TRUE(fsys_->list("/").empty());
  EXPECT_TRUE(fsys_->exists("/"));
  EXPECT_FALSE(fsys_->exists("/nope"));
}

TEST_P(MiniFsOnBackend, CreateListRemove) {
  fsys_->create("/a");
  fsys_->create("/b");
  auto names = fsys_->list("/");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  fsys_->remove("/a");
  EXPECT_FALSE(fsys_->exists("/a"));
  EXPECT_TRUE(fsys_->exists("/b"));
}

TEST_P(MiniFsOnBackend, WriteReadRoundTrip) {
  fsys_->create("/f");
  const auto data = bytes_of(10000, 42);
  fsys_->write("/f", 0, data);
  std::vector<std::byte> got(10000);
  EXPECT_EQ(fsys_->read("/f", 0, got), 10000u);
  EXPECT_EQ(got, data);
  EXPECT_EQ(fsys_->file_size("/f"), 10000u);
}

TEST_P(MiniFsOnBackend, PartialAndOffsetReads) {
  fsys_->create("/f");
  fsys_->write("/f", 0, bytes_of(8192, 1));
  std::vector<std::byte> got(4096);
  EXPECT_EQ(fsys_->read("/f", 6000, got), 2192u);
  EXPECT_EQ(fsys_->read("/f", 8192, got), 0u);
}

TEST_P(MiniFsOnBackend, OverwriteInPlace) {
  fsys_->create("/f");
  fsys_->write("/f", 0, bytes_of(4096, 1));
  fsys_->write("/f", 100, bytes_of(50, 2));
  std::vector<std::byte> got(4096);
  fsys_->read("/f", 0, got);
  const auto orig = bytes_of(4096, 1);
  const auto patch = bytes_of(50, 2);
  EXPECT_TRUE(std::equal(got.begin(), got.begin() + 100, orig.begin()));
  EXPECT_TRUE(std::equal(got.begin() + 100, got.begin() + 150, patch.begin()));
  EXPECT_TRUE(std::equal(got.begin() + 150, got.end(), orig.begin() + 150));
}

TEST_P(MiniFsOnBackend, AppendGrowsFile) {
  fsys_->create("/log");
  for (int i = 0; i < 10; ++i) fsys_->append("/log", bytes_of(1000, i));
  EXPECT_EQ(fsys_->file_size("/log"), 10000u);
  std::vector<std::byte> got(1000);
  fsys_->read("/log", 4000, got);
  EXPECT_EQ(got, bytes_of(1000, 4));
}

TEST_P(MiniFsOnBackend, LargeFileUsesIndirectBlocks) {
  fsys_->create("/big");
  const std::size_t size = 200 * 1024;  // beyond 12 direct blocks (48 KB)
  fsys_->write("/big", 0, bytes_of(size, 5));
  std::vector<std::byte> got(size);
  EXPECT_EQ(fsys_->read("/big", 0, got), size);
  EXPECT_EQ(fingerprint(got), fingerprint(bytes_of(size, 5)));
}

TEST_P(MiniFsOnBackend, MaxFileSizeEnforced) {
  fsys_->create("/huge");
  EXPECT_THROW(fsys_->write("/huge", fsys_->max_file_bytes(), bytes_of(1, 1)),
               ContractViolation);
}

TEST_P(MiniFsOnBackend, DirectoriesNest) {
  fsys_->mkdir("/d1");
  fsys_->mkdir("/d1/d2");
  fsys_->create("/d1/d2/f");
  EXPECT_TRUE(fsys_->exists("/d1/d2/f"));
  EXPECT_EQ(fsys_->list("/d1"), std::vector<std::string>{"d2"});
}

TEST_P(MiniFsOnBackend, ManyFilesPerDirectory) {
  fsys_->mkdir("/dir");
  for (int i = 0; i < 300; ++i)
    fsys_->create("/dir/file" + std::to_string(i));
  EXPECT_EQ(fsys_->list("/dir").size(), 300u);
  for (int i = 0; i < 300; i += 2)
    fsys_->remove("/dir/file" + std::to_string(i));
  EXPECT_EQ(fsys_->list("/dir").size(), 150u);
}

TEST_P(MiniFsOnBackend, DuplicateCreateRejected) {
  fsys_->create("/x");
  EXPECT_THROW(fsys_->create("/x"), ContractViolation);
}

TEST_P(MiniFsOnBackend, MissingFileOpsRejected) {
  EXPECT_THROW(fsys_->remove("/ghost"), ContractViolation);
  EXPECT_THROW(fsys_->write("/ghost", 0, bytes_of(1, 1)), ContractViolation);
  std::vector<std::byte> buf(8);
  EXPECT_THROW(fsys_->read("/ghost", 0, buf), ContractViolation);
}

TEST_P(MiniFsOnBackend, RemoveFreesSpaceForReuse) {
  fsys_->create("/a");
  fsys_->write("/a", 0, bytes_of(100 * 1024, 1));
  fsys_->remove("/a");
  // Freed blocks must be reusable many times over.
  for (int round = 0; round < 20; ++round) {
    const std::string path = "/r" + std::to_string(round);
    fsys_->create(path);
    fsys_->write(path, 0, bytes_of(100 * 1024, round));
    fsys_->remove(path);
  }
  fsys_->fsync();
  const FsckReport report = fsys_->fsck();
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
}

TEST_P(MiniFsOnBackend, FsckPassesAfterMixedWorkload) {
  fsys_->mkdir("/w");
  for (int i = 0; i < 50; ++i) {
    fsys_->create("/w/f" + std::to_string(i));
    fsys_->write("/w/f" + std::to_string(i), 0, bytes_of(5000 + i * 100, i));
  }
  for (int i = 0; i < 50; i += 3) fsys_->remove("/w/f" + std::to_string(i));
  fsys_->fsync();
  const FsckReport report = fsys_->fsck();
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
  EXPECT_EQ(report.directories, 2u);  // root + /w
}

TEST_P(MiniFsOnBackend, RemountSeesCommittedState) {
  fsys_->create("/persist");
  fsys_->write("/persist", 0, bytes_of(20000, 9));
  fsys_->fsync();
  auto remounted = MiniFs::mount(stack_.backend());
  EXPECT_TRUE(remounted->exists("/persist"));
  std::vector<std::byte> got(20000);
  EXPECT_EQ(remounted->read("/persist", 0, got), 20000u);
  EXPECT_EQ(fingerprint(got), fingerprint(bytes_of(20000, 9)));
}

TEST_P(MiniFsOnBackend, UncommittedOpsInvisibleAfterRemount) {
  fsys_->create("/durable");
  fsys_->fsync();
  fsys_->create("/volatile");  // staged, never fsynced
  auto remounted = MiniFs::mount(stack_.backend());
  EXPECT_TRUE(remounted->exists("/durable"));
  EXPECT_FALSE(remounted->exists("/volatile"));
}

INSTANTIATE_TEST_SUITE_P(Backends, MiniFsOnBackend,
                         ::testing::Values(StackKind::kTinca,
                                           StackKind::kClassic,
                                           StackKind::kUbj,
                                           StackKind::kShardedTinca),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case StackKind::kTinca: return "Tinca";
                             case StackKind::kClassic: return "Classic";
                             case StackKind::kShardedTinca: return "ShardedTinca";
                             default: return "Ubj";
                           }
                         });

// ---------------------------------------------------------------------------
// fsck problem codes: corrupt a committed image one invariant at a time and
// assert the checker reports exactly the machine-checkable code for it.
// One stack suffices — fsck only sees blocks through the TxnBackend surface.
// ---------------------------------------------------------------------------

// On-media inode field offsets (see minifs.cc: read_inode/write_inode).
constexpr std::uint64_t kInodeBytes = 128;
constexpr std::uint64_t kInodesPerBlock = 4096 / kInodeBytes;
constexpr std::uint64_t kTypeOff = 0;
constexpr std::uint64_t kSizeOff = 8;
constexpr std::uint64_t kDirect0Off = 16;
constexpr std::uint64_t kDirEntryBytes = 64;

class FsckCodes : public ::testing::Test {
 protected:
  FsckCodes() : stack_(fs_stack(StackKind::kTinca)) {
    fsys_ = MiniFs::mkfs(stack_.backend());
  }

  /// Read–modify–write one raw media block behind the file system's back
  /// (committed through the backend, so a remount sees it).
  template <typename Fn>
  void corrupt(std::uint64_t blkno, Fn mutate) {
    std::vector<std::byte> blk(4096);
    stack_.backend().read_block(blkno, blk);
    mutate(std::span<std::byte>(blk));
    stack_.backend().begin();
    stack_.backend().stage(blkno, blk);
    stack_.backend().commit();
  }

  /// Poke one little-endian u64 field of inode `ino` on media.
  void poke_inode(std::uint64_t ino, std::uint64_t field_off,
                  std::uint64_t value) {
    const MiniFs::Geometry& g = fsys_->geometry();
    corrupt(g.itable_start + ino / kInodesPerBlock, [&](std::span<std::byte> b) {
      store_le(b.data() + (ino % kInodesPerBlock) * kInodeBytes + field_off,
               value, 8);
    });
  }

  /// Read one little-endian u64 field of inode `ino` from media.
  std::uint64_t peek_inode(std::uint64_t ino, std::uint64_t field_off) {
    const MiniFs::Geometry& g = fsys_->geometry();
    std::vector<std::byte> blk(4096);
    stack_.backend().read_block(g.itable_start + ino / kInodesPerBlock, blk);
    return load_le(
        blk.data() + (ino % kInodesPerBlock) * kInodeBytes + field_off, 8);
  }

  /// Flip one bit of the inode (or block) allocation bitmap on media.
  void flip_bitmap_bit(bool inode_bitmap, std::uint64_t index) {
    const MiniFs::Geometry& g = fsys_->geometry();
    const std::uint64_t start = inode_bitmap ? g.ibmap_start : g.bbmap_start;
    corrupt(start + index / (4096 * 8), [&](std::span<std::byte> b) {
      b[(index / 8) % 4096] ^= static_cast<std::byte>(1u << (index % 8));
    });
  }

  /// Drop caches and re-mount so fsck sees the corrupted media.
  FsckReport fsck_fresh() {
    fsys_.reset();
    fsys_ = MiniFs::mount(stack_.backend());
    return fsys_->fsck();
  }

  Stack stack_;
  std::unique_ptr<MiniFs> fsys_;
};

// Root is inode 0; the first created file gets inode 1, the next inode 2.

TEST_F(FsckCodes, PtrOutOfRange) {
  fsys_->create("/f");
  fsys_->write("/f", 0, bytes_of(4096, 1));
  fsys_->fsync();
  poke_inode(1, kDirect0Off, fsys_->geometry().total_blocks + 7);
  const FsckReport r = fsck_fresh();
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.has(FsckCode::kPtrOutOfRange)) << r.summary();
}

TEST_F(FsckCodes, CrossLinkedBlock) {
  fsys_->create("/a");
  fsys_->create("/b");
  fsys_->write("/a", 0, bytes_of(4096, 1));
  fsys_->write("/b", 0, bytes_of(4096, 2));
  fsys_->fsync();
  poke_inode(2, kDirect0Off, peek_inode(1, kDirect0Off));
  const FsckReport r = fsck_fresh();
  EXPECT_TRUE(r.has(FsckCode::kCrossLinkedBlock)) << r.summary();
  EXPECT_TRUE(r.has(FsckCode::kBlockLeak)) << r.summary();  // b's old block
}

TEST_F(FsckCodes, BadDirType) {
  fsys_->create("/f");
  fsys_->fsync();
  poke_inode(0, kTypeOff, 1);  // root is "a file" now
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kBadDirType));
}

TEST_F(FsckCodes, BadDirSize) {
  fsys_->create("/f");
  fsys_->fsync();
  poke_inode(0, kSizeOff, peek_inode(0, kSizeOff) + 100);
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kBadDirSize));
}

TEST_F(FsckCodes, EntryBadInodeAndOrphanLeak) {
  fsys_->create("/f");
  fsys_->write("/f", 0, bytes_of(4096, 1));
  fsys_->fsync();
  // Point /f's root-directory entry past the inode table; /f's inode and
  // data block become unreachable.
  corrupt(peek_inode(0, kDirect0Off), [&](std::span<std::byte> b) {
    store_le(b.data(), fsys_->geometry().inode_count + 9, 8);
  });
  const FsckReport r = fsck_fresh();
  EXPECT_TRUE(r.has(FsckCode::kEntryBadInode)) << r.summary();
  EXPECT_TRUE(r.has(FsckCode::kInodeLeak)) << r.summary();
  EXPECT_TRUE(r.has(FsckCode::kBlockLeak)) << r.summary();
}

TEST_F(FsckCodes, EntryFreeInode) {
  fsys_->create("/f");
  fsys_->fsync();
  flip_bitmap_bit(true, 1);  // free /f's inode under the live entry
  const FsckReport r = fsck_fresh();
  EXPECT_TRUE(r.has(FsckCode::kEntryFreeInode)) << r.summary();
  EXPECT_TRUE(r.has(FsckCode::kInodeFreeButLinked)) << r.summary();
}

TEST_F(FsckCodes, MultiplyLinkedInode) {
  fsys_->create("/a");
  fsys_->create("/b");
  fsys_->fsync();
  // Rewrite /b's entry to point at /a's inode (a forbidden hard link).
  corrupt(peek_inode(0, kDirect0Off), [&](std::span<std::byte> b) {
    store_le(b.data() + kDirEntryBytes, 1, 8);
  });
  const FsckReport r = fsck_fresh();
  EXPECT_TRUE(r.has(FsckCode::kMultiplyLinkedInode)) << r.summary();
  EXPECT_TRUE(r.has(FsckCode::kInodeLeak)) << r.summary();  // b's inode
}

TEST_F(FsckCodes, EntryUntypedInode) {
  fsys_->create("/f");
  fsys_->fsync();
  poke_inode(1, kTypeOff, 0);
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kEntryUntypedInode));
}

TEST_F(FsckCodes, DupName) {
  fsys_->create("/a");
  fsys_->create("/b");
  fsys_->fsync();
  // Rename /b's entry to "a" in place: two live entries, one name.
  corrupt(peek_inode(0, kDirect0Off), [&](std::span<std::byte> b) {
    b[kDirEntryBytes + 9] = static_cast<std::byte>('a');
    b[kDirEntryBytes + 10] = std::byte{0};
  });
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kDupName));
}

TEST_F(FsckCodes, FileTooLarge) {
  fsys_->create("/f");
  fsys_->write("/f", 0, bytes_of(4096, 1));
  fsys_->fsync();
  poke_inode(1, kSizeOff, fsys_->max_file_bytes() + 4096);
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kFileTooLarge));
}

TEST_F(FsckCodes, BlockPastEof) {
  fsys_->create("/f");
  fsys_->write("/f", 0, bytes_of(2 * 4096, 1));
  fsys_->fsync();
  // Shrink the size on media without freeing the second block — exactly the
  // state a buggy truncate would leave behind.
  poke_inode(1, kSizeOff, 4096);
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kBlockPastEof));
}

TEST_F(FsckCodes, BlockLeak) {
  fsys_->create("/f");
  fsys_->fsync();
  const MiniFs::Geometry& g = fsys_->geometry();
  flip_bitmap_bit(false, g.total_blocks - g.data_start - 1);  // mark a free block used
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kBlockLeak));
}

TEST_F(FsckCodes, BlockFreeButUsed) {
  fsys_->create("/f");
  fsys_->write("/f", 0, bytes_of(4096, 1));
  fsys_->fsync();
  const std::uint64_t blkno = peek_inode(1, kDirect0Off);
  flip_bitmap_bit(false, blkno - fsys_->geometry().data_start);
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kBlockFreeButUsed));
}

TEST_F(FsckCodes, InodeLeak) {
  fsys_->create("/f");
  fsys_->fsync();
  flip_bitmap_bit(true, 5);  // mark an unused inode allocated
  EXPECT_TRUE(fsck_fresh().has(FsckCode::kInodeLeak));
}

TEST_F(FsckCodes, CleanImageStaysClean) {
  fsys_->mkdir("/d");
  fsys_->create("/d/f");
  fsys_->write("/d/f", 0, bytes_of(60 * 1024, 3));  // into the indirect block
  fsys_->fsync();
  const FsckReport r = fsck_fresh();
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.codes.empty());
}

// ---------------------------------------------------------------------------
// First-fit allocation: a freed block is reused before any never-used one,
// so a deleted file's dead bytes are overwritten where they sit in the cache
// instead of being written back.  The root directory's first block is data
// block 0, so the first file's blocks start at data block 1.
// ---------------------------------------------------------------------------

class FirstFit : public FsckCodes {
 protected:
  /// Committed direct block pointers of inode `ino`, up to its first hole.
  std::vector<std::uint64_t> direct_blocks(std::uint64_t ino) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t d = 0; d < 12; ++d) {
      const std::uint64_t blkno = peek_inode(ino, kDirect0Off + d * 8);
      if (blkno == 0) break;
      out.push_back(blkno);
    }
    return out;
  }

  /// Block number of data block `i`.
  std::uint64_t data(std::uint64_t i) const {
    return fsys_->geometry().data_start + i;
  }
};

TEST_F(FirstFit, RemovedFilesBlocksAreTheNextOnesReused) {
  fsys_->create("/a");
  fsys_->write("/a", 0, bytes_of(3 * 4096, 1));
  fsys_->create("/b");
  fsys_->write("/b", 0, bytes_of(2 * 4096, 2));
  fsys_->fsync();
  ASSERT_EQ(direct_blocks(1), (std::vector{data(1), data(2), data(3)}));
  ASSERT_EQ(direct_blocks(2), (std::vector{data(4), data(5)}));
  fsys_->remove("/a");
  fsys_->fsync();

  // /c takes /a's inode and its three freed blocks, lowest first, and only
  // then the lowest never-used block.
  fsys_->create("/c");
  fsys_->write("/c", 0, bytes_of(4 * 4096, 3));
  fsys_->fsync();
  EXPECT_EQ(direct_blocks(1),
            (std::vector{data(1), data(2), data(3), data(6)}));
  const FsckReport r = fsck_fresh();
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST_F(FirstFit, TruncatedBlocksAreReusedBeforeNeverUsedOnes) {
  fsys_->create("/a");
  fsys_->write("/a", 0, bytes_of(6 * 4096, 1));
  fsys_->fsync();
  fsys_->truncate("/a", 2 * 4096);  // frees data blocks 3..6
  fsys_->fsync();

  fsys_->create("/b");
  fsys_->write("/b", 0, bytes_of(3 * 4096, 2));
  fsys_->fsync();
  EXPECT_EQ(direct_blocks(1), (std::vector{data(1), data(2)}));
  EXPECT_EQ(direct_blocks(2), (std::vector{data(3), data(4), data(5)}));
  const FsckReport r = fsck_fresh();
  EXPECT_TRUE(r.ok) << r.summary();
}

}  // namespace
}  // namespace tinca::fs
