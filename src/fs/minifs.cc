#include "fs/minifs.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>

#include "blockdev/block_device.h"
#include "common/bytes.h"
#include "common/expect.h"

namespace tinca::fs {

namespace {
constexpr std::uint64_t kBlockSize = blockdev::kBlockSize;
constexpr std::uint64_t kFsMagic = 0x4D494E4946532121ULL;  // "MINIFS!!"
constexpr std::uint64_t kPtrsPerIndirect = kBlockSize / 8;
constexpr std::uint64_t kInodesPerBlock = kBlockSize / 128;
constexpr std::uint64_t kEntriesPerBlock = kBlockSize / 64;
constexpr std::uint64_t kNoIno = UINT64_MAX;

std::vector<std::string_view> split_path(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) parts.push_back(path.substr(i, j - i));
    i = j;
  }
  return parts;
}

// Lowest clear bit of `bits` in [from, limit), or `limit` if there is none.
// The bitmap is read a 64-bit word at a time; on the little-endian hosts
// the media layouts require, bit j of word w is bitmap bit 64·w + j.
// `bits` holds whole bitmap blocks, so every word the scan reads exists.
std::uint64_t first_clear_bit(const std::vector<std::uint8_t>& bits,
                              std::uint64_t from, std::uint64_t limit) {
  for (std::uint64_t w = from / 64; w * 64 < limit; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, bits.data() + w * 8, 8);
    word = ~word;
    if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
    if (word != 0)
      return std::min<std::uint64_t>(limit, w * 64 + std::countr_zero(word));
  }
  return limit;
}
}  // namespace

// ---------------------------------------------------------------------------
// Construction / mkfs / mount
// ---------------------------------------------------------------------------

MiniFs::MiniFs(backend::TxnBackend& backend, MiniFsConfig cfg)
    : backend_(backend), cfg_(cfg) {
  txn_budget_ = std::min(cfg_.max_txn_blocks, backend_.max_txn_blocks());
  TINCA_EXPECT(txn_budget_ >= 64, "transaction budget too small for MiniFs");
}

MiniFs::~MiniFs() = default;  // deliberately no implicit fsync: an unmount
                              // without fsync() behaves like a crash.

std::unique_ptr<MiniFs> MiniFs::mkfs(backend::TxnBackend& backend,
                                     MiniFsConfig cfg) {
  auto fsys = std::unique_ptr<MiniFs>(new MiniFs(backend, cfg));
  fsys->compute_geometry();
  fsys->inode_bitmap_.assign(fsys->geo_.ibmap_blocks * kBlockSize, 0);
  fsys->block_bitmap_.assign(fsys->geo_.bbmap_blocks * kBlockSize, 0);

  // Zero the metadata regions in budget-sized transactions; the superblock
  // is committed *last*, so a torn mkfs leaves a device that cleanly fails
  // the magic check at mount instead of a half-formatted file system.
  const std::vector<std::byte> zeros(kBlockSize, std::byte{0});
  const std::uint64_t batch = fsys->txn_budget_ / 2;
  std::uint64_t staged = 0;
  auto zero_region = [&](std::uint64_t start, std::uint64_t count) {
    for (std::uint64_t b = 0; b < count; ++b) {
      fsys->write_blk(start + b, zeros);
      if (++staged >= batch) {
        fsys->commit_txn();
        staged = 0;
      }
    }
  };
  zero_region(fsys->geo_.ibmap_start, fsys->geo_.ibmap_blocks);
  zero_region(fsys->geo_.bbmap_start, fsys->geo_.bbmap_blocks);
  zero_region(fsys->geo_.itable_start, fsys->geo_.itable_blocks);
  fsys->commit_txn();

  // Root directory (inode 0) and the superblock seal the format.
  const std::uint64_t root = fsys->alloc_inode();
  TINCA_ENSURE(root == kRootIno, "root inode must be 0");
  Inode rootnode;
  rootnode.type = 2;
  rootnode.direct.assign(kDirectPtrs, 0);
  fsys->write_inode(root, rootnode);
  fsys->write_superblock();
  fsys->commit_txn();
  return fsys;
}

std::unique_ptr<MiniFs> MiniFs::mount(backend::TxnBackend& backend,
                                      MiniFsConfig cfg) {
  auto fsys = std::unique_ptr<MiniFs>(new MiniFs(backend, cfg));
  fsys->load_superblock();
  fsys->load_bitmaps();
  return fsys;
}

void MiniFs::compute_geometry() {
  geo_.total_blocks = backend_.data_block_limit();
  TINCA_EXPECT(geo_.total_blocks >= 64, "device too small for MiniFs");
  geo_.inode_count = cfg_.inode_count;
  geo_.ibmap_start = 1;
  geo_.ibmap_blocks = (geo_.inode_count + kBlockSize * 8 - 1) / (kBlockSize * 8);
  geo_.bbmap_start = geo_.ibmap_start + geo_.ibmap_blocks;
  // One pass: bitmap must cover the data area, which depends on bitmap size;
  // size it for the whole device (slightly generous, never wrong).
  geo_.bbmap_blocks = (geo_.total_blocks + kBlockSize * 8 - 1) / (kBlockSize * 8);
  geo_.itable_start = geo_.bbmap_start + geo_.bbmap_blocks;
  geo_.itable_blocks = (geo_.inode_count + kInodesPerBlock - 1) / kInodesPerBlock;
  geo_.data_start = geo_.itable_start + geo_.itable_blocks;
  TINCA_EXPECT(geo_.data_start + 16 < geo_.total_blocks,
               "device too small after metadata reservation");
}

void MiniFs::write_superblock() {
  std::vector<std::byte> sb(kBlockSize, std::byte{0});
  std::uint64_t off = 0;
  for (std::uint64_t v :
       {kFsMagic, geo_.total_blocks, geo_.inode_count, geo_.ibmap_start,
        geo_.ibmap_blocks, geo_.bbmap_start, geo_.bbmap_blocks,
        geo_.itable_start, geo_.itable_blocks, geo_.data_start}) {
    store_le(sb.data() + off, v, 8);
    off += 8;
  }
  write_blk(0, sb);
}

void MiniFs::load_superblock() {
  BlockBuf buf;
  const std::span<const std::byte> sb = view_blk(0, buf);
  TINCA_EXPECT(load_le(sb.data(), 8) == kFsMagic, "not a MiniFs device");
  std::uint64_t off = 8;
  auto next = [&] {
    const std::uint64_t v = load_le(sb.data() + off, 8);
    off += 8;
    return v;
  };
  geo_.total_blocks = next();
  geo_.inode_count = next();
  geo_.ibmap_start = next();
  geo_.ibmap_blocks = next();
  geo_.bbmap_start = next();
  geo_.bbmap_blocks = next();
  geo_.itable_start = next();
  geo_.itable_blocks = next();
  geo_.data_start = next();
}

void MiniFs::load_bitmaps() {
  inode_bitmap_.assign(geo_.ibmap_blocks * kBlockSize, 0);
  block_bitmap_.assign(geo_.bbmap_blocks * kBlockSize, 0);
  BlockBuf buf;
  for (std::uint64_t b = 0; b < geo_.ibmap_blocks; ++b) {
    const std::span<const std::byte> blk = view_blk(geo_.ibmap_start + b, buf);
    std::memcpy(inode_bitmap_.data() + b * kBlockSize, blk.data(), kBlockSize);
  }
  for (std::uint64_t b = 0; b < geo_.bbmap_blocks; ++b) {
    const std::span<const std::byte> blk = view_blk(geo_.bbmap_start + b, buf);
    std::memcpy(block_bitmap_.data() + b * kBlockSize, blk.data(), kBlockSize);
  }
}

std::uint64_t MiniFs::max_file_bytes() const {
  return (kDirectPtrs + kPtrsPerIndirect) * kBlockSize;
}

// ---------------------------------------------------------------------------
// Page cache and compound transactions
// ---------------------------------------------------------------------------

void MiniFs::read_blk(std::uint64_t blkno, std::span<std::byte> dst) {
  auto it = staged_.find(blkno);
  if (it != staged_.end()) {
    std::copy(it->second.begin(), it->second.end(), dst.begin());
    return;
  }
  backend_.read_block(blkno, dst);
}

std::span<const std::byte> MiniFs::view_blk(std::uint64_t blkno,
                                            BlockBuf& buf) {
  const auto it = staged_.find(blkno);
  if (it != staged_.end()) return it->second;
  backend_.read_block(blkno, buf);
  return buf;
}

void MiniFs::write_blk(std::uint64_t blkno, std::span<const std::byte> data) {
  TINCA_EXPECT(data.size() == kBlockSize, "MiniFs writes whole blocks");
  staged_image(blkno).assign(data.begin(), data.end());
}

std::vector<std::byte>& MiniFs::staged_image(std::uint64_t blkno) {
  auto [it, inserted] = staged_.try_emplace(blkno);
  if (inserted) staged_order_.push_back(blkno);
  return it->second;
}

void MiniFs::commit_txn() {
  if (staged_.empty()) {
    ops_since_commit_ = 0;
    return;
  }
  backend_.begin();
  for (std::uint64_t blkno : staged_order_) backend_.stage(blkno, staged_[blkno]);
  backend_.commit();
  stats_.blocks_staged += staged_order_.size();
  ++stats_.txns_committed;
  staged_.clear();
  staged_order_.clear();
  ops_since_commit_ = 0;
}

void MiniFs::op_done(std::uint64_t worst_case_blocks) {
  ++stats_.ops;
  ++ops_since_commit_;
  if (ops_since_commit_ >= cfg_.group_commit_ops ||
      staged_.size() + worst_case_blocks + 16 >= txn_budget_)
    commit_txn();
}

void MiniFs::fsync() { commit_txn(); }

void MiniFs::sync_all() {
  commit_txn();
  backend_.flush();
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

void MiniFs::flush_bitmap_bit(bool inode_bitmap, std::uint64_t index) {
  const std::uint64_t bitmap_block = index / (kBlockSize * 8);
  const auto& bits = inode_bitmap ? inode_bitmap_ : block_bitmap_;
  const std::uint64_t start =
      inode_bitmap ? geo_.ibmap_start : geo_.bbmap_start;
  const auto* block = reinterpret_cast<const std::byte*>(bits.data()) +
                      bitmap_block * kBlockSize;
  // The first flip in a transaction stages the whole bitmap block; from
  // then on the staged image tracks the in-DRAM bitmap, so a later flip
  // copies just the byte it changed.
  std::vector<std::byte>& staged = staged_image(start + bitmap_block);
  if (staged.empty()) {
    staged.assign(block, block + kBlockSize);
  } else {
    const std::uint64_t at = index / 8 % kBlockSize;
    staged[at] = block[at];
  }
#ifndef NDEBUG
  TINCA_ENSURE(std::equal(staged.begin(), staged.end(), block),
               "staged bitmap block diverged from the in-DRAM bitmap");
#endif
}

std::uint64_t MiniFs::alloc_block() {
  const std::uint64_t data_blocks = geo_.total_blocks - geo_.data_start;
  const std::uint64_t i = first_clear_bit(block_bitmap_, block_low_, data_blocks);
  TINCA_EXPECT(i < data_blocks, "MiniFs: out of data blocks");
  block_bitmap_[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  block_low_ = i + 1;
  flush_bitmap_bit(false, i);
  // Fresh blocks start zeroed: a reused block may hold stale content that a
  // partial write would otherwise expose.
  staged_image(geo_.data_start + i).assign(kBlockSize, std::byte{0});
  return geo_.data_start + i;
}

void MiniFs::free_block(std::uint64_t blkno) {
  TINCA_EXPECT(blkno >= geo_.data_start && blkno < geo_.total_blocks,
               "free of a non-data block");
  const std::uint64_t i = blkno - geo_.data_start;
  TINCA_ENSURE(block_bitmap_[i / 8] & (1u << (i % 8)), "double free of block");
  block_bitmap_[i / 8] &= static_cast<std::uint8_t>(~(1u << (i % 8)));
  block_low_ = std::min(block_low_, i);
  flush_bitmap_bit(false, i);
}

std::uint64_t MiniFs::alloc_inode() {
  const std::uint64_t i = first_clear_bit(inode_bitmap_, 0, geo_.inode_count);
  TINCA_EXPECT(i < geo_.inode_count, "MiniFs: out of inodes");
  inode_bitmap_[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  flush_bitmap_bit(true, i);
  return i;
}

void MiniFs::free_inode(std::uint64_t ino) {
  TINCA_ENSURE(inode_bitmap_[ino / 8] & (1u << (ino % 8)), "double free of inode");
  inode_bitmap_[ino / 8] &= static_cast<std::uint8_t>(~(1u << (ino % 8)));
  flush_bitmap_bit(true, ino);
}

// ---------------------------------------------------------------------------
// Inodes
// ---------------------------------------------------------------------------

MiniFs::Inode MiniFs::read_inode(std::uint64_t ino) {
  TINCA_EXPECT(ino < geo_.inode_count, "inode number out of range");
  BlockBuf buf;
  const std::byte* p =
      view_blk(geo_.itable_start + ino / kInodesPerBlock, buf).data() +
      (ino % kInodesPerBlock) * kInodeBytes;
  Inode inode;
  inode.type = load_le(p, 8);
  inode.size = load_le(p + 8, 8);
  inode.direct.resize(kDirectPtrs);
  for (std::uint64_t d = 0; d < kDirectPtrs; ++d)
    inode.direct[d] = load_le(p + 16 + d * 8, 8);
  inode.indirect = load_le(p + 16 + kDirectPtrs * 8, 8);
  return inode;
}

void MiniFs::write_inode(std::uint64_t ino, const Inode& inode) {
  TINCA_EXPECT(ino < geo_.inode_count, "inode number out of range");
  BlockBuf blk;
  read_blk(geo_.itable_start + ino / kInodesPerBlock, blk);
  std::byte* p = blk.data() + (ino % kInodesPerBlock) * kInodeBytes;
  store_le(p, inode.type, 8);
  store_le(p + 8, inode.size, 8);
  for (std::uint64_t d = 0; d < kDirectPtrs; ++d)
    store_le(p + 16 + d * 8, d < inode.direct.size() ? inode.direct[d] : 0, 8);
  store_le(p + 16 + kDirectPtrs * 8, inode.indirect, 8);
  write_blk(geo_.itable_start + ino / kInodesPerBlock, blk);
}

// ---------------------------------------------------------------------------
// File block mapping
// ---------------------------------------------------------------------------

std::uint64_t MiniFs::file_block(Inode& inode, std::uint64_t index,
                                 bool allocate, bool* inode_dirty) {
  if (index < kDirectPtrs) {
    if (inode.direct[index] == 0) {
      if (!allocate) return 0;
      inode.direct[index] = alloc_block();
      if (inode_dirty) *inode_dirty = true;
    }
    return inode.direct[index];
  }
  const std::uint64_t ii = index - kDirectPtrs;
  TINCA_EXPECT(ii < kPtrsPerIndirect, "file exceeds maximum size");
  if (inode.indirect == 0) {
    if (!allocate) return 0;
    inode.indirect = alloc_block();
    if (inode_dirty) *inode_dirty = true;
  }
  BlockBuf buf;
  const std::span<const std::byte> iblk = view_blk(inode.indirect, buf);
  std::uint64_t ptr = load_le(iblk.data() + ii * 8, 8);
  if (ptr == 0) {
    if (!allocate) return 0;
    ptr = alloc_block();
    // alloc_block stages only the bitmap and the new block, so iblk still
    // holds the indirect block's image; only slot ii changes here.
    BlockBuf updated;
    std::copy(iblk.begin(), iblk.end(), updated.begin());
    store_le(updated.data() + ii * 8, ptr, 8);
    write_blk(inode.indirect, updated);
  }
  return ptr;
}

void MiniFs::free_file_blocks(Inode& inode) {
  for (std::uint64_t d = 0; d < kDirectPtrs; ++d)
    if (inode.direct[d]) {
      free_block(inode.direct[d]);
      inode.direct[d] = 0;
    }
  if (inode.indirect) {
    // free_block stages only bitmap blocks, so the view stays valid.
    BlockBuf buf;
    const std::span<const std::byte> iblk = view_blk(inode.indirect, buf);
    for (std::uint64_t i = 0; i < kPtrsPerIndirect; ++i) {
      const std::uint64_t ptr = load_le(iblk.data() + i * 8, 8);
      if (ptr) free_block(ptr);
    }
    free_block(inode.indirect);
    inode.indirect = 0;
  }
  inode.size = 0;
}

// ---------------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------------

std::uint64_t MiniFs::dir_lookup(std::uint64_t dir_ino, std::string_view name) {
  Inode dir = read_inode(dir_ino);
  TINCA_EXPECT(dir.type == 2, "lookup in a non-directory");
  const std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  BlockBuf buf;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const std::uint64_t blkno = file_block(dir, b, false, nullptr);
    if (blkno == 0) continue;
    const std::span<const std::byte> blk = view_blk(blkno, buf);
    for (std::uint64_t e = 0; e < kEntriesPerBlock; ++e) {
      const std::byte* p = blk.data() + e * kDirEntryBytes;
      if (static_cast<std::uint8_t>(p[8]) == 0) continue;  // unused
      const char* n = reinterpret_cast<const char*>(p + 9);
      if (name == std::string_view(n, strnlen(n, kNameMax)))
        return load_le(p, 8);
    }
  }
  return kNoIno;
}

void MiniFs::dir_add(std::uint64_t dir_ino, std::string_view name,
                     std::uint64_t ino) {
  TINCA_EXPECT(!name.empty() && name.size() <= kNameMax, "bad file name");
  Inode dir = read_inode(dir_ino);
  TINCA_EXPECT(dir.type == 2, "dir_add in a non-directory");
  const std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  BlockBuf blk;
  bool inode_dirty = false;

  auto write_entry = [&](std::byte* p) {
    store_le(p, ino, 8);
    p[8] = std::byte{1};
    std::memset(p + 9, 0, kNameMax + 1);
    std::memcpy(p + 9, name.data(), name.size());
  };

  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const std::uint64_t blkno = file_block(dir, b, false, nullptr);
    if (blkno == 0) continue;
    read_blk(blkno, blk);
    for (std::uint64_t e = 0; e < kEntriesPerBlock; ++e) {
      std::byte* p = blk.data() + e * kDirEntryBytes;
      if (static_cast<std::uint8_t>(p[8]) != 0) continue;
      write_entry(p);
      write_blk(blkno, blk);
      return;
    }
  }
  // No free slot: grow the directory by one block.
  const std::uint64_t blkno = file_block(dir, nblocks, true, &inode_dirty);
  read_blk(blkno, blk);
  write_entry(blk.data());
  write_blk(blkno, blk);
  dir.size = (nblocks + 1) * kBlockSize;
  write_inode(dir_ino, dir);
  (void)inode_dirty;
}

void MiniFs::dir_remove(std::uint64_t dir_ino, std::string_view name) {
  Inode dir = read_inode(dir_ino);
  const std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  BlockBuf blk;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const std::uint64_t blkno = file_block(dir, b, false, nullptr);
    if (blkno == 0) continue;
    read_blk(blkno, blk);
    for (std::uint64_t e = 0; e < kEntriesPerBlock; ++e) {
      std::byte* p = blk.data() + e * kDirEntryBytes;
      if (static_cast<std::uint8_t>(p[8]) == 0) continue;
      const char* n = reinterpret_cast<const char*>(p + 9);
      if (name == std::string_view(n, strnlen(n, kNameMax))) {
        p[8] = std::byte{0};
        write_blk(blkno, blk);
        return;
      }
    }
  }
  TINCA_EXPECT(false, "dir_remove: name not found");
}

std::uint64_t MiniFs::resolve(std::string_view path) {
  std::uint64_t ino = kRootIno;
  for (std::string_view part : split_path(path)) {
    ino = dir_lookup(ino, part);
    if (ino == kNoIno) return kNoIno;
  }
  return ino;
}

std::uint64_t MiniFs::resolve_parent(std::string_view path, std::string& leaf) {
  auto parts = split_path(path);
  TINCA_EXPECT(!parts.empty(), "path has no leaf component");
  leaf.assign(parts.back());
  std::uint64_t ino = kRootIno;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    ino = dir_lookup(ino, parts[i]);
    TINCA_EXPECT(ino != kNoIno, "parent directory does not exist");
  }
  return ino;
}

std::uint64_t MiniFs::make_node(std::string_view path, std::uint64_t type) {
  std::string leaf;
  const std::uint64_t parent = resolve_parent(path, leaf);
  TINCA_EXPECT(dir_lookup(parent, leaf) == kNoIno, "path already exists");
  const std::uint64_t ino = alloc_inode();
  Inode node;
  node.type = type;
  node.direct.assign(kDirectPtrs, 0);
  write_inode(ino, node);
  dir_add(parent, leaf, ino);
  return ino;
}

// ---------------------------------------------------------------------------
// Public namespace ops
// ---------------------------------------------------------------------------

void MiniFs::create(std::string_view path) {
  make_node(path, 1);
  ++stats_.creates;
  op_done(8);
}

void MiniFs::mkdir(std::string_view path) {
  make_node(path, 2);
  op_done(8);
}

void MiniFs::remove(std::string_view path) {
  std::string leaf;
  const std::uint64_t parent = resolve_parent(path, leaf);
  const std::uint64_t ino = dir_lookup(parent, leaf);
  TINCA_EXPECT(ino != kNoIno, "remove: no such file");
  Inode node = read_inode(ino);
  TINCA_EXPECT(node.type == 1, "remove: not a regular file");
  free_file_blocks(node);
  node.type = 0;
  write_inode(ino, node);
  free_inode(ino);
  dir_remove(parent, leaf);
  ++stats_.deletes;
  op_done(16);
}

void MiniFs::rename(std::string_view from, std::string_view to) {
  std::string from_leaf;
  const std::uint64_t from_parent = resolve_parent(from, from_leaf);
  const std::uint64_t ino = dir_lookup(from_parent, from_leaf);
  TINCA_EXPECT(ino != kNoIno, "rename: source does not exist");
  std::string to_leaf;
  const std::uint64_t to_parent = resolve_parent(to, to_leaf);
  TINCA_EXPECT(dir_lookup(to_parent, to_leaf) == kNoIno,
               "rename: destination already exists");
  // Link-then-unlink: a crash between the two commits at worst leaves the
  // inode reachable under both names within one compound transaction, which
  // commits atomically anyway.
  dir_add(to_parent, to_leaf, ino);
  dir_remove(from_parent, from_leaf);
  op_done(8);
}

bool MiniFs::exists(std::string_view path) { return resolve(path) != kNoIno; }

std::vector<std::string> MiniFs::list(std::string_view path) {
  const std::uint64_t ino = resolve(path);
  TINCA_EXPECT(ino != kNoIno, "list: no such directory");
  Inode dir = read_inode(ino);
  TINCA_EXPECT(dir.type == 2, "list: not a directory");
  std::vector<std::string> names;
  const std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  BlockBuf buf;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const std::uint64_t blkno = file_block(dir, b, false, nullptr);
    if (blkno == 0) continue;
    const std::span<const std::byte> blk = view_blk(blkno, buf);
    for (std::uint64_t e = 0; e < kEntriesPerBlock; ++e) {
      const std::byte* p = blk.data() + e * kDirEntryBytes;
      if (static_cast<std::uint8_t>(p[8]) == 0) continue;
      const char* n = reinterpret_cast<const char*>(p + 9);
      names.emplace_back(n, strnlen(n, kNameMax));
    }
  }
  return names;
}

// ---------------------------------------------------------------------------
// Data ops
// ---------------------------------------------------------------------------

void MiniFs::write(std::string_view path, std::uint64_t offset,
                   std::span<const std::byte> data) {
  const std::uint64_t ino = resolve(path);
  TINCA_EXPECT(ino != kNoIno, "write: no such file");
  Inode node = read_inode(ino);
  TINCA_EXPECT(node.type == 1, "write: not a regular file");
  TINCA_EXPECT(offset + data.size() <= max_file_bytes(), "file too large");

  BlockBuf blk;
  std::size_t done = 0;
  bool inode_dirty = false;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t bidx = pos / kBlockSize;
    const std::uint64_t boff = pos % kBlockSize;
    const std::size_t chunk =
        std::min<std::size_t>(kBlockSize - boff, data.size() - done);
    const std::uint64_t blkno = file_block(node, bidx, true, &inode_dirty);
    if (chunk == kBlockSize) {
      write_blk(blkno, data.subspan(done, chunk));
    } else {
      read_blk(blkno, blk);
      std::memcpy(blk.data() + boff, data.data() + done, chunk);
      write_blk(blkno, blk);
    }
    done += chunk;
  }
  if (offset + data.size() > node.size) {
    node.size = offset + data.size();
    inode_dirty = true;
  }
  if (inode_dirty || true) write_inode(ino, node);  // mtime-style update
  ++stats_.writes;
  op_done(data.size() / kBlockSize + 8);
}

void MiniFs::append(std::string_view path, std::span<const std::byte> data) {
  write(path, file_size(path), data);
}

std::size_t MiniFs::read(std::string_view path, std::uint64_t offset,
                         std::span<std::byte> dst) {
  const std::uint64_t ino = resolve(path);
  TINCA_EXPECT(ino != kNoIno, "read: no such file");
  Inode node = read_inode(ino);
  TINCA_EXPECT(node.type == 1, "read: not a regular file");
  if (offset >= node.size) return 0;
  const std::size_t want =
      std::min<std::size_t>(dst.size(), node.size - offset);

  BlockBuf buf;
  std::size_t done = 0;
  while (done < want) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t bidx = pos / kBlockSize;
    const std::uint64_t boff = pos % kBlockSize;
    const std::size_t chunk = std::min<std::size_t>(kBlockSize - boff, want - done);
    const std::uint64_t blkno = file_block(node, bidx, false, nullptr);
    if (blkno == 0) {
      std::memset(dst.data() + done, 0, chunk);  // hole
    } else {
      std::memcpy(dst.data() + done, view_blk(blkno, buf).data() + boff,
                  chunk);
    }
    done += chunk;
  }
  ++stats_.reads;
  op_done(0);
  return want;
}

void MiniFs::truncate(std::string_view path, std::uint64_t size) {
  const std::uint64_t ino = resolve(path);
  TINCA_EXPECT(ino != kNoIno, "truncate: no such file");
  Inode node = read_inode(ino);
  TINCA_EXPECT(node.type == 1, "truncate: not a regular file");
  TINCA_EXPECT(size <= max_file_bytes(), "truncate beyond maximum file size");

  if (size < node.size) {
    // Free every block wholly past the new end; zero the tail of the block
    // that straddles it so a later extension reads zeros.
    const std::uint64_t keep_blocks = (size + kBlockSize - 1) / kBlockSize;
    const std::uint64_t had_blocks = (node.size + kBlockSize - 1) / kBlockSize;
    for (std::uint64_t idx = keep_blocks; idx < had_blocks; ++idx) {
      if (idx < kDirectPtrs) {
        if (node.direct[idx]) {
          free_block(node.direct[idx]);
          node.direct[idx] = 0;
        }
      } else if (node.indirect) {
        BlockBuf iblk;
        read_blk(node.indirect, iblk);
        const std::uint64_t ii = idx - kDirectPtrs;
        const std::uint64_t ptr = load_le(iblk.data() + ii * 8, 8);
        if (ptr) {
          free_block(ptr);
          store_le(iblk.data() + ii * 8, 0, 8);
          write_blk(node.indirect, iblk);
        }
      }
    }
    if (keep_blocks <= kDirectPtrs && node.indirect) {
      free_block(node.indirect);
      node.indirect = 0;
    }
    if (size % kBlockSize != 0) {
      const std::uint64_t last = size / kBlockSize;
      const std::uint64_t blkno = file_block(node, last, false, nullptr);
      if (blkno != 0) {
        BlockBuf blk;
        read_blk(blkno, blk);
        std::fill(blk.begin() + static_cast<std::ptrdiff_t>(size % kBlockSize),
                  blk.end(), std::byte{0});
        write_blk(blkno, blk);
      }
    }
  }
  node.size = size;  // growth creates a hole; reads of holes return zeros
  write_inode(ino, node);
  op_done(8);
}

std::uint64_t MiniFs::file_size(std::string_view path) {
  const std::uint64_t ino = resolve(path);
  TINCA_EXPECT(ino != kNoIno, "file_size: no such file");
  return read_inode(ino).size;
}

// ---------------------------------------------------------------------------
// fsck
// ---------------------------------------------------------------------------

const char* fsck_code_name(FsckCode code) {
  switch (code) {
    case FsckCode::kNone: return "none";
    case FsckCode::kPtrOutOfRange: return "ptr-out-of-range";
    case FsckCode::kCrossLinkedBlock: return "cross-linked-block";
    case FsckCode::kBadDirType: return "bad-dir-type";
    case FsckCode::kBadDirSize: return "bad-dir-size";
    case FsckCode::kEntryBadInode: return "entry-bad-inode";
    case FsckCode::kEntryFreeInode: return "entry-free-inode";
    case FsckCode::kMultiplyLinkedInode: return "multiply-linked-inode";
    case FsckCode::kEntryUntypedInode: return "entry-untyped-inode";
    case FsckCode::kDupName: return "dup-name";
    case FsckCode::kFileTooLarge: return "file-too-large";
    case FsckCode::kBlockPastEof: return "block-past-eof";
    case FsckCode::kBlockLeak: return "block-leak";
    case FsckCode::kBlockFreeButUsed: return "block-free-but-used";
    case FsckCode::kInodeLeak: return "inode-leak";
    case FsckCode::kInodeFreeButLinked: return "inode-free-but-linked";
  }
  return "?";
}

FsckReport MiniFs::fsck() {
  FsckReport report;
  auto complain = [&](FsckCode code, std::string msg) {
    report.ok = false;
    report.codes.push_back(code);
    // Appends, not operator+: GCC 12 at -O3 warns -Wrestrict on the latter.
    std::string line = "[";
    line += fsck_code_name(code);
    line += "] ";
    line += msg;
    report.problems.push_back(std::move(line));
  };

  const std::uint64_t data_blocks = geo_.total_blocks - geo_.data_start;
  std::vector<std::uint8_t> reached_blocks(data_blocks, 0);
  std::vector<std::uint8_t> reached_inodes(geo_.inode_count, 0);

  auto mark_block = [&](std::uint64_t blkno, const char* what) {
    if (blkno < geo_.data_start || blkno >= geo_.total_blocks) {
      complain(FsckCode::kPtrOutOfRange,
               std::string(what) + ": pointer outside data area");
      return;
    }
    const std::uint64_t i = blkno - geo_.data_start;
    if (reached_blocks[i])
      complain(FsckCode::kCrossLinkedBlock,
               std::string(what) + ": block " + std::to_string(blkno) +
                   " doubly referenced");
    reached_blocks[i] = 1;
    ++report.used_blocks;
  };

  // Mark every payload block of `inode` reachable, and flag blocks that are
  // mapped wholly past the file's size ceiling — truncate must free them.
  auto mark_file_blocks = [&](const Inode& node, const char* what) {
    const std::uint64_t size_blocks =
        (node.size + kBlockSize - 1) / kBlockSize;
    for (std::uint64_t d = 0; d < kDirectPtrs; ++d)
      if (node.direct[d]) {
        mark_block(node.direct[d], what);
        if (d >= size_blocks)
          complain(FsckCode::kBlockPastEof,
                   std::string(what) + ": block mapped at index " +
                       std::to_string(d) + " past size " +
                       std::to_string(node.size));
      }
    if (node.indirect) {
      mark_block(node.indirect, what);
      // An indirect block with every slot empty and size within the direct
      // area is also past-EOF garbage; flag it via its populated slots.
      BlockBuf buf;
      const std::span<const std::byte> iblk = view_blk(node.indirect, buf);
      for (std::uint64_t i = 0; i < kPtrsPerIndirect; ++i) {
        const std::uint64_t ptr = load_le(iblk.data() + i * 8, 8);
        if (ptr == 0) continue;
        mark_block(ptr, what);
        if (kDirectPtrs + i >= size_blocks)
          complain(FsckCode::kBlockPastEof,
                   std::string(what) + ": indirect block mapped at index " +
                       std::to_string(kDirectPtrs + i) + " past size " +
                       std::to_string(node.size));
      }
    }
  };

  // Walk the tree from the root.
  std::vector<std::uint64_t> dirs{kRootIno};
  reached_inodes[kRootIno] = 1;
  BlockBuf buf;
  while (!dirs.empty()) {
    const std::uint64_t dino = dirs.back();
    dirs.pop_back();
    Inode dir = read_inode(dino);
    if (dir.type != 2) {
      complain(FsckCode::kBadDirType,
               "directory inode " + std::to_string(dino) + " has type " +
                   std::to_string(dir.type));
      continue;
    }
    if (dir.size % kBlockSize != 0)
      complain(FsckCode::kBadDirSize,
               "directory inode " + std::to_string(dino) + " size " +
                   std::to_string(dir.size) + " is not block-aligned");
    ++report.directories;
    // Account the directory's own blocks.
    for (std::uint64_t d = 0; d < kDirectPtrs; ++d)
      if (dir.direct[d]) mark_block(dir.direct[d], "dir direct");
    if (dir.indirect) {
      mark_block(dir.indirect, "dir indirect");
      BlockBuf ibuf;
      const std::span<const std::byte> iblk = view_blk(dir.indirect, ibuf);
      for (std::uint64_t i = 0; i < kPtrsPerIndirect; ++i) {
        const std::uint64_t ptr = load_le(iblk.data() + i * 8, 8);
        if (ptr) mark_block(ptr, "dir indirect leaf");
      }
    }
    // Visit children.
    std::set<std::string> names_seen;
    const std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      const std::uint64_t blkno = file_block(dir, b, false, nullptr);
      if (blkno == 0) continue;
      const std::span<const std::byte> blk = view_blk(blkno, buf);
      for (std::uint64_t e = 0; e < kEntriesPerBlock; ++e) {
        const std::byte* p = blk.data() + e * kDirEntryBytes;
        if (static_cast<std::uint8_t>(p[8]) == 0) continue;
        const char* n = reinterpret_cast<const char*>(p + 9);
        std::string name(n, strnlen(n, kNameMax));
        if (!names_seen.insert(name).second)
          complain(FsckCode::kDupName,
                   "directory inode " + std::to_string(dino) +
                       " has two entries named '" + name + "'");
        const std::uint64_t cino = load_le(p, 8);
        if (cino >= geo_.inode_count) {
          complain(FsckCode::kEntryBadInode,
                   "entry '" + name + "' points past the inode table (" +
                       std::to_string(cino) + ")");
          continue;
        }
        if (!(inode_bitmap_[cino / 8] & (1u << (cino % 8))))
          complain(FsckCode::kEntryFreeInode,
                   "entry '" + name + "' points to free inode " +
                       std::to_string(cino));
        if (reached_inodes[cino]) {
          complain(FsckCode::kMultiplyLinkedInode,
                   "inode " + std::to_string(cino) +
                       " reachable twice (hard links unsupported)");
          continue;
        }
        reached_inodes[cino] = 1;
        Inode child = read_inode(cino);
        if (child.type == 2) {
          dirs.push_back(cino);
        } else if (child.type == 1) {
          ++report.files;
          if (child.size > max_file_bytes())
            complain(FsckCode::kFileTooLarge,
                     "inode " + std::to_string(cino) + " size " +
                         std::to_string(child.size) +
                         " exceeds representable payload");
          else
            mark_file_blocks(child, "file");
          // Holes are legal: size may exceed the number of payload blocks.
        } else {
          complain(FsckCode::kEntryUntypedInode,
                   "entry '" + name + "' points to untyped inode " +
                       std::to_string(cino));
        }
      }
    }
  }

  // Bitmaps must match reachability exactly.
  for (std::uint64_t i = 0; i < data_blocks; ++i) {
    const bool marked = (block_bitmap_[i / 8] & (1u << (i % 8))) != 0;
    if (marked == (reached_blocks[i] != 0)) continue;
    if (marked)
      complain(FsckCode::kBlockLeak,
               "block " + std::to_string(geo_.data_start + i) +
                   " marked used but unreachable");
    else
      complain(FsckCode::kBlockFreeButUsed,
               "block " + std::to_string(geo_.data_start + i) +
                   " reachable but free in the bitmap");
  }
  for (std::uint64_t i = 0; i < geo_.inode_count; ++i) {
    const bool marked = (inode_bitmap_[i / 8] & (1u << (i % 8))) != 0;
    if (marked == (reached_inodes[i] != 0)) continue;
    if (marked)
      complain(FsckCode::kInodeLeak,
               "inode " + std::to_string(i) + " marked used but unreachable");
    else
      complain(FsckCode::kInodeFreeButLinked,
               "inode " + std::to_string(i) + " reachable but free");
  }
  return report;
}

}  // namespace tinca::fs
