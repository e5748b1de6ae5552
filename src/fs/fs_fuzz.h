// File-system-level fault-fuzz / model-check harness for MiniFs, shared by
// tests/fs_fuzz_test.cc and bench/bench_fs_fuzz_sweep.cc.
//
// Where src/backend/fault_fuzz.h checks the *block* transactional contract,
// this harness checks the contract the paper actually sells (§2.3, §5.1):
// run a file system over the cache stack, cut power at arbitrary points,
// and after recovery the visible tree must equal the application's view at
// some fsync boundary — the last committed compound transaction, or
// committed + the one transaction that was mid-commit — and fsck() must be
// clean.
//
// It is the MiniFs workload for the crash-campaign engine
// (src/backend/fuzz_common.h): a random, model-validated op history
// (create/mkdir/remove/rename/write/append/truncate/read/fsync, path- and
// size-skewed) mirrored into a DRAM reference model that is snapshotted at
// every commit boundary.  A sweep mode (run_fs_crash_sweep) replays one
// fixed op script and steps the injector through every NVM-store point and
// every torn disk-write site of its final compound commit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "backend/fuzz_common.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "fs/minifs.h"

namespace tinca::fs {

/// Deliberate fs-level harness sabotage for oracle self-tests ("does the
/// fs-level oracle actually catch corruption the block image check
/// cannot?").  kNone in every real campaign.  Stack-level sabotage (a
/// cleaner skipping its flush, a commit record staged without its clflush)
/// is armed through the shared FuzzOptions::sabotage instead.
enum class FsSabotage : std::uint8_t {
  kNone = 0,
  /// After the final fsync, overwrite one committed *data* block behind
  /// MiniFs's back, updating the shim's bookkeeping so the block-image check
  /// passes.  Only the tree-vs-model comparison can catch it.
  kCorruptData,
  /// Same, but flip bits in the block allocation bitmap.  Only fsck()'s
  /// bitmap cross-check can catch it.
  kCorruptBitmap,
};

/// Parameters of one fs-level fuzz campaign: the shared campaign options
/// (stack, disk faults, cleaner, group commit, stack-level sabotage) at the
/// fs-level defaults, plus the MiniFs workload.  The block workload's knobs
/// (txns_per_schedule, max_blocks_per_txn, data_blocks) do not apply, and
/// group_commit arms only the bare sharded stack's per-shard batcher:
/// MiniFs drives one transaction at a time.
struct FsFuzzOptions : backend::FuzzOptions {
  FsFuzzOptions() {
    schedules = 100;
    // Lower disk fault rates than the block level: one fs op can cost
    // dozens of block ops.
    transient_read_rate = 0.005;
    transient_write_rate = 0.01;
    bad_sector_rate = 0.0005;
    torn_write_rate = 0.0005;
    crash_point_range = 600;
  }

  /// File-system operations attempted per schedule.
  std::uint32_t ops_per_schedule = 36;
  /// MiniFs knobs: small inode table (fast mkfs) and a short group-commit
  /// window (many small compound txns → many commit boundaries to cut).
  std::uint64_t inode_count = 512;
  std::uint64_t group_commit_ops = 6;
  /// Oracle self-test hook; leave kNone outside harness self-tests.
  FsSabotage fs_sabotage = FsSabotage::kNone;
};

/// Campaign outcome.  `violations` and `fsck_dirty` are the failure signals
/// (must both be 0); everything else is telemetry.
struct FsFuzzReport : backend::FuzzReport {
  std::uint64_t mkfs_crashes = 0;    ///< crashes during mkfs itself
  std::uint64_t fsck_runs = 0;
  std::uint64_t fsck_dirty = 0;      ///< fsck reports with problems (must be 0)
  std::uint64_t ops_executed = 0;
  /// Sweep mode only: how many injector steps each sweep covered.
  std::uint64_t sweep_points = 0;
  std::uint64_t sweep_torn_points = 0;
};

namespace detail {

using backend::detail::fuzz_mix;

// --- Reference model --------------------------------------------------------

/// A literal in-DRAM tree: what the file system should look like.
struct ModelNode {
  bool dir = false;
  std::vector<std::byte> data;             // files only
  std::map<std::string, ModelNode> kids;   // dirs only (sorted → stable)
};

/// One generated file-system operation.
struct FsOp {
  enum Kind : std::uint8_t {
    kCreate,
    kMkdir,
    kRemove,
    kRename,
    kWrite,
    kAppend,
    kTruncate,
    kRead,
    kFsync,
  };
  Kind kind = kFsync;
  std::string a;            // primary path
  std::string b;            // rename destination
  std::uint64_t offset = 0; // write/read
  std::uint64_t size = 0;   // write/append/truncate/read length
  std::uint64_t pattern = 0;  // payload seed for write/append
};

inline const char* fs_op_name(FsOp::Kind k) {
  switch (k) {
    case FsOp::kCreate: return "create";
    case FsOp::kMkdir: return "mkdir";
    case FsOp::kRemove: return "remove";
    case FsOp::kRename: return "rename";
    case FsOp::kWrite: return "write";
    case FsOp::kAppend: return "append";
    case FsOp::kTruncate: return "truncate";
    case FsOp::kRead: return "read";
    case FsOp::kFsync: return "fsync";
  }
  return "?";
}

inline ModelNode* model_find(ModelNode& root, const std::string& path) {
  ModelNode* n = &root;
  std::size_t at = 0;
  while (at < path.size()) {
    if (path[at] == '/') {
      ++at;
      continue;
    }
    const std::size_t end = std::min(path.find('/', at), path.size());
    const std::string name = path.substr(at, end - at);
    if (!n->dir) return nullptr;
    const auto it = n->kids.find(name);
    if (it == n->kids.end()) return nullptr;
    n = &it->second;
    at = end;
  }
  return n;
}

inline ModelNode* model_parent(ModelNode& root, const std::string& path,
                               std::string* leaf) {
  const std::size_t slash = path.find_last_of('/');
  *leaf = path.substr(slash + 1);
  return model_find(root, path.substr(0, slash));
}

inline void model_apply(ModelNode& root, const FsOp& op) {
  std::string leaf;
  switch (op.kind) {
    case FsOp::kCreate:
      model_parent(root, op.a, &leaf)->kids[leaf] = ModelNode{};
      break;
    case FsOp::kMkdir: {
      ModelNode d;
      d.dir = true;
      model_parent(root, op.a, &leaf)->kids[leaf] = std::move(d);
      break;
    }
    case FsOp::kRemove:
      model_parent(root, op.a, &leaf)->kids.erase(leaf);
      break;
    case FsOp::kRename: {
      ModelNode* from_parent = model_parent(root, op.a, &leaf);
      auto node = from_parent->kids.extract(leaf);
      ModelNode* to_parent = model_parent(root, op.b, &leaf);
      node.key() = leaf;
      to_parent->kids.insert(std::move(node));
      break;
    }
    case FsOp::kWrite:
    case FsOp::kAppend: {
      ModelNode* n = model_find(root, op.a);
      const std::uint64_t off =
          op.kind == FsOp::kAppend ? n->data.size() : op.offset;
      if (n->data.size() < off + op.size) n->data.resize(off + op.size);
      fill_pattern(std::span<std::byte>(n->data.data() + off, op.size),
                   op.pattern);
      break;
    }
    case FsOp::kTruncate:
      model_find(root, op.a)->data.resize(op.size);
      break;
    case FsOp::kRead:
    case FsOp::kFsync:
      break;
  }
}

/// Apply `op` to the real file system (kRead and the model check are the
/// caller's job — they need the model).
inline void fs_apply(MiniFs& f, const FsOp& op) {
  switch (op.kind) {
    case FsOp::kCreate:
      f.create(op.a);
      break;
    case FsOp::kMkdir:
      f.mkdir(op.a);
      break;
    case FsOp::kRemove:
      f.remove(op.a);
      break;
    case FsOp::kRename:
      f.rename(op.a, op.b);
      break;
    case FsOp::kWrite:
    case FsOp::kAppend: {
      std::vector<std::byte> bytes(op.size);
      fill_pattern(bytes, op.pattern);
      if (op.kind == FsOp::kWrite)
        f.write(op.a, op.offset, bytes);
      else
        f.append(op.a, bytes);
      break;
    }
    case FsOp::kTruncate:
      f.truncate(op.a, op.size);
      break;
    case FsOp::kRead:
      break;
    case FsOp::kFsync:
      f.fsync();
      break;
  }
}

inline void model_paths(const ModelNode& n, const std::string& p,
                        std::vector<std::string>* dirs,
                        std::vector<std::string>* files) {
  if (n.dir) {
    dirs->push_back(p.empty() ? "/" : p);
    for (const auto& [name, kid] : n.kids)
      model_paths(kid, p + "/" + name, dirs, files);
  } else {
    files->push_back(p);
  }
}

inline std::string path_join(const std::string& dir, const std::string& name) {
  return dir == "/" ? "/" + name : dir + "/" + name;
}

/// Workload-shaping caps.  The generator stays far below the file system's
/// block/inode capacity by construction: MiniFs ops are not exception-atomic
/// under ENOSPC-style contract violations, so a correctness fuzzer must not
/// trigger them (the wedge/capacity behavior is the block harness's beat).
struct GenCtx {
  std::uint64_t name_ctr = 0;
  std::uint64_t pat_ctr = 0;
  std::uint64_t sseed = 0;
  static constexpr std::uint64_t kMaxFileBytes = 120 * 1024;
  static constexpr std::size_t kMaxFiles = 32;
  static constexpr std::size_t kMaxDirs = 10;
  static constexpr int kMaxDepth = 3;
};

/// Generate the next valid operation.  Every draw is validated against the
/// model so the op cannot fail for namespace reasons; notably rename never
/// moves a directory into its own subtree (MiniFs accepts that and orphans
/// the subtree — a known sharp edge, excluded from generation the same way
/// real callers are expected to avoid it).
inline FsOp gen_op(Rng& rng, ModelNode& model, GenCtx& ctx) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::vector<std::string> dirs, files;
    model_paths(model, "", &dirs, &files);
    const std::uint64_t roll = rng.below(100);
    FsOp op;
    if (roll < 18) {  // create
      if (files.size() >= GenCtx::kMaxFiles) continue;
      const std::string& dir = dirs[rng.below(dirs.size())];
      op.kind = FsOp::kCreate;
      op.a = path_join(dir, "f" + std::to_string(ctx.name_ctr++));
      return op;
    } else if (roll < 26) {  // mkdir
      if (dirs.size() >= GenCtx::kMaxDirs) continue;
      const std::string& dir = dirs[rng.below(dirs.size())];
      const int depth =
          static_cast<int>(std::count(dir.begin(), dir.end(), '/'));
      if (depth >= GenCtx::kMaxDepth) continue;
      op.kind = FsOp::kMkdir;
      op.a = path_join(dir, "d" + std::to_string(ctx.name_ctr++));
      return op;
    } else if (roll < 48) {  // write (occasionally large → indirect block)
      if (files.empty()) continue;
      op.kind = FsOp::kWrite;
      op.a = files[rng.below(files.size())];
      const std::uint64_t cur = model_find(model, op.a)->data.size();
      op.size = rng.chance(0.12) ? 16384 + rng.below(65536)
                                 : 1 + rng.below(6000);
      op.offset = rng.below(cur + 2048);
      if (op.offset + op.size > GenCtx::kMaxFileBytes) {
        op.offset = 0;
        op.size = std::min(op.size, GenCtx::kMaxFileBytes);
      }
      op.pattern = fuzz_mix(ctx.sseed, ++ctx.pat_ctr);
      return op;
    } else if (roll < 58) {  // append
      if (files.empty()) continue;
      op.kind = FsOp::kAppend;
      op.a = files[rng.below(files.size())];
      const std::uint64_t cur = model_find(model, op.a)->data.size();
      op.size = 1 + rng.below(4000);
      if (cur + op.size > GenCtx::kMaxFileBytes) continue;
      op.pattern = fuzz_mix(ctx.sseed, ++ctx.pat_ctr);
      return op;
    } else if (roll < 66) {  // truncate (shrink or extend-with-hole)
      if (files.empty()) continue;
      op.kind = FsOp::kTruncate;
      op.a = files[rng.below(files.size())];
      const std::uint64_t cur = model_find(model, op.a)->data.size();
      op.size = rng.chance(0.5) ? rng.below(cur + 1)
                                : rng.below(GenCtx::kMaxFileBytes);
      return op;
    } else if (roll < 74) {  // remove
      if (files.empty()) continue;
      op.kind = FsOp::kRemove;
      op.a = files[rng.below(files.size())];
      return op;
    } else if (roll < 82) {  // rename (file or dir, fresh destination name)
      std::vector<std::string> movable = files;
      for (const std::string& d : dirs)
        if (d != "/") movable.push_back(d);
      if (movable.empty()) continue;
      const std::string& src = movable[rng.below(movable.size())];
      const std::string& dst_dir = dirs[rng.below(dirs.size())];
      // Never move a node into its own subtree (or onto itself).
      if (dst_dir == src ||
          (dst_dir.size() > src.size() &&
           dst_dir.compare(0, src.size(), src) == 0 &&
           dst_dir[src.size()] == '/'))
        continue;
      op.kind = FsOp::kRename;
      op.a = src;
      op.b = path_join(dst_dir, "r" + std::to_string(ctx.name_ctr++));
      return op;
    } else if (roll < 92) {  // read (checked live against the model)
      if (files.empty()) continue;
      op.kind = FsOp::kRead;
      op.a = files[rng.below(files.size())];
      const std::uint64_t cur = model_find(model, op.a)->data.size();
      op.offset = rng.below(cur + 1);
      op.size = 1 + rng.below(8192);
      return op;
    } else {
      op.kind = FsOp::kFsync;
      return op;
    }
  }
  return FsOp{};  // fsync — always valid
}

// --- Verification -----------------------------------------------------------

/// Compare the mounted tree under `path` against the model node.
inline bool tree_matches(MiniFs& f, const ModelNode& n, const std::string& path,
                         std::string* why) {
  const std::string at = path.empty() ? "/" : path;
  if (n.dir) {
    std::vector<std::string> names = f.list(at);
    std::sort(names.begin(), names.end());
    std::vector<std::string> want;
    want.reserve(n.kids.size());
    for (const auto& [name, kid] : n.kids) want.push_back(name);
    if (names != want) {
      *why = "directory " + at + " listing mismatch";
      return false;
    }
    for (const auto& [name, kid] : n.kids)
      if (!tree_matches(f, kid, path + "/" + name, why)) return false;
    return true;
  }
  const std::uint64_t size = f.file_size(at);
  if (size != n.data.size()) {
    *why = "file " + at + " size " + std::to_string(size) + " != model " +
           std::to_string(n.data.size());
    return false;
  }
  std::vector<std::byte> got(n.data.size());
  if (f.read(at, 0, got) != n.data.size()) {
    *why = "file " + at + " short read";
    return false;
  }
  if (fingerprint(got) != fingerprint(n.data)) {
    *why = "file " + at + " content mismatch";
    return false;
  }
  return true;
}

/// The MiniFs workload: mkfs, then a generated op history (or `script`
/// verbatim, sweep mode) mirrored into the reference model, with every read
/// checked live and a snapshot pinned across later compound commits.
class FsWorkload final : public backend::CrashWorkload {
 public:
  /// 1 MB per cache: MiniFs needs a compound-transaction budget of ≥ 64
  /// blocks (Tinca's is half its data slots, UBJ's a third), yet a busy
  /// schedule still evicts and writes back under fault pressure.
  static constexpr backend::WorkloadShape kShape{1ull << 20, 0xFB02, 60};

  /// Arms at op index `mark_at_op` (0: before mkfs, which is then in scope
  /// too), so sweep steps count from the final mutation batch.
  FsWorkload(const FsFuzzOptions& o, FsFuzzReport& rep,
             const std::vector<FsOp>* script, std::size_t mark_at_op)
      : opts_(o), rep_(rep), script_(script), mark_at_op_(mark_at_op) {
    fscfg_.inode_count = o.inode_count;
    fscfg_.group_commit_ops = o.group_commit_ops;
    live_.dir = true;
  }

  void run(backend::CrashSchedule& s) override {
    backend::RecordingBackend& shim = s.shim();
    if (mark_at_op_ == 0) s.arm();
    fsys_ = MiniFs::mkfs(shim, fscfg_);
    mkfs_done_ = true;
    committed_model_ = live_;
    last_boundary_ = shim.boundaries();

    GenCtx ctx{.sseed = s.seed};
    std::uint64_t snap_close_boundary = 0;
    const std::size_t total_ops =
        script_ ? script_->size() : opts_.ops_per_schedule;
    for (std::size_t i = 0; i < total_ops; ++i) {
      if (i == mark_at_op_ && mark_at_op_ != 0) s.arm();
      last_op_ = script_ ? (*script_)[i] : gen_op(s.rng, live_, ctx);
      op_in_flight_ = true;
      if (last_op_.kind == FsOp::kRead) {
        if (!read_matches_model(last_op_)) {
          s.violation("live read of " + last_op_.a +
                      " disagrees with the model");
          break;
        }
      } else {
        fs_apply(*fsys_, last_op_);
        model_apply(live_, last_op_);
      }
      op_in_flight_ = false;
      ++rep_.ops_executed;
      note_boundary(shim);
      // Snapshot cadence — fuzz mode only: the sweep's step numbering must
      // stay identical across its learning and replay passes, and pinned
      // snapshots shift when deferred writebacks reach the disk.  Pin after
      // 15 % of the ops once anything committed, probe 2 blocks per op,
      // close two boundaries later.
      if (!script_ && s.backend().supports_snapshots()) {
        if (!s.snapshot_open() && shim.boundaries() != 0 &&
            s.rng.chance(0.15)) {
          s.open_snapshot();
          snap_close_boundary = shim.boundaries() + 2;
        } else if (s.snapshot_open()) {
          if (!s.probe_snapshot(2)) break;
          if (shim.boundaries() >= snap_close_boundary) s.close_snapshot();
        }
      }
    }
    // Close the history at a boundary so the clean path verifies a
    // well-defined state (sweep scripts end with their own fsync).
    if (!script_) fsys_->fsync();
    note_boundary(shim);
  }

  [[nodiscard]] std::string failed_op() const override {
    return mkfs_done_ ? std::string(fs_op_name(last_op_.kind)) + " failed: "
                      : "mkfs failed: ";
  }

  /// The fs self-tests (clean schedules only) overwrite one committed block
  /// behind MiniFs's back, then remount.  Stack-level sabotage is armed
  /// through the stack config (FuzzOptions::sabotage) instead.
  bool before_verify(backend::CrashSchedule& s) override {
    if (s.end() == backend::ScheduleEnd::kCrashed && !mkfs_done_)
      ++rep_.mkfs_crashes;
    if (s.interrupted() || !mkfs_done_ ||
        opts_.fs_sabotage == FsSabotage::kNone)
      return true;
    try {
      const MiniFs::Geometry& g = fsys_->geometry();
      std::vector<std::byte> junk(blockdev::kBlockSize);
      fill_pattern(junk, fuzz_mix(s.seed, 0x5AB0));
      if (opts_.fs_sabotage == FsSabotage::kCorruptData) {
        // Highest committed data block — some file's payload or a directory.
        std::uint64_t victim = 0;
        for (const auto& [blkno, fp] : s.shim().committed())
          if (blkno >= g.data_start) victim = blkno;
        if (victim != 0) s.shim().sabotage_block(victim, junk);
      } else {
        s.shim().sabotage_block(g.bbmap_start, junk);
      }
    } catch (const std::exception& e) {
      s.violation(std::string("sabotage setup failed: ") + e.what());
      return false;
    }
    // The corruption lives on media; MiniFs's in-DRAM bitmaps and the
    // backend cache would mask it, so force a remount.
    fsys_.reset();
    return s.remount("sabotage setup");
  }

  void verify(backend::CrashSchedule& s, bool with_pending) override {
    if (!mkfs_done_) {
      // Crash during mkfs: the image is consistent; the volume is only
      // required to mount if the *final* mkfs transaction (superblock +
      // root) published.  A failed mount of a half-formatted device is the
      // documented outcome, not a violation.
      try {
        std::unique_ptr<MiniFs> m = MiniFs::mount(s.backend(), fscfg_);
        ++rep_.fsck_runs;
        const FsckReport fr = m->fsck();
        if (!fr.ok) {
          ++rep_.fsck_dirty;
          s.violation("fsck dirty after mkfs crash: " + fr.summary());
        } else if (!m->list("/").empty()) {
          s.violation("mkfs crash recovered to a non-empty root");
        }
      } catch (const ContractViolation&) {
        // Not a mountable MiniFs volume — acceptable for a torn format.
      }
      return;
    }

    // The accepted image is an fsync boundary; the mounted tree must equal
    // its model.  Committed + pending is every op since the last boundary
    // plus the interrupted one: the live model plus that op (a MiniFs
    // commit is an op's final mutation).  So is a crash that landed after a
    // commit published but before its op returned — e.g. inside the
    // cleaner's post-commit quantum: nothing pending, but the boundary
    // count moved past the last snapshot.
    const bool committed_then_crashed =
        !with_pending && s.interrupted() &&
        s.shim().boundaries() != last_boundary_;
    const ModelNode* want = &committed_model_;
    ModelNode committed_plus;
    if (with_pending || committed_then_crashed) {
      committed_plus = live_;
      if (op_in_flight_ && last_op_.kind != FsOp::kRead &&
          last_op_.kind != FsOp::kFsync) {
        model_apply(committed_plus, last_op_);
      }
      want = &committed_plus;
    }

    if (s.remounted()) fsys_ = MiniFs::mount(s.backend(), fscfg_);
    check_tree(s, *want, "fsck dirty: ",
               "recovered tree diverges from the model");
    // Live instance verified: half the time, also a clean remount.
    if (!s.remounted() && s.rng.chance(0.5)) {
      ++rep_.clean_remounts;
      fsys_.reset();
      if (!s.remount("clean remount")) return;
      fsys_ = MiniFs::mount(s.backend(), fscfg_);
      check_tree(s, *want, "fsck dirty after clean remount: ",
                 "clean remount lost data");
    }
  }

 private:
  bool read_matches_model(const FsOp& op) {
    std::vector<std::byte> got(op.size);
    const std::size_t nread = fsys_->read(op.a, op.offset, got);
    const ModelNode* n = model_find(live_, op.a);
    const std::uint64_t msize = n->data.size();
    const std::size_t expect =
        op.offset >= msize
            ? 0
            : static_cast<std::size_t>(
                  std::min<std::uint64_t>(op.size, msize - op.offset));
    return nread == expect &&
           (expect == 0 ||
            std::memcmp(got.data(), n->data.data() + op.offset, expect) == 0);
  }

  /// A new fsync boundary was reached: snapshot the model.
  void note_boundary(const backend::RecordingBackend& shim) {
    if (shim.boundaries() == last_boundary_) return;
    last_boundary_ = shim.boundaries();
    committed_model_ = live_;
  }

  /// Run fsck() (must be clean) and compare the mounted tree with `want`.
  void check_tree(backend::CrashSchedule& s, const ModelNode& want,
                  const char* dirty, const char* diverged) {
    ++rep_.fsck_runs;
    const FsckReport fr = fsys_->fsck();
    if (!fr.ok) {
      ++rep_.fsck_dirty;
      s.violation(dirty + fr.summary());
    }
    std::string why;
    if (!tree_matches(*fsys_, want, "", &why))
      s.violation(std::string(diverged) + " (" + why + ")");
  }

  const FsFuzzOptions& opts_;
  FsFuzzReport& rep_;
  const std::vector<FsOp>* script_;
  const std::size_t mark_at_op_;
  MiniFsConfig fscfg_;
  std::unique_ptr<MiniFs> fsys_;
  bool mkfs_done_ = false;
  ModelNode live_;
  ModelNode committed_model_;  ///< model at the last commit boundary
  std::uint64_t last_boundary_ = 0;
  FsOp last_op_;  ///< the op interrupted by a crash (if any)
  bool op_in_flight_ = false;
};

/// Fixed op script for the crash-point sweep: a committed setup phase, then
/// one batch of mutations (rename, shrinking truncate, append, remove,
/// create+write) staged into a single compound transaction and committed by
/// the final fsync.  `batch_at` receives the index of the first batch op —
/// the sweep arms (and the learning pass measures) from there.
inline std::vector<FsOp> sweep_script(std::uint64_t seed,
                                      std::size_t* batch_at) {
  const auto pat = [seed](std::uint64_t k) { return fuzz_mix(seed, k); };
  const auto w = [&](const char* path, std::uint64_t off, std::uint64_t len,
                     std::uint64_t k) {
    FsOp op;
    op.kind = FsOp::kWrite;
    op.a = path;
    op.offset = off;
    op.size = len;
    op.pattern = pat(k);
    return op;
  };
  const auto simple = [](FsOp::Kind kind, const char* a, const char* b = "") {
    FsOp op;
    op.kind = kind;
    op.a = a;
    op.b = b;
    return op;
  };
  std::vector<FsOp> script;
  // Setup: two directories, four files (one spilling into its single
  // indirect block), fsync'd in small groups so setup spans several
  // committed transactions.
  script.push_back(simple(FsOp::kMkdir, "/d0"));
  script.push_back(simple(FsOp::kMkdir, "/d1"));
  script.push_back(simple(FsOp::kFsync, ""));
  script.push_back(simple(FsOp::kCreate, "/d0/a"));
  script.push_back(w("/d0/a", 0, 30 * 1024, 1));
  script.push_back(simple(FsOp::kFsync, ""));
  script.push_back(simple(FsOp::kCreate, "/d0/b"));
  script.push_back(w("/d0/b", 0, 90 * 1024, 2));  // > 48 KB → indirect
  script.push_back(simple(FsOp::kFsync, ""));
  script.push_back(simple(FsOp::kCreate, "/d1/c"));
  script.push_back(w("/d1/c", 0, 6000, 3));
  script.push_back(simple(FsOp::kCreate, "/big"));
  script.push_back(w("/big", 0, 100 * 1024, 4));
  script.push_back(simple(FsOp::kFsync, ""));
  *batch_at = script.size();
  // Mutation batch: every structural op class in one compound commit.
  script.push_back(w("/d0/a", 1000, 9000, 5));
  script.push_back(simple(FsOp::kRename, "/d0/a", "/d1/a2"));
  FsOp tr;
  tr.kind = FsOp::kTruncate;
  tr.a = "/d0/b";
  tr.size = 8 * 1024;  // shrinks back out of the indirect block
  script.push_back(tr);
  FsOp ap;
  ap.kind = FsOp::kAppend;
  ap.a = "/d1/c";
  ap.size = 5000;
  ap.pattern = pat(6);
  script.push_back(ap);
  script.push_back(simple(FsOp::kRemove, "/big"));
  script.push_back(simple(FsOp::kCreate, "/d0/new"));
  script.push_back(w("/d0/new", 0, 4096, 7));
  script.push_back(simple(FsOp::kFsync, ""));
  return script;
}

}  // namespace detail

/// Run the randomized campaign.  Never throws for injected faults — every
/// anomaly is classified into the report.
inline FsFuzzReport run_fs_fuzz(const FsFuzzOptions& opts) {
  FsFuzzReport rep;
  backend::run_fuzz_campaign(opts, detail::FsWorkload::kShape, rep, [&] {
    return detail::FsWorkload(opts, rep, nullptr, /*mark_at_op=*/0);
  });
  return rep;
}

/// Crash-point sweep: replay one fixed script (fault-free, so step numbering
/// is stable), learning how many NVM-store points and torn disk-write sites
/// the final mutation batch + compound commit passes, then re-run once per
/// step (stride-able) with the injector armed exactly there.  Covers every
/// persistence site inside one compound commit, plus the cache traffic of
/// staging it.
inline FsFuzzReport run_fs_crash_sweep(const FsFuzzOptions& opts,
                                       std::uint32_t stride = 1) {
  using backend::Arming;
  FsFuzzReport rep;
  std::size_t batch_at = 0;
  const std::vector<detail::FsOp> script =
      detail::sweep_script(opts.seed, &batch_at);
  const std::uint32_t step_stride = std::max<std::uint32_t>(1, stride);

  const auto replay = [&](std::uint64_t sched, std::uint64_t sseed,
                          Arming arming) {
    backend::CrashSchedule s(opts, detail::FsWorkload::kShape, sched, sseed,
                             arming, rep);
    detail::FsWorkload w(opts, rep, &script, batch_at);
    return s.run(w);
  };

  // Learning pass: run clean, counters restarted at the batch boundary.
  std::tie(rep.sweep_points, rep.sweep_torn_points) =
      replay(0, detail::fuzz_mix(opts.seed, 0xD0), {Arming::kCount, 0});
  for (std::uint64_t step = 1; step <= rep.sweep_points; step += step_stride)
    replay(step, detail::fuzz_mix(opts.seed, step), {Arming::kPoint, step});
  for (std::uint64_t step = 1; step <= rep.sweep_torn_points;
       step += step_stride) {
    replay(step, detail::fuzz_mix(opts.seed, 0x70000000ULL + step),
           {Arming::kTorn, step});
  }
  return rep;
}

}  // namespace tinca::fs
