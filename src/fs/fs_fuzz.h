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
// Mechanics: each schedule builds a fresh stack (SimClock → NvmDevice →
// MemBlockDevice ← FaultyBlockDevice), wraps the backend in a recording shim
// that fingerprints every committed compound transaction, then drives MiniFs
// with a random, model-validated op history (create/mkdir/remove/rename/
// write/append/truncate/read/fsync, path- and size-skewed).  A DRAM
// reference model (a literal tree of directories and byte vectors) is
// updated in lockstep, and snapshotted at every commit boundary the shim
// observes.  After a crash (armed CrashInjector point/torn step or a random
// torn disk write) the NVM loses a random fraction of unflushed lines, the
// backend recovers, and the harness:
//
//   1. matches the recovered *block image* against the acceptable histories
//      (committed, or committed + in-flight txn) — for EVERY backend: a
//      cross-shard transaction is anchored to one atomic commit record
//      (DESIGN.md §15), so no shard-prefix states are acceptable;
//   2. for a match, mounts the file system and checks the recovered tree
//      against the corresponding model snapshot, and runs the strengthened
//      fsck() which must be clean.
//
// A sweep mode (run_fs_crash_sweep) replays one fixed op script and steps
// the injector through every NVM-store point and every torn disk-write site
// inside the script's final mutation batch + compound commit.
//
// Campaign plumbing (the shared options base, its StackConfig for
// open_backend(), reproduce tags) comes from src/backend/fuzz_common.h;
// every violation message embeds the failing schedule's seed and fault
// schedule verbatim plus a "reproduce:" tag that replays it alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "backend/fuzz_common.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "fs/minifs.h"
#include "tinca/verify.h"

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
  std::uint64_t txns_committed = 0;
  /// Sweep mode only: how many injector steps each sweep covered.
  std::uint64_t sweep_points = 0;
  std::uint64_t sweep_torn_points = 0;
};

namespace detail {

using backend::detail::fuzz_mix;

/// Wraps the backend under test and fingerprints every staged block, so the
/// harness knows — without trusting the file system — exactly which block
/// image each commit boundary corresponds to.
///
///   committed() : blkno → fingerprint as of the last *completed* commit
///   pending()   : blocks staged by the currently open (or torn) txn
///   universe()  : every block ever staged (the image-check read set)
///   boundaries(): number of completed commits
class RecordingBackend final : public backend::TxnBackend {
 public:
  explicit RecordingBackend(backend::TxnBackend& real) : real_(real) {}

  void begin() override {
    real_.begin();
    pending_.clear();
  }

  void stage(std::uint64_t blkno, std::span<const std::byte> data) override {
    real_.stage(blkno, data);
    pending_[blkno] = fingerprint(data);
    universe_.insert(blkno);
  }

  void commit() override {
    real_.commit();
    for (const auto& [blkno, fp] : pending_) committed_[blkno] = fp;
    pending_.clear();
    ++boundaries_;
    // Cleaner-armed campaigns drain between commits; a crash inside the
    // drain lands with nothing pending, so the acceptable image is exactly
    // the committed history (re-clean on recovery, lose nothing).
    real_.cleaner_step();
  }

  void abort() override {
    real_.abort();
    pending_.clear();
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    real_.read_block(blkno, dst);
  }

  void flush() override { real_.flush(); }

  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return real_.data_block_limit();
  }

  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return real_.max_txn_blocks();
  }

  [[nodiscard]] std::string name() const override { return real_.name(); }

  [[nodiscard]] bool supports_snapshots() const override {
    return real_.supports_snapshots();
  }
  std::uint64_t snapshot_open() override { return real_.snapshot_open(); }
  void snapshot_read(std::uint64_t token, std::uint64_t blkno,
                     std::span<std::byte> dst) override {
    real_.snapshot_read(token, blkno, dst);
  }
  void snapshot_close(std::uint64_t token) override {
    real_.snapshot_close(token);
  }

  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& committed()
      const {
    return committed_;
  }
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& pending() const {
    return pending_;
  }
  [[nodiscard]] const std::set<std::uint64_t>& universe() const {
    return universe_;
  }
  [[nodiscard]] std::uint64_t boundaries() const { return boundaries_; }

  /// Sabotage hook: overwrite `blkno` on the real backend *and* in the
  /// committed bookkeeping, so the block-image check stays green and only
  /// the fs-level oracle can notice.
  void sabotage_block(std::uint64_t blkno, std::span<const std::byte> data) {
    real_.begin();
    real_.stage(blkno, data);
    real_.commit();
    committed_[blkno] = fingerprint(data);
    universe_.insert(blkno);
    ++boundaries_;
  }

 private:
  backend::TxnBackend& real_;
  std::map<std::uint64_t, std::uint64_t> committed_;
  std::map<std::uint64_t, std::uint64_t> pending_;
  std::set<std::uint64_t> universe_;
  std::uint64_t boundaries_ = 0;
};

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

/// Compare the recovered block image against one candidate blkno→fingerprint
/// map; blocks in the universe but absent from the candidate must be zero.
inline bool image_matches(backend::TxnBackend& be,
                          const std::set<std::uint64_t>& universe,
                          const std::map<std::uint64_t, std::uint64_t>& cand,
                          std::uint64_t zero_fp, std::string* why) {
  std::vector<std::byte> got(blockdev::kBlockSize);
  for (const std::uint64_t blkno : universe) {
    be.read_block(blkno, got);
    const auto it = cand.find(blkno);
    const std::uint64_t want = it == cand.end() ? zero_fp : it->second;
    if (fingerprint(got) != want) {
      *why = "block " + std::to_string(blkno) + " mismatch";
      return false;
    }
  }
  return true;
}

/// How one schedule's workload ended.
enum class ScheduleEnd : std::uint8_t { kClean, kCrashed, kIoError, kWedged };

/// Run one schedule end to end, folding results into `rep`.
///
///  * `script == nullptr` → generate ops from the schedule seed;
///    otherwise replay `*script` verbatim (sweep mode).
///  * `arm_kind`: 0 none, 1 random (draws from rng), 2 point@arm_step,
///    3 torn@arm_step.  Deterministic arms are set when op index
///    `mark_at_op` is reached (the injector counters reset there), so sweep
///    steps are relative to the start of the final mutation batch.
///  * `zero_faults` disables random disk faults (sweep mode: step numbering
///    must be identical across replays).
///
/// Returns the number of point()/point_torn() steps observed after
/// `mark_at_op` (used by the sweep's learning pass).
struct ScheduleOutcome {
  std::uint64_t marked_points = 0;
  std::uint64_t marked_torn = 0;
};

inline ScheduleOutcome run_fs_schedule(const FsFuzzOptions& opts,
                                       std::uint64_t sched,
                                       std::uint64_t sseed,
                                       const std::vector<FsOp>* script,
                                       int arm_kind, std::uint64_t arm_step,
                                       std::size_t mark_at_op,
                                       bool zero_faults, FsFuzzReport& rep) {
  ++rep.schedules;
  Rng rng(sseed);
  std::string armed = "none";
  // 1 MB per cache: MiniFs needs a compound-transaction budget of ≥ 64
  // blocks (Tinca's is half its data slots, UBJ's a third), yet a busy
  // schedule still evicts and writes back under fault pressure.
  const backend::StackConfig cfg =
      backend::detail::fuzz_stack_config(opts, 1ull << 20);

  const auto record_violation = [&](const std::string& what) {
    ++rep.violations;
    if (rep.violation_messages.size() < 16) {
      rep.violation_messages.push_back(
          backend::fuzz_schedule_tag(opts, sched, sseed, armed) + ": " +
          what + " | " + backend::fuzz_reproduce_tag(opts.seed, sched));
    }
  };

  std::vector<std::byte> zero_blk(blockdev::kBlockSize, std::byte{0});
  const std::uint64_t zero_fp = fingerprint(zero_blk);

  sim::SimClock clock;
  nvm::NvmDevice nvm(cfg.nvm_bytes, nvm_profile_by_name(cfg.nvm_profile),
                     clock);
  blockdev::MemBlockDevice mem(cfg.disk_blocks);
  blockdev::FaultConfig fcfg =
      zero_faults ? blockdev::FaultConfig{} : cfg.disk_faults;
  fcfg.seed = fuzz_mix(sseed, 0xFB02);
  blockdev::FaultyBlockDevice disk(mem, fcfg, &clock, &nvm.injector);

  std::unique_ptr<backend::TxnBackend> be =
      backend::open_backend(cfg, nvm, disk, false);
  RecordingBackend shim(*be);

  MiniFsConfig fscfg;
  fscfg.inode_count = opts.inode_count;
  fscfg.group_commit_ops = opts.group_commit_ops;

  const auto set_arm = [&] {
    if (arm_kind == 1 && rng.chance(opts.crash_prob)) {
      if (rng.chance(0.5)) {
        const std::uint64_t step = 1 + rng.below(opts.crash_point_range);
        nvm.injector.arm(step);
        armed = "point@" + std::to_string(step);
      } else {
        const std::uint64_t step = 1 + rng.below(60);
        nvm.injector.arm_torn(step);
        armed = "torn@" + std::to_string(step);
      }
    } else if (arm_kind == 2) {
      nvm.injector.arm(arm_step);
      armed = "point@" + std::to_string(arm_step);
    } else if (arm_kind == 3) {
      nvm.injector.arm_torn(arm_step);
      armed = "torn@" + std::to_string(arm_step);
    } else if (arm_kind == 0) {
      // Learning pass: reset both counters so steps are measured from here.
      nvm.injector.disarm();
      nvm.injector.disarm_torn();
    }
  };

  // --- mkfs -----------------------------------------------------------------
  // mark_at_op == 0 arms before mkfs (fuzz mode: mkfs itself is in scope).
  if (mark_at_op == 0) set_arm();

  std::unique_ptr<MiniFs> fsys;
  bool mkfs_done = false;
  ScheduleEnd end = ScheduleEnd::kClean;
  try {
    fsys = MiniFs::mkfs(shim, fscfg);
    mkfs_done = true;
  } catch (const nvm::CrashException&) {
    end = ScheduleEnd::kCrashed;
  } catch (const blockdev::IoError&) {
    end = ScheduleEnd::kIoError;
  } catch (const ContractViolation& e) {
    record_violation(std::string("mkfs failed: ") + e.what());
  }

  ModelNode live;
  live.dir = true;
  ModelNode committed_model = live;  // model at the last commit boundary
  std::uint64_t last_boundary = shim.boundaries();
  GenCtx ctx;
  ctx.sseed = sseed;
  FsOp last_op;  // the op interrupted by a crash (if any)
  bool op_in_flight = false;

  // Snapshot oracle (DESIGN.md §12): pin one fsync boundary mid-workload
  // and hold it across later compound commits; every pinned block read must
  // keep returning that boundary's image even while the tree churns on.
  bool snap_open = false;
  std::uint64_t snap_token = 0;
  std::uint64_t snap_close_boundary = 0;
  std::map<std::uint64_t, std::uint64_t> snap_frozen;
  std::vector<std::byte> snap_buf(blockdev::kBlockSize);

  // --- workload -------------------------------------------------------------
  if (mkfs_done) {
    const std::size_t total_ops =
        script ? script->size() : opts.ops_per_schedule;
    try {
      for (std::size_t i = 0; i < total_ops; ++i) {
        if (i == mark_at_op && mark_at_op != 0) set_arm();
        FsOp op = script ? (*script)[i] : gen_op(rng, live, ctx);
        last_op = op;
        op_in_flight = true;
        if (op.kind == FsOp::kRead) {
          std::vector<std::byte> got(op.size);
          const std::size_t nread = fsys->read(op.a, op.offset, got);
          const ModelNode* n = model_find(live, op.a);
          const std::uint64_t msize = n->data.size();
          const std::size_t expect =
              op.offset >= msize
                  ? 0
                  : static_cast<std::size_t>(
                        std::min<std::uint64_t>(op.size, msize - op.offset));
          if (nread != expect ||
              (expect != 0 &&
               std::memcmp(got.data(), n->data.data() + op.offset, expect) !=
                   0)) {
            record_violation("live read of " + op.a +
                             " disagrees with the model");
            break;
          }
        } else {
          fs_apply(*fsys, op);
          model_apply(live, op);
        }
        op_in_flight = false;
        ++rep.ops_executed;
        if (shim.boundaries() != last_boundary) {
          last_boundary = shim.boundaries();
          committed_model = live;  // new fsync boundary reached
        }
        // Snapshot oracle — fuzz mode only: the sweep's step numbering must
        // stay identical across its learning and replay passes, and pinned
        // snapshots shift when deferred writebacks reach the disk.
        if (!script && shim.supports_snapshots()) {
          if (!snap_open && shim.boundaries() != 0 && rng.chance(0.15)) {
            snap_token = shim.snapshot_open();
            snap_frozen = shim.committed();
            snap_open = true;
            snap_close_boundary = shim.boundaries() + 2;
          } else if (snap_open) {
            bool snap_bad = false;
            for (int probe = 0; probe < 2 && !shim.universe().empty();
                 ++probe) {
              auto it = shim.universe().begin();
              std::advance(it,
                           static_cast<long>(rng.below(shim.universe().size())));
              shim.snapshot_read(snap_token, *it, snap_buf);
              const auto want = snap_frozen.find(*it);
              const std::uint64_t want_fp =
                  want == snap_frozen.end() ? zero_fp : want->second;
              if (fingerprint(snap_buf) != want_fp) {
                record_violation(
                    "snapshot read of block " + std::to_string(*it) +
                    " is not the pinned fsync-boundary image");
                snap_bad = true;
                break;
              }
            }
            if (snap_bad) break;
            if (shim.boundaries() >= snap_close_boundary) {
              shim.snapshot_close(snap_token);
              snap_open = false;
            }
          }
        }
      }
      if (end == ScheduleEnd::kClean && !script) {
        // Close the history at a boundary so the clean path verifies a
        // well-defined state (sweep scripts end with their own fsync).
        fsys->fsync();
      }
      if (shim.boundaries() != last_boundary) {
        last_boundary = shim.boundaries();
        committed_model = live;
      }
    } catch (const nvm::CrashException&) {
      end = ScheduleEnd::kCrashed;
    } catch (const blockdev::IoError&) {
      end = ScheduleEnd::kIoError;
    } catch (const ContractViolation& e) {
      if (std::string(e.what()).find("wedged") != std::string::npos) {
        end = ScheduleEnd::kWedged;
      } else {
        record_violation(std::string(fs_op_name(last_op.kind)) +
                         " failed: " + e.what());
      }
    }
  }

  ScheduleOutcome out;
  out.marked_points = nvm.injector.steps_seen();
  out.marked_torn = nvm.injector.torn_steps_seen();

  // Release any open snapshot before verification: pins defer disk
  // writebacks, and fsck plus the image check should run unthrottled.
  if (snap_open) {
    try {
      shim.snapshot_close(snap_token);
    } catch (const std::exception&) {
    }
    snap_open = false;
  }

  // Stop injecting *new* faults; already-bad sectors keep failing.
  nvm.injector.disarm();
  nvm.injector.disarm_torn();
  disk.quiesce();
  backend::detail::fuzz_collect(*be, rep);
  rep.txns_committed += shim.boundaries();

  if (end == ScheduleEnd::kWedged) {
    ++rep.wedges;
    backend::detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
    return out;
  }
  if (rep.violations != 0 && rep.violation_messages.size() >= 16) {
    // Campaign is already drowning; skip the expensive verification.
    backend::detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
    return out;
  }

  // --- crash / recovery -----------------------------------------------------
  // The interrupted op (if any) defines the "committed + 1" candidate: if
  // the cut landed mid-commit and the commit actually published, the visible
  // tree is the model *with* that op applied.
  const bool interrupted =
      end == ScheduleEnd::kCrashed || end == ScheduleEnd::kIoError;
  if (end == ScheduleEnd::kCrashed) {
    ++rep.crashes;
    if (!mkfs_done) ++rep.mkfs_crashes;
    static constexpr double kSurvive[] = {0.0, 0.3, 0.7, 1.0};
    nvm.crash(rng, kSurvive[rng.below(4)]);
  }
  if (end == ScheduleEnd::kIoError) ++rep.io_errors;

  bool remounted = false;
  if (interrupted) {
    fsys.reset();
    be.reset();
    try {
      be = backend::open_backend(cfg, nvm, disk, true);
    } catch (const std::exception& e) {
      record_violation(std::string("recovery failed: ") + e.what());
      backend::detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
      return out;
    }
    remounted = true;
    // NvLog stacks: the log tier's metadata — superblock + watermark record
    // ring (DESIGN.md §16) — must still decode and hold a mountable winning
    // record after the crash.  A torn record cut is acceptable only because
    // an older valid record survives in another ring slot.
    if (end == ScheduleEnd::kCrashed && backend::nvlog_stacked(opts.kind)) {
      nvm::NvmDevice logv(nvm, 0, cfg.nvlog.log_bytes, clock);
      const core::MediaReport mr = core::verify_nvlog_media(logv);
      if (!mr.ok) {
        record_violation("verify_nvlog_media: " +
                         (mr.problems.empty() ? std::string("not ok")
                                              : mr.problems.front()));
      }
    }
  }

  // --- sabotage (oracle self-test, clean schedules only) --------------------
  // Stack-level sabotage is not handled here: it is armed continuously
  // through the stack config (FuzzOptions::sabotage), not a one-shot block
  // overwrite.
  if (!interrupted && mkfs_done && opts.fs_sabotage != FsSabotage::kNone) {
    try {
      const MiniFs::Geometry& g = fsys->geometry();
      std::vector<std::byte> junk(blockdev::kBlockSize);
      fill_pattern(junk, fuzz_mix(sseed, 0x5AB0));
      if (opts.fs_sabotage == FsSabotage::kCorruptData) {
        // Highest committed data block — some file's payload or a directory.
        std::uint64_t victim = 0;
        for (const auto& [blkno, fp] : shim.committed())
          if (blkno >= g.data_start) victim = blkno;
        if (victim != 0) shim.sabotage_block(victim, junk);
      } else {
        shim.sabotage_block(g.bbmap_start, junk);
      }
      // The corruption lives on media; MiniFs's in-DRAM bitmaps and the
      // backend cache would mask it, so force the remount path below.
      fsys.reset();
      be.reset();
      be = backend::open_backend(cfg, nvm, disk, true);
      remounted = true;
    } catch (const std::exception& e) {
      record_violation(std::string("sabotage setup failed: ") + e.what());
      backend::detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
      return out;
    }
  }

  // --- verification ---------------------------------------------------------
  try {
    // Candidate block images, most-committed first.  role: 0 = committed
    // boundary, 1 = committed + interrupted txn (also a boundary).  Both
    // are fsync boundaries — there are no block-consistent-but-mid-commit
    // states any more: a cross-shard transaction commits atomically through
    // the §15 commit record, so shard-prefix images are violations.
    struct Cand {
      std::map<std::uint64_t, std::uint64_t> image;
      int role;
    };
    std::vector<Cand> cands;
    cands.push_back({shim.committed(), 0});
    if (interrupted && !shim.pending().empty()) {
      std::map<std::uint64_t, std::uint64_t> full = shim.committed();
      for (const auto& [blkno, fp] : shim.pending()) full[blkno] = fp;
      cands.push_back({std::move(full), 1});
    }

    int matched_role = -1;
    std::string why;
    for (const Cand& c : cands) {
      if (image_matches(*be, shim.universe(), c.image, zero_fp, &why)) {
        matched_role = c.role;
        break;
      }
    }
    if (matched_role < 0) {
      record_violation("recovered image matches no acceptable history (" +
                       why + ")");
      backend::detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
      return out;
    }

    if (!mkfs_done) {
      // Crash during mkfs: the image is consistent; the volume is only
      // required to mount if the *final* mkfs transaction (superblock +
      // root) published.  A failed mount of a half-formatted device is the
      // documented outcome, not a violation.
      try {
        std::unique_ptr<MiniFs> m = MiniFs::mount(*be, fscfg);
        ++rep.fsck_runs;
        const FsckReport fr = m->fsck();
        if (!fr.ok) {
          ++rep.fsck_dirty;
          record_violation("fsck dirty after mkfs crash: " + fr.summary());
        } else if (!m->list("/").empty()) {
          record_violation("mkfs crash recovered to a non-empty root");
        }
      } catch (const ContractViolation&) {
        // Not a mountable MiniFs volume — acceptable for a torn format.
      }
      backend::detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
      return out;
    }

    // Full fsync boundary: the mounted tree must equal the model snapshot.
    // A crash can also land *after* a commit published but before the op
    // returned — e.g., inside the cleaner's post-commit quantum.  Then the
    // pending set is empty but the boundary count advanced past the last
    // snapshot, and the new boundary's tree is the live model plus the
    // interrupted op (MiniFs commits are the final mutating action of an
    // op), i.e. exactly the role-1 construction.
    const bool committed_then_crashed =
        matched_role == 0 && interrupted && shim.boundaries() != last_boundary;
    const ModelNode* want = &committed_model;
    ModelNode committed_plus;
    if (matched_role == 1 || committed_then_crashed) {
      // The interrupted txn carries every op since the previous boundary,
      // ending with the in-flight one: that is exactly the live model (plus
      // the interrupted op, which validated against the live model).
      committed_plus = live;
      if (op_in_flight && last_op.kind != FsOp::kRead &&
          last_op.kind != FsOp::kFsync) {
        model_apply(committed_plus, last_op);
      }
      want = &committed_plus;
    }

    if (interrupted || remounted) {
      fsys = MiniFs::mount(*be, fscfg);
    }
    ++rep.fsck_runs;
    const FsckReport fr = fsys->fsck();
    if (!fr.ok) {
      ++rep.fsck_dirty;
      record_violation("fsck dirty: " + fr.summary());
    }
    if (!tree_matches(*fsys, *want, "", &why)) {
      record_violation("recovered tree diverges from the model (" + why + ")");
    }
    if (!interrupted && !remounted) {
      // Live instance already verified; also exercise the crash-free
      // recover+mount round trip half the time.
      if (rng.chance(0.5)) {
        ++rep.clean_remounts;
        fsys.reset();
        be.reset();
        be = backend::open_backend(cfg, nvm, disk, true);
        fsys = MiniFs::mount(*be, fscfg);
        ++rep.fsck_runs;
        const FsckReport fr2 = fsys->fsck();
        if (!fr2.ok) {
          ++rep.fsck_dirty;
          record_violation("fsck dirty after clean remount: " + fr2.summary());
        }
        if (!tree_matches(*fsys, *want, "", &why)) {
          record_violation("clean remount lost data (" + why + ")");
        }
      }
    }
  } catch (const std::exception& e) {
    record_violation(std::string("verification threw: ") + e.what());
  }

  backend::detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
  return out;
}

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
  const std::uint64_t last =
      static_cast<std::uint64_t>(opts.first_schedule) + opts.schedules;
  for (std::uint64_t sched = opts.first_schedule; sched < last; ++sched) {
    const std::uint64_t sseed = detail::fuzz_mix(opts.seed, sched);
    detail::run_fs_schedule(opts, sched, sseed, nullptr, /*arm_kind=*/1,
                            /*arm_step=*/0, /*mark_at_op=*/0,
                            /*zero_faults=*/false, rep);
  }
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
  FsFuzzReport rep;
  std::size_t batch_at = 0;
  const std::vector<detail::FsOp> script =
      detail::sweep_script(opts.seed, &batch_at);
  const std::uint32_t step_stride = std::max<std::uint32_t>(1, stride);

  // Learning pass: run clean, counters reset at the batch boundary.
  const detail::ScheduleOutcome learn = detail::run_fs_schedule(
      opts, /*sched=*/0, detail::fuzz_mix(opts.seed, 0xD0), &script,
      /*arm_kind=*/0, /*arm_step=*/0, batch_at, /*zero_faults=*/true, rep);
  rep.sweep_points = learn.marked_points;
  rep.sweep_torn_points = learn.marked_torn;

  for (std::uint64_t step = 1; step <= learn.marked_points;
       step += step_stride) {
    detail::run_fs_schedule(opts, step, detail::fuzz_mix(opts.seed, step),
                            &script, /*arm_kind=*/2, step, batch_at,
                            /*zero_faults=*/true, rep);
  }
  for (std::uint64_t step = 1; step <= learn.marked_torn;
       step += step_stride) {
    detail::run_fs_schedule(opts, step,
                            detail::fuzz_mix(opts.seed, 0x70000000ULL + step),
                            &script, /*arm_kind=*/3, step, batch_at,
                            /*zero_faults=*/true, rep);
  }
  return rep;
}

}  // namespace tinca::fs
