// One transaction's writes: whole 4 KB block images staged in DRAM.
//
// This is the paper's running transaction (§4.1, Fig 6a) and the only
// staged-transaction type in the tree: the TxnBackend staging surface,
// TincaCache, the sharded front-end, the Classic stack and the NvLog drain
// all hold a transaction as a WriteSet and hand it down as is, so no layer
// re-stages or re-copies one.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockdev/block_device.h"
#include "common/expect.h"

namespace tinca::blockdev {

/// A transaction's block images in first-staged order, one per distinct
/// block.  Open until a commit or an abort closes it.
class WriteSet {
 public:
  /// One staged block: its number and its 4 KB image.
  using Write = std::pair<std::uint64_t, std::vector<std::byte>>;

  WriteSet() = default;

  /// Take over `writes` in their order.  Their block numbers must be
  /// distinct (e.g. a drained log run, which the log index coalesced).
  explicit WriteSet(std::vector<Write>&& writes) : writes_(std::move(writes)) {
    for (const Write& w : writes_)
      TINCA_EXPECT(w.second.size() == kBlockSize, "transaction blocks are 4 KB");
  }

  /// Stage a 4 KB image of `blkno`.  Restaging a block keeps its
  /// first-staged position and its latest bytes.
  void add(std::uint64_t blkno, std::span<const std::byte> data) {
    image(blkno, data.size()).assign(data.begin(), data.end());
  }
  /// Same, taking over the caller's buffer instead of copying it.
  void add(std::uint64_t blkno, std::vector<std::byte>&& data) {
    image(blkno, data.size()) = std::move(data);
  }

  /// The staged writes, in first-staged order.
  [[nodiscard]] const std::vector<Write>& writes() const { return writes_; }

  /// Number of distinct blocks staged.
  [[nodiscard]] std::size_t block_count() const { return writes_.size(); }
  [[nodiscard]] bool empty() const { return writes_.empty(); }

  /// Whether the transaction is still open (not committed or aborted).
  [[nodiscard]] bool open() const { return open_; }

  /// Close the transaction and drop its writes.
  void close() {
    open_ = false;
    writes_.clear();
    at_.clear();
  }

  /// Hand the writes over (buffers and all), leaving the set empty.
  std::vector<Write> take() {
    at_.clear();
    return std::exchange(writes_, {});
  }

 private:
  /// The buffer staging `blkno` fills, appended on first staging.
  std::vector<std::byte>& image(std::uint64_t blkno, std::size_t bytes) {
    TINCA_EXPECT(open_, "add to a closed transaction");
    TINCA_EXPECT(bytes == kBlockSize, "transaction blocks are 4 KB");
    // at_ indexes a prefix of writes_: a set taken over whole is indexed
    // only once something is added to it.
    for (std::size_t i = at_.size(); i < writes_.size(); ++i)
      at_.emplace(writes_[i].first, i);
    const auto [it, fresh] = at_.try_emplace(blkno, writes_.size());
    if (fresh) writes_.emplace_back(blkno, std::vector<std::byte>());
    return writes_[it->second].second;
  }

  std::vector<Write> writes_;
  std::unordered_map<std::uint64_t, std::size_t> at_;  ///< blkno → index
  bool open_ = true;
};

}  // namespace tinca::blockdev
