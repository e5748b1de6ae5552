// Example: replay a block-level trace against Tinca or Classic.
//
// Trace format (one request per line; '#' starts a comment):
//
//     W <blkno>            write one 4 KB block
//     R <blkno>            read one 4 KB block
//     T <blk0> <blk1> ...  commit the listed blocks as one transaction
//     F                    flush everything to disk
//     C                    simulated power failure + recovery
//
// Usage: ./build/examples/trace_replay [tinca|classic] [trace-file]
// Without a trace file, a built-in demonstration trace is replayed.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "backend/stack_builder.h"
#include "blockdev/latency_block_device.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"

using namespace tinca;

namespace {

const char* kDemoTrace = R"(# demo: two transactions, reads, a crash, more work
T 100 101 102
R 100
W 200
T 100 300
C
R 100
R 300
W 201
F
)";

struct Replayer {
  explicit Replayer(backend::StackKind kind)
      : nvm(32 << 20, pcm_profile(), clock),
        store(1 << 16),
        ssd(store, ssd_profile(), clock) {
    cfg.kind = kind;
    cfg.classic.journal_blocks = 2048;
    be = backend::open_backend(cfg, nvm, ssd, /*recover=*/false);
  }

  void crash_and_recover() {
    Rng rng(seq);
    nvm.crash(rng, 0.5);
    be = backend::open_backend(cfg, nvm, ssd, /*recover=*/true);
  }

  void replay_line(const std::string& line) {
    if (line.empty() || line[0] == '#') return;
    std::istringstream in(line);
    std::string op;
    in >> op;
    std::vector<std::byte> buf(4096);
    if (op == "W") {
      std::uint64_t blkno;
      in >> blkno;
      fill_pattern(buf, seq++);
      be->begin();
      be->stage(blkno, buf);
      be->commit();
      ++writes;
    } else if (op == "R") {
      std::uint64_t blkno;
      in >> blkno;
      be->read_block(blkno, buf);
      ++reads;
    } else if (op == "T") {
      be->begin();
      std::uint64_t blkno;
      std::uint64_t staged = 0;
      while (in >> blkno) {
        fill_pattern(buf, seq++);
        be->stage(blkno, buf);
        ++staged;
      }
      be->commit();
      ++txns;
      writes += staged;
    } else if (op == "F") {
      be->flush();
    } else if (op == "C") {
      crash_and_recover();
      ++crashes;
    } else {
      std::fprintf(stderr, "skipping unknown trace op: %s\n", op.c_str());
    }
  }

  sim::SimClock clock;
  nvm::NvmDevice nvm;
  blockdev::MemBlockDevice store;
  blockdev::LatencyBlockDevice ssd;
  backend::StackConfig cfg;
  std::unique_ptr<backend::TxnBackend> be;
  std::uint64_t seq = 1;
  std::uint64_t writes = 0, reads = 0, txns = 0, crashes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool use_classic = argc >= 2 && std::string(argv[1]) == "classic";
  Replayer replayer(use_classic ? backend::StackKind::kClassic
                                : backend::StackKind::kTinca);
  std::printf("replaying against %s\n", replayer.be->name().c_str());

  std::istringstream demo{kDemoTrace};
  std::ifstream file;
  std::istream* in = &demo;
  if (argc > 2) {
    file.open(argv[2]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    in = &file;
  }

  std::string line;
  while (std::getline(*in, line)) replayer.replay_line(line);

  std::printf("\nreplayed: %llu writes, %llu reads, %llu txns, %llu crashes\n",
              static_cast<unsigned long long>(replayer.writes),
              static_cast<unsigned long long>(replayer.reads),
              static_cast<unsigned long long>(replayer.txns),
              static_cast<unsigned long long>(replayer.crashes));
  std::printf("virtual time %.2f ms  |  clflush %llu  |  disk blocks %llu\n",
              static_cast<double>(replayer.clock.now()) / 1e6,
              static_cast<unsigned long long>(replayer.nvm.stats().clflush),
              static_cast<unsigned long long>(replayer.ssd.stats().blocks_written));
  return 0;
}
