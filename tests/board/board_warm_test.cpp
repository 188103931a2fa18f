// Warm code images on the measurement board (sim/platform.h): a board keeps
// the morph cache of its last few programs, with each block's cost profile,
// across load() and restore_state(). Its ground truth (cycles, energy bits,
// events, switching activity) must stay bit-for-bit that of a fresh board.
// The program patches one of its own text words, so skipping the refresh
// that sends changed words through BlockCache::invalidate fails each test.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "board/board.h"
#include "board/events.h"
#include "sim/digest.h"
#include "support/self_patching.h"
#include "workloads/kernels.h"

namespace nfp::board {
namespace {

struct Observed {
  std::uint64_t instret = 0;
  bool halted = false;
  std::uint32_t exit_code = 0;
  std::uint64_t cycles = 0;
  std::uint64_t energy_bits = 0;
  BoardStats stats;
  EventCounters events;
  std::uint64_t activity = 0;
  sim::ArchStateDigest digest{};
  std::string uart;

  bool operator==(const Observed&) const = default;
};

Observed observe(Board& b) {
  Observed o;
  o.instret = b.cpu().instret;
  o.halted = b.cpu().halted;
  o.exit_code = b.cpu().exit_code;
  o.cycles = b.cycles();
  o.energy_bits = std::bit_cast<std::uint64_t>(b.true_energy_nj());
  o.stats = b.stats();
  o.events = b.events();
  o.activity = b.switching_activity();
  o.digest = sim::arch_digest(b.cpu(), b.bus());
  o.uart = b.bus().uart_output();
  return o;
}

Observed run_on(Board& b, const model::KernelJob& job, sim::Dispatch d) {
  b.load(job.program);
  for (const auto& [addr, bytes] : job.inputs) {
    b.bus().write_block(addr, bytes.data(), bytes.size());
  }
  b.run(Board::kDefaultMaxInsns, d);
  return observe(b);
}

Observed run_fresh(const model::KernelJob& job, sim::Dispatch d) {
  Board b;
  return run_on(b, job, d);
}

model::KernelJob patching_job() {
  model::KernelJob job;
  job.name = "self-patching";
  job.program = nfp::testing::self_patching_program();
  return job;
}

TEST(BoardWarmImage, ABAReloadsMatchFreshBoards) {
  const model::KernelJob a = patching_job();
  workloads::SobelKernelParams params;
  params.count = 1;
  const model::KernelJob b =
      workloads::make_sobel_jobs(mcc::FloatAbi::kHard, params)[0];
  for (const auto d : {sim::Dispatch::kStep, sim::Dispatch::kBlock}) {
    SCOPED_TRACE(static_cast<int>(d));
    const Observed fresh_a = run_fresh(a, d);
    const Observed fresh_b = run_fresh(b, d);
    ASSERT_TRUE(fresh_a.halted && fresh_b.halted);
    EXPECT_EQ(fresh_a.exit_code, nfp::testing::self_patching_sum());
    Board brd;
    EXPECT_EQ(run_on(brd, a, d), fresh_a);
    EXPECT_EQ(run_on(brd, b, d), fresh_b);
    EXPECT_EQ(run_on(brd, a, d), fresh_a);
    EXPECT_EQ(run_on(brd, a, d), fresh_a);
    EXPECT_EQ(run_on(brd, b, d), fresh_b);
  }
}

TEST(BoardWarmImage, RestoreOfSelfPatchedSnapshotIntoWarmPristineImage) {
  const model::KernelJob a = patching_job();
  for (const auto d : {sim::Dispatch::kStep, sim::Dispatch::kBlock}) {
    SCOPED_TRACE(static_cast<int>(d));
    Board src;
    src.load(a.program);
    nfp::testing::run_to_fresh_patch(src, a.program);
    std::stringstream snap;
    src.save_state(snap);
    const std::string bytes = snap.str();

    Board fresh;
    {
      std::istringstream in(bytes);
      fresh.restore_state(in);
    }
    fresh.run(Board::kDefaultMaxInsns, d);
    const Observed want = observe(fresh);
    ASSERT_TRUE(want.halted);

    // The warm board stopped before the first store into `patch`: its image
    // holds the pristine word, with morphed blocks and cost profiles.
    Board warm;
    warm.load(a.program);
    warm.run(36, d);
    ASSERT_EQ(warm.bus().load32(a.program.symbol("patch")),
              a.program.word_at(a.program.symbol("patch")));
    std::istringstream in(bytes);
    warm.restore_state(in);
    warm.run(Board::kDefaultMaxInsns, d);
    EXPECT_EQ(observe(warm), want);
  }
}

}  // namespace
}  // namespace nfp::board
