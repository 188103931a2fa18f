// Warm code images (sim/platform.h): a Platform keeps the decode cache,
// morph cache and jit code of its last few programs across load() and
// restore_state(). The contract is that a warm platform is observably
// identical to a fresh one, in every dispatch mode.
//
// Each test runs a program that patches one of its own text words
// (tests/support/self_patching.h), so the image a platform keeps warm really
// differs from the bytes the next load or restore puts in RAM: skipping the
// refresh that sends those words through BlockCache::invalidate makes every
// test here fail.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "sim/digest.h"
#include "sim/iss.h"
#include "sim/jit.h"
#include "sim/memmap.h"
#include "support/self_patching.h"
#include "workloads/kernels.h"

namespace nfp::sim {
namespace {

using nfp::testing::self_patching_program;

// A second, unrelated program: the call-heavy loop every load alternates
// with, so the warm image of the first one is detached in between.
asmkit::Program other_program() {
  return asmkit::assemble(R"(
_start: mov 0, %o0
        mov 0, %l0
loop:   call bump
        nop
        add %l0, 1, %l0
        cmp %l0, 300
        bne loop
        nop
        ta 0
bump:   retl
        add %o0, 3, %o0
)",
                          kTextBase);
}

struct Observed {
  bool halted = false;
  std::uint32_t exit_code = 0;
  std::uint64_t instret = 0;
  std::uint32_t pc = 0;
  std::uint32_t npc = 0;
  ArchStateDigest digest{};
  std::array<std::uint64_t, isa::kOpCount> counts{};
  std::string uart;
  std::vector<std::uint8_t> output;
  std::string fault;

  bool operator==(const Observed&) const = default;
};

Observed observe(Iss& iss) {
  Observed o;
  o.halted = iss.cpu().halted;
  o.exit_code = iss.cpu().exit_code;
  o.instret = iss.cpu().instret;
  o.pc = iss.cpu().pc;
  o.npc = iss.cpu().npc;
  o.digest = arch_digest(iss.cpu(), iss.bus());
  o.counts = iss.counters().counts;
  o.uart = iss.bus().uart_output();
  o.output = iss.bus().read_block(kOutputBase, 4096);
  return o;
}

Observed run_on(Iss& iss, const model::KernelJob& job, Dispatch dispatch,
                std::uint64_t budget = 2'000'000'000ull) {
  iss.load(job.program);
  for (const auto& [addr, bytes] : job.inputs) {
    iss.bus().write_block(addr, bytes.data(), bytes.size());
  }
  std::string fault;
  try {
    iss.run(budget, dispatch);
  } catch (const std::exception& e) {
    fault = e.what();
  }
  Observed o = observe(iss);
  o.fault = fault;
  return o;
}

Observed run_fresh(const model::KernelJob& job, Dispatch dispatch,
                   std::uint64_t budget = 2'000'000'000ull) {
  Iss iss;
  return run_on(iss, job, dispatch, budget);
}

model::KernelJob job_of(const asmkit::Program& program) {
  model::KernelJob job;
  job.name = "asm";
  job.program = program;
  return job;
}

constexpr std::array<Dispatch, 3> kModes = {Dispatch::kStep, Dispatch::kBlock,
                                            Dispatch::kJit};

TEST(WarmImage, SelfPatchingProgramPremise) {
  const Observed o = run_fresh(job_of(self_patching_program()),
                               Dispatch::kStep);
  ASSERT_TRUE(o.halted);
  const unsigned sum = nfp::testing::self_patching_sum();
  EXPECT_EQ(o.exit_code, sum);
  EXPECT_EQ(o.uart, std::string(1, static_cast<char>((sum + 64) & 0xFF)));
}

TEST(WarmImage, ABAReloadsMatchFreshRuns) {
  const model::KernelJob a = job_of(self_patching_program());
  workloads::SobelKernelParams params;
  params.count = 1;
  const model::KernelJob b =
      workloads::make_sobel_jobs(mcc::FloatAbi::kSoft, params)[0];
  for (const Dispatch dispatch : kModes) {
    SCOPED_TRACE(static_cast<int>(dispatch));
    const Observed fresh_a = run_fresh(a, dispatch);
    const Observed fresh_b = run_fresh(b, dispatch);
    ASSERT_TRUE(fresh_a.halted && fresh_b.halted);
    Iss iss;
    EXPECT_EQ(run_on(iss, a, dispatch), fresh_a);
    EXPECT_EQ(run_on(iss, b, dispatch), fresh_b);
    EXPECT_EQ(run_on(iss, a, dispatch), fresh_a);
    EXPECT_EQ(run_on(iss, b, dispatch), fresh_b);
  }
}

TEST(WarmImage, ReloadAfterSelfPatchRunsTheOriginalCode) {
  const model::KernelJob a = job_of(self_patching_program());
  const model::KernelJob other = job_of(other_program());
  for (const Dispatch dispatch : kModes) {
    SCOPED_TRACE(static_cast<int>(dispatch));
    const Observed fresh = run_fresh(a, dispatch);
    Iss iss;
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(run_on(iss, a, dispatch), fresh) << "reload " << rep;
    }
    // The same after another program held the arena in between.
    run_on(iss, other, dispatch);
    EXPECT_EQ(run_on(iss, a, dispatch), fresh);
  }
}

TEST(WarmImage, ImagesBeyondTheSlotCountStillMatch) {
  // More distinct programs than image slots: evicted images are rebuilt,
  // survivors refreshed, and every run still equals a fresh one.
  std::vector<model::KernelJob> jobs;
  for (int iters = 10; jobs.size() < Platform::kImageSlots + 2; iters += 7) {
    jobs.push_back(job_of(self_patching_program(iters)));
  }
  for (const Dispatch dispatch : {Dispatch::kBlock, Dispatch::kJit}) {
    SCOPED_TRACE(static_cast<int>(dispatch));
    Iss iss;
    // Forward, then backward: the first pass evicts on every load, the
    // way back hits the survivors first.
    for (const auto& job : jobs) {
      EXPECT_EQ(run_on(iss, job, dispatch), run_fresh(job, dispatch));
    }
    for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
      EXPECT_EQ(run_on(iss, *it, dispatch), run_fresh(*it, dispatch));
    }
  }
}

TEST(WarmImage, RestoreOfSelfPatchedSnapshotIntoWarmPristineImage) {
  const model::KernelJob a = job_of(self_patching_program());
  for (const Dispatch dispatch : kModes) {
    SCOPED_TRACE(static_cast<int>(dispatch));
    // Snapshot taken with `patch` rewritten and about to run.
    Iss src;
    src.load(a.program);
    nfp::testing::run_to_fresh_patch(src, a.program);
    std::stringstream snap;
    src.save_state(snap);
    const std::string bytes = snap.str();

    Iss fresh;
    {
      std::istringstream in(bytes);
      fresh.restore_state(in);
    }
    fresh.run(1'000'000, dispatch);
    const Observed want = observe(fresh);
    ASSERT_TRUE(want.halted);

    // The target ran the program only up to a stop before the first store
    // into `patch`, so its warm image holds the pristine word, decoded,
    // morphed and compiled.
    Iss warm;
    warm.load(a.program);
    warm.run(36, dispatch);
    ASSERT_EQ(warm.bus().load32(a.program.symbol("patch")),
              a.program.word_at(a.program.symbol("patch")));
    std::istringstream in(bytes);
    warm.restore_state(in);
    warm.run(1'000'000, dispatch);
    EXPECT_EQ(observe(warm), want);
  }
}

TEST(WarmImage, JitRunSlicedAcrossRestoresMatchesUnslicedRun) {
  if (!jit_available()) GTEST_SKIP() << "jit unavailable on this host";
  workloads::SobelKernelParams params;
  params.count = 1;
  const std::vector<model::KernelJob> jobs = {
      job_of(self_patching_program(400)),
      workloads::make_sobel_jobs(mcc::FloatAbi::kSoft, params)[0]};
  for (const auto& job : jobs) {
    SCOPED_TRACE(job.name);
    const Observed straight = run_fresh(job, Dispatch::kJit);
    ASSERT_TRUE(straight.halted);
    // Ping-pong between two platforms, both warm after the first slices:
    // each restore lands on an image the other half has since patched.
    const std::uint64_t slice = job.name == "asm" ? 97 : 250'000;
    Iss halves[2];
    run_on(halves[0], job, Dispatch::kJit, slice);
    int cur = 0;
    while (!halves[cur].cpu().halted) {
      std::stringstream buf;
      halves[cur].save_state(buf);
      cur ^= 1;
      halves[cur].restore_state(buf);
      halves[cur].run(slice, Dispatch::kJit);
    }
    EXPECT_EQ(observe(halves[cur]), straight);
  }
}

TEST(WarmImage, LongLivedImageStartsOverWhenItsJitArenaFills) {
  if (!jit_available()) GTEST_SKIP() << "jit unavailable on this host";
  // Each pass patches the first word of a ~210-instruction loop block, so
  // it recompiles that block: reloading the program into one platform
  // keeps appending code to the same warm arena. Once the arena is full,
  // compiling must start over from an empty arena instead of rejecting
  // every later block.
  std::string body;
  for (int i = 0; i < 200; ++i) body += "        add %o1, 1, %o1\n";
  const model::KernelJob job = job_of(asmkit::assemble(R"(
_start: mov 0, %o0
        mov 0, %o1
        mov 0, %l7
        set patch, %g1
        set 0x90022000, %l1
loop:
patch:  add %o0, 1, %o0
)" + body + R"(
        add %l7, 1, %l7
        and %l7, 7, %l2
        add %l2, 2, %l2
        or %l1, %l2, %l3
        st %l3, [%g1]
        cmp %l7, 1000
        bne loop
        nop
        add %o0, %o1, %o0
        ta 0
)",
                                                       kTextBase));
  const Observed want = run_fresh(job, Dispatch::kJit);
  ASSERT_TRUE(want.halted);
  Iss iss;
  const JitRuntime* jr = nullptr;
  constexpr std::uint64_t kArenaBytes = std::uint64_t{16} << 20;
  for (int run = 0; run < 64; ++run) {
    ASSERT_EQ(run_on(iss, job, Dispatch::kJit), want);
    jr = iss.platform().block_cache()->jit();
    ASSERT_NE(jr, nullptr);
    if (jr->stats().code_bytes > kArenaBytes + (kArenaBytes >> 2)) break;
  }
  EXPECT_GT(jr->stats().code_bytes, kArenaBytes + (kArenaBytes >> 2));
  EXPECT_EQ(jr->stats().blocks_rejected, 0u);
}

}  // namespace
}  // namespace nfp::sim
