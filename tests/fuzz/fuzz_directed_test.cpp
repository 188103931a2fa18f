// Directed regression programs for the two hardest dispatch-cache hazards
// the fuzzer targets: register-indirect arrival sites that alias in a
// direct-mapped branch-target table, and mid-chain invalidation (a store
// rewriting the successor block while its predecessor is the one
// executing). Both must be architecturally invisible: every dispatch mode
// agrees with the stepping reference at every budget granularity.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "asmkit/assembler.h"
#include "fuzz/oracle.h"
#include "sim/block_cache.h"
#include "sim/digest.h"
#include "sim/iss.h"
#include "sim/memmap.h"

namespace nfp::fuzz {
namespace {

// Two call sites 512 bytes apart: their return arrival pcs (site + 8) are
// congruent modulo 512, so a direct-mapped table indexed by (pc >> 2) with
// 128 slots evicts the shared slot on every iteration. A stale hit would
// resume after the wrong call site.
const char* kBtcAliasSource = R"(! btc aliasing: return sites collide mod 512
  .text
  .global _start
_start:
  clr %l0
  clr %o0
  set f1, %g1
  set f2, %g2
loop:
  jmpl %g1, %o7
  nop
  ba mid
  nop
  .space 496
mid:
  jmpl %g2, %o7
  nop
  add %l0, 1, %l0
  cmp %l0, 40
  bne loop
  nop
  ta 0
  nop
f1:
  retl
  add %o0, 1, %o0
f2:
  retl
  add %o0, 2, %o0
)";

// A counted loop whose first block stores an xor-toggled word over the
// entry instruction of its successor ("patch"), then branches into the
// freshly rewritten block: every iteration flushes the block it is about to
// enter, which must be re-morphed (and under kJit, recompiled and
// unpatched) before it runs.
const char* kMidChainSource = R"(! mid-chain invalidation: store over the
! successor block from inside its predecessor
  .text
  .global _start
_start:
  mov 0, %o0
  set patch, %g5
  set word2, %g6
  ld [%g6], %g6
  ld [%g5], %o1
  xor %o1, %g6, %g6
  mov 8, %g7
head:
  ld [%g5], %o1
  xor %o1, %g6, %o1
  st %o1, [%g5]
  ba patch
  nop
patch:
  add %o0, 5, %o0
  subcc %g7, 1, %g7
  bne head
  nop
  ta 0
  nop
word2:
  add %o0, 9, %o0
)";

TEST(FuzzDirected, BtcAliasingNeverReturnsStaleSuccessor) {
  DiffConfig diff;
  diff.checkpoint_seed = 0xB7C;
  DiffArena arena;
  const DiffReport report =
      run_differential_source(kBtcAliasSource, diff, arena);
  EXPECT_FALSE(report.diverged) << report.detail;
  EXPECT_TRUE(report.step_halted);

  sim::Iss iss;
  iss.load(asmkit::assemble(kBtcAliasSource, sim::kTextBase));
  const auto r = iss.run(1'000'000, sim::Dispatch::kBlock);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(iss.cpu().r[8], 40u * 3u);  // %o0: f1 adds 1, f2 adds 2, x40
}

TEST(FuzzDirected, MidChainInvalidationMatchesStepAtEveryBudget) {
  const auto program = asmkit::assemble(kMidChainSource, sim::kTextBase);

  sim::Iss probe;
  probe.load(program);
  const auto full = probe.run(1'000'000, sim::Dispatch::kStep);
  ASSERT_TRUE(full.halted);
  const std::uint64_t total = full.instret;
  // 8 iterations alternating the patched immediate between 5 and 9.
  EXPECT_EQ(probe.cpu().r[8], 4u * 5u + 4u * 9u);

  // Premise of the sweep: block dispatch really flushes the successor.
  sim::Iss flush;
  flush.load(program);
  ASSERT_TRUE(flush.run(1'000'000, sim::Dispatch::kBlock).halted);
  EXPECT_GT(flush.platform().block_cache()->stats().flushes, 0u);

  sim::Iss ref;
  sim::Iss dut;
  for (std::uint64_t budget = 1; budget <= total; ++budget) {
    ref.load(program);
    ref.run(budget, sim::Dispatch::kStep);
    dut.load(program);
    dut.run(budget, sim::Dispatch::kBlock);
    ASSERT_EQ(dut.cpu().instret, ref.cpu().instret) << "budget " << budget;
    ASSERT_EQ(dut.cpu().pc, ref.cpu().pc) << "budget " << budget;
    ASSERT_EQ(sim::arch_digest(dut.cpu(), dut.bus()),
              sim::arch_digest(ref.cpu(), ref.bus()))
        << "budget " << budget;
    ASSERT_EQ(dut.counters().counts, ref.counters().counts)
        << "retire vector diverged at budget " << budget;
  }
}

}  // namespace
}  // namespace nfp::fuzz
