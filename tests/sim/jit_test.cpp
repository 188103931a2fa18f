// Directed tests for the x86-64 template JIT tier (Dispatch::kJit).
//
// The contract under test is observational equivalence with the single-step
// reference at every granularity the host loop exposes: final state, exact
// mid-run budget stops (including stops that land inside delay slots and
// folded delay instructions), per-op retire vectors, MMIO side effects,
// fault state, and coherence against self-modifying stores that kill the
// very block (or chain) the emitted code is executing.
//
// Every test skips itself on hosts where jit_available() is false — there
// the executor runs block dispatch under the kJit label, which the
// fallback test at the bottom still covers.
#include "sim/jit.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "asmkit/assembler.h"
#include "sim/digest.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "workloads/kernels.h"

namespace nfp::sim {
namespace {

// Full observable state of an Iss after a run (or after a fault: `fault`
// carries the exception message and the rest the reconciled state).
struct Observed {
  bool halted = false;
  std::uint32_t exit_code = 0;
  std::uint64_t instret = 0;
  std::uint32_t pc = 0;
  std::uint32_t npc = 0;
  ArchStateDigest digest{};
  std::array<std::uint64_t, isa::kOpCount> counts{};
  std::string uart;
  std::string fault;
};

Observed run_observed(const asmkit::Program& prog, Dispatch dispatch,
                      std::uint64_t budget = 1'000'000) {
  Iss iss;
  iss.load(prog);
  Observed o;
  try {
    const auto r = iss.run(budget, dispatch);
    o.halted = r.halted;
    o.exit_code = r.exit_code;
  } catch (const std::exception& e) {
    o.fault = e.what();
  }
  o.instret = iss.cpu().instret;
  o.pc = iss.cpu().pc;
  o.npc = iss.cpu().npc;
  o.digest = arch_digest(iss.cpu(), iss.bus());
  o.counts = iss.counters().counts;
  o.uart = iss.bus().uart_output();
  return o;
}

void expect_same(const Observed& step, const Observed& jit,
                 const std::string& what) {
  EXPECT_EQ(step.halted, jit.halted) << what;
  EXPECT_EQ(step.exit_code, jit.exit_code) << what;
  EXPECT_EQ(step.instret, jit.instret) << what;
  EXPECT_EQ(step.pc, jit.pc) << what;
  EXPECT_EQ(step.npc, jit.npc) << what;
  EXPECT_EQ(step.digest.cpu, jit.digest.cpu) << what;
  EXPECT_EQ(step.digest.ram, jit.digest.ram) << what;
  EXPECT_EQ(step.counts, jit.counts) << what;
  EXPECT_EQ(step.uart, jit.uart) << what;
  EXPECT_EQ(step.fault, jit.fault) << what;
}

void expect_step_jit_identical(const asmkit::Program& prog,
                               std::uint64_t budget, const std::string& what) {
  expect_same(run_observed(prog, Dispatch::kStep, budget),
              run_observed(prog, Dispatch::kJit, budget), what);
}

#define SKIP_WITHOUT_JIT()                                       \
  if (!jit_available()) {                                        \
    GTEST_SKIP() << "jit unavailable on this host (covered by "  \
                    "ForcedOffFallsBackToBlock)";                \
  }

// ---- template coverage ----------------------------------------------------

TEST(Jit, AluFlagsShiftsMulIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Exercises every cc-setting form the templates emit natively (add/sub
  // with and without carry-in, logic, mul) plus all three shifts, across a
  // loop long enough that everything runs from emitted code.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
        sethi %hi(0x12345400), %l4
        or %l4, 0x178, %l4
loop:   addcc %o0, %l4, %o0
        addxcc %o0, %l0, %o0
        subcc %o0, %l0, %o1
        subxcc %o1, 1, %o1
        andcc %o1, %l4, %o2
        orcc %o2, 7, %o2
        xorcc %o2, %o0, %o3
        xnorcc %o3, %l0, %o3
        andncc %o3, %l4, %o4
        orncc %o4, %o1, %o4
        umul %o4, %l4, %o5
        smulcc %o5, 3, %o5
        rd %y, %g2
        xor %o5, %g2, %o5
        wr %g0, %o5, %y
        sll %o5, 3, %g3
        srl %o5, 5, %g4
        sra %o5, 7, %g5
        add %g3, %g4, %g3
        add %g3, %g5, %o0
        add %l0, 1, %l0
        cmp %l0, 500
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  expect_step_jit_identical(prog, 1'000'000, "alu-flags");
}

TEST(Jit, ConditionalBranchesAllCondsIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Data-dependent pattern of taken/untaken/annulled branches across every
  // icc condition code, iterated so both sides of each branch compile.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
        sethi %hi(0x9E370000), %l4
        or %l4, 0x3F1, %l4
loop:   umul %l0, %l4, %l1
        addcc %l1, %l4, %l1
        be,a t1
        add %o0, 1, %o0
t1:     bne t2
        add %o0, 2, %o0
t2:     bcs,a t3
        add %o0, 4, %o0
t3:     bcc t4
        add %o0, 8, %o0
t4:     bneg t5
        add %o0, 16, %o0
t5:     bpos,a t6
        add %o0, 32, %o0
t6:     bvs t7
        add %o0, 64, %o0
t7:     bvc,a t8
        add %o0, 128, %o0
t8:     bg t9
        add %o0, 256, %o0
t9:     ble,a t10
        add %o0, 512, %o0
t10:    bge t11
        add %o0, 1024, %o0
t11:    bl,a t12
        add %o0, 2048, %o0
t12:    bgu t13
        add %o0, 4095, %o0
t13:    bleu,a t14
        add %o0, 1023, %o0
t14:    ba,a t15
        add %o0, 33, %o0
t15:    add %l0, 1, %l0
        cmp %l0, 300
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  expect_step_jit_identical(prog, 1'000'000, "bicc-conds");
}

TEST(Jit, LoadsStoresAllWidthsIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %g1
        set 0x9E3779B1, %g7
        mov 0, %l0
        mov 0, %o0
loop:   umul %l0, %g7, %l1
        st %l1, [%g1]
        sth %l1, [%g1 + 4]
        stb %l1, [%g1 + 6]
        std %l0, [%g1 + 8]
        ld [%g1], %o1
        lduh [%g1 + 4], %o2
        ldsh [%g1 + 4], %o3
        ldub [%g1 + 6], %o4
        ldsb [%g1 + 6], %o5
        ldd [%g1 + 8], %g2
        add %o1, %o2, %o1
        add %o1, %o3, %o1
        add %o1, %o4, %o1
        add %o1, %o5, %o1
        add %o1, %g2, %o1
        add %o1, %g3, %o1
        xor %o0, %o1, %o0
        add %l0, 1, %l0
        cmp %l0, 400
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  expect_step_jit_identical(prog, 1'000'000, "mem-widths");
}

TEST(Jit, CallJmplUartMmioIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // call/retl pairs (jmpl exits re-enter via the host), a UART store per
  // iteration (MMIO goes through the generic helper), and an instret MMIO
  // read mid-block (the helper must expose exact mid-block instret).
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
        set 0x80000000, %l5
        set 0x80000108, %l6
loop:   call fn
        nop
        ld [%l6], %l2
        xor %o0, %l2, %o0
        and %l0, 63, %l3
        add %l3, 48, %l3
        st %l3, [%l5]
        add %l0, 1, %l0
        cmp %l0, 200
        bne loop
        nop
        ta 0
fn:     retl
        add %o0, 3, %o0
)",
                                     kTextBase);
  expect_step_jit_identical(prog, 1'000'000, "call-jmpl-mmio");
}

TEST(Jit, KernelWorkloadsIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Real compiled workloads, both ABIs: hard-float kernels exercise the
  // FPU-rejection fallback (exec_block inside a kJit run), soft-float the
  // branchiest emulation code in the repo.
  workloads::SobelKernelParams params;
  params.count = 1;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    const auto job = workloads::make_sobel_jobs(abi, params)[0];
    Iss step, jit;
    for (auto* iss : {&step, &jit}) {
      iss->load(job.program);
      for (const auto& [addr, bytes] : job.inputs) {
        iss->bus().write_block(addr, bytes.data(), bytes.size());
      }
    }
    const auto rs = step.run(2'000'000'000ull, Dispatch::kStep);
    const auto rj = jit.run(2'000'000'000ull, Dispatch::kJit);
    ASSERT_TRUE(rs.halted && rj.halted) << job.name;
    EXPECT_EQ(rs.exit_code, rj.exit_code) << job.name;
    EXPECT_EQ(rs.instret, rj.instret) << job.name;
    EXPECT_EQ(step.counters().counts, jit.counters().counts) << job.name;
    const auto ds = arch_digest(step.cpu(), step.bus());
    const auto dj = arch_digest(jit.cpu(), jit.bus());
    EXPECT_EQ(ds.cpu, dj.cpu) << job.name;
    EXPECT_EQ(ds.ram, dj.ram) << job.name;
  }
}

TEST(Jit, FpuBlocksRejectedAndFallBackPerBlock) {
  SKIP_WITHOUT_JIT();
  // A loop mixing FPU arithmetic, fcmp/fbfcc, and integer bookkeeping: the
  // FPU blocks must be rejected (exec_block fallback inside the kJit run)
  // while results stay bit-identical to stepping.
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %g1
        set 0x3FC00000, %l1
        st %l1, [%g1]
        set 0x3E800000, %l2
        st %l2, [%g1 + 4]
        ldf [%g1], %f0
        ldf [%g1 + 4], %f1
        mov 0, %l0
loop:   fadds %f0, %f1, %f2
        fmuls %f2, %f1, %f3
        fsubs %f2, %f3, %f0
        fcmps %f0, %f1
        nop
        fbl skip
        nop
        fadds %f0, %f0, %f0
skip:   add %l0, 1, %l0
        cmp %l0, 50
        bne loop
        nop
        stf %f0, [%g1 + 8]
        ld [%g1 + 8], %o0
        ta 0
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  ASSERT_NE(iss.platform().block_cache()->jit(), nullptr);
  EXPECT_GE(iss.platform().block_cache()->jit()->stats().blocks_rejected, 1u);
  expect_step_jit_identical(prog, 1'000'000, "fpu-reject");
}

// ---- budget exactness -----------------------------------------------------

TEST(Jit, BudgetExactAtEveryChainPhase) {
  SKIP_WITHOUT_JIT();
  // Two blocks in a cycle, budgets swept so the stop lands on block
  // boundaries, mid-block, and inside the folded delay instruction of the
  // taken `ba`. instret must equal the budget exactly, and the resumed
  // run must finish with the same state as an unbounded one.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
loop:   add %l0, 1, %l0
        add %l0, 1, %l0
        ba other
        nop
other:  add %l0, 1, %l0
        add %l0, 1, %l0
        add %l0, 1, %l0
        ba loop
        nop
)",
                                     kTextBase);
  for (std::uint64_t budget = 95; budget <= 105; ++budget) {
    Iss iss;
    iss.load(prog);
    const auto r = iss.run(budget, Dispatch::kJit);
    EXPECT_FALSE(r.halted) << "budget " << budget;
    EXPECT_EQ(r.instret, budget) << "budget " << budget;
    // Resume for a fixed tail and cross-check against an uninterrupted
    // step run with the same total: split points must be invisible.
    iss.run(50, Dispatch::kJit);
    Iss ref;
    ref.load(prog);
    ref.run(budget + 50, Dispatch::kStep);
    EXPECT_EQ(iss.cpu().instret, ref.cpu().instret) << "budget " << budget;
    EXPECT_EQ(iss.cpu().pc, ref.cpu().pc) << "budget " << budget;
    EXPECT_EQ(iss.cpu().npc, ref.cpu().npc) << "budget " << budget;
    EXPECT_EQ(iss.cpu().r, ref.cpu().r) << "budget " << budget;
  }
}

// ---- self-modification and chain invalidation -----------------------------

TEST(Jit, SelfModifyingStoreRecompilesBlock) {
  SKIP_WITHOUT_JIT();
  // The program patches an instruction in its own (compiled) code and
  // loops back through it: the emitted store must invalidate the block —
  // and its native code — before the next entry.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l7
        set patch, %g1
        set word, %g2
        ld [%g2], %l0
loop:   nop
patch:  mov 1, %o0
        cmp %l7, 1
        be done
        nop
        st %l0, [%g1]
        mov 1, %l7
        ba loop
        nop
done:   ta 0
word:   mov 7, %o0
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 7u);
  EXPECT_GE(iss.platform().block_cache()->stats().flushes, 1u);
  expect_step_jit_identical(prog, 1'000'000, "self-modify");
}

TEST(Jit, StoreIntoFoldedDelaySlotKillsBlock) {
  SKIP_WITHOUT_JIT();
  // The block at `skip` ends in "ba loop" and the jit folds its delay slot
  // `slot` into the emitted code. No block starts at or runs over `slot`,
  // so only the folded-delay footprint (the word one past the block) ties
  // it to compiled code. On the third pass a separate block patches `slot`
  // from "mov 1, %o1" to "mov 7, %o1"; executing the stale folded copy
  // would add 1 instead of 7 on the last two passes.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l7
        mov 0, %o0
        mov 0, %o1
        set slot, %g1
        set word, %g2
        ld [%g2], %l0
loop:   add %o0, %o1, %o0
        cmp %l7, 4
        be done
        nop
        cmp %l7, 2
        bne skip
        nop
        st %l0, [%g1]
        ba skip
        nop
skip:   add %l7, 1, %l7
        ba loop
slot:   mov 1, %o1
done:   ta 0
word:   mov 7, %o1
)",
                                     kTextBase);
  for (const auto dispatch :
       {Dispatch::kStep, Dispatch::kBlock, Dispatch::kJit}) {
    SCOPED_TRACE(static_cast<int>(dispatch));
    Iss iss;
    iss.load(prog);
    const auto r = iss.run(1'000'000, dispatch);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.exit_code, 16u);
    if (dispatch == Dispatch::kJit) {
      // Premise: the recompiled block really folds the patched slot.
      BlockCache& cache = *iss.platform().block_cache();
      const Block* b = cache.lookup(prog.symbol("skip"));
      ASSERT_NE(b, nullptr);
      EXPECT_TRUE(b->jit_folds_delay);
      EXPECT_GE(cache.stats().flushes, 1u);
      EXPECT_GE(cache.stats().store_scans, 1u);
    }
  }
}

TEST(Jit, BlockStoringIntoItsOwnFoldedSlotRunsTheNewSlot) {
  SKIP_WITHOUT_JIT();
  // The block "add; st; ba loop" folds its delay slot `slot`, and its own
  // store patches that slot from "mov 1, %o1" to "mov 7, %o1" on the first
  // pass. The store kills the block while it is in flight: the body keeps
  // running from the stale trace, as in the interpreter, but the slot must
  // then execute from the re-decoded image (7 + 7 + 7 = 21), not from the
  // folded copy (1 + 7 + 7 = 15).
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l7
        mov 0, %o0
        mov 0, %o1
        set slot, %g1
        set word, %g2
        ld [%g2], %l0
loop:   add %o0, %o1, %o0
        cmp %l7, 3
        be done
        nop
        add %l7, 1, %l7
        st %l0, [%g1]
        ba loop
slot:   mov 1, %o1
done:   ta 0
word:   mov 7, %o1
)",
                                     kTextBase);
  for (const auto dispatch :
       {Dispatch::kStep, Dispatch::kBlock, Dispatch::kJit}) {
    SCOPED_TRACE(static_cast<int>(dispatch));
    Iss iss;
    iss.load(prog);
    const auto r = iss.run(1'000'000, dispatch);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.exit_code, 21u);
  }
  expect_step_jit_identical(prog, 1'000'000, "store into own folded slot");
}

TEST(Jit, MidChainInvalidationUnpatchesBothSides) {
  SKIP_WITHOUT_JIT();
  // Block X patches block B's first word, then jumps into B; B jumps back
  // to X. Once X->B and B->X are patched into the emitted code, each store
  // kills B while X — B's native predecessor AND successor — is the block
  // in flight. A stale patched jump in either direction executes the old
  // "mov" bits and changes the sum.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l7
        mov 0, %o0
        set patch, %g1
        ld [%g1], %l0
        set word, %g2
        ld [%g2], %l2
        xor %l0, %l2, %l2
loop:   xor %l0, %l2, %l0
        st %l0, [%g1]
        ba bblk
        nop
bblk:
patch:  mov 1, %o1
        add %o0, %o1, %o0
        cmp %l7, 3
        bne loop
        add %l7, 1, %l7
        ta 0
word:   mov 7, %o1
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 16u);  // patched values seen: 7, 1, 7, 1
  expect_step_jit_identical(prog, 1'000'000, "mid-chain-invalidation");
}

TEST(Jit, EmittedChainingKeepsHotLoopNative) {
  SKIP_WITHOUT_JIT();
  // Once the two-block cycle is patched, re-entries into the host loop
  // must stop: a long run should show a handful of native entries, not one
  // per iteration.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        set 100000, %l1
loop:   add %l0, 1, %l0
        cmp %l0, %l1
        bne other
        nop
        ta 0
other:  ba loop
        nop
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(10'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  const JitRuntime* jr = iss.platform().block_cache()->jit();
  ASSERT_NE(jr, nullptr);
  EXPECT_GE(jr->stats().patches, 1u);
  EXPECT_LT(jr->stats().entries, 64u)
      << "hot cycle kept bouncing back into the host loop";
}

// ---- inline branch-target cache (register-indirect exits) -----------------

TEST(Jit, InlineBtcKeepsCallReturnLoopNative) {
  SKIP_WITHOUT_JIT();
  // call/retl hot loop: the retl's register-indirect exit must stay native
  // once the inline BTC memoizes the return target — a long run shows a
  // handful of host entries and a hit count close to the iteration count,
  // with results bit-identical to stepping.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %o0
        set 50000, %l1
loop:   call fn
        nop
        subcc %l1, 1, %l1
        bne loop
        nop
        ta 0
fn:     retl
        add %o0, 1, %o0
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(10'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  const JitRuntime* jr = iss.platform().block_cache()->jit();
  ASSERT_NE(jr, nullptr);
  EXPECT_GE(jr->stats().btc_inserts, 1u);
  EXPECT_GT(jr->inline_btc_hits(), 10'000u);
  EXPECT_LT(jr->stats().entries, 64u)
      << "indirect exits kept bouncing back into the host loop";
  expect_step_jit_identical(prog, 10'000'000, "inline-btc");
}

TEST(Jit, InlineBtcAliasingReturnSitesStayCorrect) {
  SKIP_WITHOUT_JIT();
  // Two call sites whose return addresses are 2048 bytes apart — exactly
  // kInlineBtcEntries slots at word granularity — so both returns hash to
  // the same direct-mapped BTC slot. Each return evicts the other's entry;
  // the probe must miss (tag mismatch), fall back to the host, and never
  // jump to the aliased target.
  std::string src = R"(
_start: mov 0, %o0
        set 2000, %l1
loop:   call fn
        nop
)";
  // 510 nops + the call's own two words put the second return site exactly
  // 512 words past the first.
  for (int i = 0; i < 510; ++i) src += "        nop\n";
  src += R"(
        call fn
        nop
        subcc %l1, 1, %l1
        bne loop
        nop
        ta 0
fn:     retl
        add %o0, 1, %o0
)";
  const auto prog = asmkit::assemble(src, kTextBase);
  {
    Iss iss;
    iss.load(prog);
    const auto r = iss.run(10'000'000, Dispatch::kJit);
    ASSERT_TRUE(r.halted);
    const JitRuntime* jr = iss.platform().block_cache()->jit();
    ASSERT_NE(jr, nullptr);
    // Both sites resolve through the host and re-install the shared slot.
    EXPECT_GE(jr->stats().btc_inserts, 2u);
  }
  expect_step_jit_identical(prog, 10'000'000, "inline-btc-aliasing");
}

// ---- faults ---------------------------------------------------------------

TEST(Jit, DivisionByZeroFaultStateIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Warm the block up with valid divisors first so the fault happens from
  // compiled code, then divide by zero: message, pc/npc, instret, and the
  // partial retire vector must match the stepping reference exactly.
  const auto prog = asmkit::assemble(R"(
_start: mov 8, %l0
        mov 100, %o0
loop:   udiv %o0, %l0, %o1
        add %o1, %o0, %o0
        sub %l0, 1, %l0
        cmp %l0, -1
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  const auto step = run_observed(prog, Dispatch::kStep);
  ASSERT_FALSE(step.fault.empty()) << "expected a division fault";
  expect_same(step, run_observed(prog, Dispatch::kJit), "div-zero");
}

TEST(Jit, MisalignedAccessFaultStateIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // The address walks 4, 2, 1, 0 byte strides: the first genuinely
  // misaligned word access must fault out of compiled code with the exact
  // stepping state (the emitted alignment guard routes it to the helper,
  // which rethrows the interpreter's own SimError).
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %g1
        mov 4, %l0
        mov 0, %o0
loop:   ld [%g1], %o1
        add %o0, %o1, %o0
        add %g1, %l0, %g1
        srl %l0, 1, %l0
        ba loop
        nop
)",
                                     kTextBase);
  const auto step = run_observed(prog, Dispatch::kStep);
  ASSERT_FALSE(step.fault.empty()) << "expected an alignment fault";
  expect_same(step, run_observed(prog, Dispatch::kJit), "misalign");
}

// ---- graceful degradation -------------------------------------------------

TEST(Jit, ForcedOffFallsBackToBlock) {
  // With the jit forced unavailable, --dispatch=jit semantics must be
  // bit-identical to block dispatch (this is also the only path a
  // non-x86-64 host ever runs): no JitRuntime is created at all.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
loop:   add %o0, %l0, %o0
        add %l0, 1, %l0
        cmp %l0, 100
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  jit_set_forced_off(true);
  EXPECT_FALSE(jit_available());
  const auto jit = run_observed(prog, Dispatch::kJit);
  jit_set_forced_off(false);
  const auto block = run_observed(prog, Dispatch::kBlock);
  EXPECT_EQ(jit.halted, block.halted);
  EXPECT_EQ(jit.exit_code, block.exit_code);
  EXPECT_EQ(jit.instret, block.instret);
  EXPECT_EQ(jit.digest.cpu, block.digest.cpu);
  EXPECT_EQ(jit.digest.ram, block.digest.ram);
  EXPECT_EQ(jit.counts, block.counts);

  Iss iss;
  iss.load(prog);
  jit_set_forced_off(true);
  iss.run(1'000'000, Dispatch::kJit);
  jit_set_forced_off(false);
  EXPECT_EQ(iss.platform().block_cache()->jit(), nullptr)
      << "forced-off run must not have built a JitRuntime";
}

}  // namespace
}  // namespace nfp::sim
