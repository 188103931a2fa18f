// Directed step-vs-block regressions for the board's block-cost dispatch:
// whole-block static cost profiles plus dynamic residual callbacks must be
// bit-for-bit indistinguishable from per-instruction stepping — cycles,
// energy (IEEE-754 identical), BoardStats, switching activity, and the full
// architectural outcome.
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "asmkit/assembler.h"
#include "board/board.h"
#include "board/hooks.h"
#include "isa/decode.h"
#include "sim/bus.h"
#include "sim/memmap.h"

namespace nfp::board {
namespace {

asmkit::Program prog(const std::string& src) {
  return asmkit::assemble(src, sim::kTextBase);
}

BoardConfig loud_config() {
  // Variation ON so every residual kind is live (memory, branch, and the
  // operand-toggle residual on plain ALU/FP ops); meter noise off because
  // the comparison targets ground truth, not the bench front end.
  BoardConfig cfg;
  cfg.enable_meter_noise = false;
  return cfg;
}

struct Outcome {
  std::uint64_t instret = 0;
  std::uint64_t cycles = 0;
  std::uint64_t energy_bits = 0;
  std::uint64_t activity = 0;
  BoardStats stats;
  std::uint32_t exit_code = 0;
  std::uint32_t g1 = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome run_board(const asmkit::Program& p, const BoardConfig& cfg,
                  sim::Dispatch dispatch) {
  Board brd(cfg);
  brd.load(p);
  const auto result = brd.run(Board::kDefaultMaxInsns, dispatch);
  EXPECT_TRUE(result.halted);
  Outcome o;
  o.instret = result.instret;
  o.cycles = brd.cycles();
  o.energy_bits = std::bit_cast<std::uint64_t>(brd.true_energy_nj());
  o.activity = brd.switching_activity();
  o.stats = brd.stats();
  o.exit_code = result.exit_code;
  o.g1 = brd.cpu().r[1];
  return o;
}

void expect_all_modes_identical(const std::string& src,
                                const BoardConfig& cfg) {
  const auto p = prog(src);
  const Outcome step = run_board(p, cfg, sim::Dispatch::kStep);
  const Outcome block = run_board(p, cfg, sim::Dispatch::kBlock);
  EXPECT_EQ(step, block);
  EXPECT_GT(step.cycles, 0u);
}

TEST(BoardDispatch, SdramRowThrashMatchesStepExactly) {
  // Alternating loads/stores across two SDRAM rows (1 KiB apart) from inside
  // one straight-line block: every memory op is a row miss, so the residual
  // callback path carries all of the open-row cycle and energy corrections.
  expect_all_modes_identical(R"(
_start: set 0x40010000, %l0
        set 0x40010400, %l1
        mov 200, %l2
loop:   ld [%l0], %l3
        ld [%l1], %l4
        add %l3, %l4, %l5
        st %l5, [%l0]
        st %l5, [%l1]
        subcc %l2, 1, %l2
        bne loop
        nop
        mov 0, %o0
        ta 0
)",
                             loud_config());
}

TEST(BoardDispatch, RowThrashStatsAreLive) {
  // Sanity on the residual plumbing itself: the thrash loop must actually
  // record row misses under block dispatch, not just match a zero.
  Board brd(loud_config());
  brd.load(prog(R"(
_start: set 0x40010000, %l0
        set 0x40010400, %l1
        mov 50, %l2
loop:   ld [%l0], %l3
        ld [%l1], %l4
        subcc %l2, 1, %l2
        bne loop
        nop
        mov 0, %o0
        ta 0
)"));
  ASSERT_TRUE(brd.run().halted);
  EXPECT_EQ(brd.stats().loads, 100u);
  EXPECT_GE(brd.stats().row_misses, 100u);
}

TEST(BoardDispatch, AnnulledDelaySlotInsidePrecostedBlock) {
  // ba,a: the annulled delay slot (the add of 1000) must never retire — or
  // be cost-profiled — in either mode; bne,a retakes its delay slot only on
  // the taken path. Exercises the branch residual's direction capture and
  // the block boundary against annulment.
  expect_all_modes_identical(R"(
_start: mov 10, %l0
        mov 0, %g1
loop:   add %g1, 1, %g1
        subcc %l0, 1, %l0
        bne,a loop
        add %g1, 2, %g1
        ba,a skip
        add %g1, 1000, %g1
skip:   mov 0, %o0
        ta 0
)",
                             loud_config());
}

TEST(BoardDispatch, AnnulledSlotNeverCosted) {
  // The annulled instruction after ba,a must not contribute energy: with
  // variation off the total is an exact sum of base costs, so one stray
  // retire of the 1000-add would shift it by a whole op.
  BoardConfig quiet = loud_config();
  quiet.enable_variation = false;
  const auto p = prog(R"(
_start: ba,a skip
        add %g1, 1000, %g1
skip:   mov 0, %o0
        ta 0
)");
  const Outcome step = run_board(p, quiet, sim::Dispatch::kStep);
  const Outcome block = run_board(p, quiet, sim::Dispatch::kBlock);
  EXPECT_EQ(step, block);
  EXPECT_EQ(step.g1, 0u);
  const CostModel cost;
  const double expected = cost.of(isa::Op::kBicc).energy_nj +
                          cost.of(isa::Op::kOr).energy_nj +
                          cost.of(isa::Op::kTicc).energy_nj;
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(step.energy_bits), expected);
}

TEST(BoardDispatch, SelfModifyingStoreFlushesMidFlightCostProfile) {
  // The store patches an EARLIER, already-executed instruction of the very
  // block it sits in (add 1 <-> add 2 at `patch:`), so every iteration
  // invalidates the block while its morphed trace and cost profile are
  // mid-flight. The trace completes from the graveyard, the re-morphed
  // block rebuilds its profile, and both dispatch modes must agree on the
  // architectural result and every cost channel.
  expect_all_modes_identical(R"(
_start: mov 40, %l0
        mov 0, %g1
        set patch, %l1
        set insn_b, %l2
        ld [%l2], %l3
loop:
patch:  add %g1, 1, %g1
        st %l3, [%l1]
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
insn_b: add %g1, 2, %g1
)",
                             loud_config());
}

TEST(BoardDispatch, SelfModifyingStoreTakesEffectNextEntry) {
  // Architectural spot check for the kernel above under block dispatch: the
  // first loop iteration runs the original `add 1`, every later one the
  // patched `add 2` — 1 + 39*2 = 79 — matching step mode re-decode timing
  // at block granularity (the patch lands below the store, so the in-flight
  // remainder is unaffected).
  Board brd(loud_config());
  brd.load(prog(R"(
_start: mov 40, %l0
        mov 0, %g1
        set patch, %l1
        set insn_b, %l2
        ld [%l2], %l3
loop:
patch:  add %g1, 1, %g1
        st %l3, [%l1]
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
insn_b: add %g1, 2, %g1
)"));
  ASSERT_TRUE(brd.run().halted);
  EXPECT_EQ(brd.cpu().r[1], 79u);
}

TEST(BoardDispatch, CycleSteppedActivityMatchesAcrossModes) {
  // kCycleStepped advances the activity LFSR per cycle. The block path
  // batches the advance per block; totals must still be bit-identical.
  BoardConfig cfg = loud_config();
  cfg.fidelity = Fidelity::kCycleStepped;
  const auto p = prog(R"(
_start: set 0x40020000, %l0
        mov 30, %l1
loop:   ld [%l0], %l2
        add %l2, %l1, %l2
        st %l2, [%l0]
        add %l0, 0x400, %l0
        subcc %l1, 1, %l1
        bne loop
        nop
        mov 0, %o0
        ta 0
)");
  const Outcome step = run_board(p, cfg, sim::Dispatch::kStep);
  const Outcome block = run_board(p, cfg, sim::Dispatch::kBlock);
  EXPECT_EQ(step, block);
  EXPECT_GT(step.activity, 0u);
}

TEST(BoardDispatch, GuardedBlocksFallBackToStepping) {
  // On a MUL-less configuration the umul guard must fault at the exact
  // instruction in both modes, with identical accounting for the completed
  // prefix — ensure_block_cost refuses the block, so the guard fires from
  // the stepping path.
  BoardConfig cfg = loud_config();
  cfg.has_hw_muldiv = false;
  const auto p = prog(R"(
_start: mov 5, %l0
        add %l0, 3, %l1
        umul %l0, %l1, %l2
        mov 0, %o0
        ta 0
)");
  auto run_to_fault = [&](sim::Dispatch dispatch) {
    Board brd(cfg);
    brd.load(p);
    std::string what;
    try {
      brd.run(Board::kDefaultMaxInsns, dispatch);
    } catch (const sim::SimError& e) {
      what = e.what();
    }
    return std::tuple(what, brd.cpu().instret, brd.cycles(),
                      std::bit_cast<std::uint64_t>(brd.true_energy_nj()));
  };
  const auto step = run_to_fault(sim::Dispatch::kStep);
  const auto block = run_to_fault(sim::Dispatch::kBlock);
  EXPECT_EQ(step, block);
  EXPECT_NE(std::get<0>(step).find("MUL/DIV"), std::string::npos);
}

TEST(BoardDispatch, JitRequestRunsBlockTier) {
  // The board has no jit tier: a kJit request runs the kBlock interpreter
  // (no jit runtime is ever built) and reports kBlock as the mode it ran.
  EXPECT_EQ(Board::effective_dispatch(sim::Dispatch::kJit),
            sim::Dispatch::kBlock);
  EXPECT_EQ(Board::effective_dispatch(sim::Dispatch::kStep),
            sim::Dispatch::kStep);
  const auto p = prog(R"(
_start: set 0x40010000, %l0
        mov 500, %l2
loop:   ld [%l0], %l3
        add %l3, %l2, %l3
        st %l3, [%l0]
        subcc %l2, 1, %l2
        bne loop
        nop
        mov 0, %o0
        ta 0
)");
  Board brd(loud_config());
  brd.load(p);
  ASSERT_TRUE(brd.run(Board::kDefaultMaxInsns, sim::Dispatch::kJit).halted);
  EXPECT_EQ(brd.platform().block_cache()->jit(), nullptr);
  EXPECT_EQ(run_board(p, loud_config(), sim::Dispatch::kStep),
            run_board(p, loud_config(), sim::Dispatch::kJit));
}

TEST(BoardDispatch, FaultMidCostBlockReconcilesResiduals) {
  // The third record of the hot block is a load whose address degrades to
  // misaligned after enough iterations: the block is cost-profiled long
  // before the fault, which then fires mid-block with two residual-active
  // memory ops already captured. The reconciled fault state — message,
  // instret, cycles, energy bit pattern, and switching activity — must
  // match stepping exactly: the faulting block's prefix retires per
  // instruction from its captured operands.
  BoardConfig cfg = loud_config();
  cfg.fidelity = Fidelity::kCycleStepped;
  const auto p = prog(R"(
_start: set 0x40100000, %g1
        set 0x40200000, %g2
        mov 4, %l0
        mov 0, %o0
loop:   ld [%g1], %o1
        st %o1, [%g1]
        ld [%g2], %o2
        add %o0, %o2, %o0
        add %g2, %l0, %g2
        srl %l0, 1, %l0
        ba loop
        nop
)");
  auto run_to_fault = [&](sim::Dispatch dispatch) {
    Board brd(cfg);
    brd.load(p);
    std::string what;
    try {
      brd.run(Board::kDefaultMaxInsns, dispatch);
    } catch (const sim::SimError& e) {
      what = e.what();
    }
    return std::tuple(what, brd.cpu().instret, brd.cpu().pc, brd.cycles(),
                      std::bit_cast<std::uint64_t>(brd.true_energy_nj()),
                      brd.switching_activity(), brd.stats().loads,
                      brd.stats().row_misses);
  };
  const auto step = run_to_fault(sim::Dispatch::kStep);
  const auto block = run_to_fault(sim::Dispatch::kBlock);
  EXPECT_FALSE(std::get<0>(step).empty()) << "expected an alignment fault";
  EXPECT_EQ(step, block);
}

TEST(BoardDispatch, LeakageShareIsExemptFromToggleVariation) {
  // OpCost::leakage_nj decomposes base energy into a toggle-modulated
  // dynamic share and a static share. An op whose energy is all leakage
  // must cost exactly its base regardless of operand activity; with
  // leakage 0 the full base swings with the toggle factor.
  BoardConfig cfg;
  cfg.enable_variation = true;
  cfg.data_energy_amplitude = 0.30;

  const isa::DecodedInsn add = isa::decode(0x82006001u);  // add %g1, 1, %g1
  sim::RetireInfo noisy;
  noisy.a = 0xFFFFFFFFu;
  noisy.b = 0xA5A5A5A5u;

  CostModel all_leakage;
  all_leakage.of(isa::Op::kAdd).leakage_nj =
      all_leakage.of(isa::Op::kAdd).energy_nj;
  const ResidualTables static_tables(cfg, all_leakage);
  BoardHooks hooks_static(cfg, all_leakage, static_tables);
  hooks_static.on_retire(add, noisy);
  EXPECT_DOUBLE_EQ(hooks_static.energy_nj(),
                   all_leakage.of(isa::Op::kAdd).energy_nj);

  CostModel no_leakage;
  const ResidualTables dynamic_tables(cfg, no_leakage);
  BoardHooks hooks_dynamic(cfg, no_leakage, dynamic_tables);
  hooks_dynamic.on_retire(add, noisy);
  EXPECT_NE(hooks_dynamic.energy_nj(), no_leakage.of(isa::Op::kAdd).energy_nj);
}

}  // namespace
}  // namespace nfp::board
