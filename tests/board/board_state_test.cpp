// Resume bit-identity for the measurement board: a snapshot carries the
// SDRAM open-row state, cache tags, meter accumulators (cycles, per-op
// counts, residual energy — compared bit-cast), operand-toggle history, and
// the switching-activity LFSR, so a restored board continues with ground
// truth bit-for-bit identical to the uninterrupted run in every dispatch
// mode and fidelity/cache configuration. Restores under a different
// configuration are refused.
#include "board/board.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "asmkit/assembler.h"
#include "board/cost_model.h"
#include "board/events.h"
#include "sim/digest.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "sim/state_io.h"

namespace nfp::board {
namespace {

// Loads and stores striding across SDRAM rows (row misses), both branch
// directions, and operand-varying arithmetic — every residual kind and every
// accumulator the snapshot must carry.
asmkit::Program board_program(int iterations) {
  return asmkit::assemble(
      "_start: set " + std::to_string(iterations) + R"(, %l0
        set 0x40700000, %l1
        clr %l3
loop:   st %l0, [%l1 + %l3]
        ld [%l1 + %l3], %l4
        add %l3, 820, %l3
        and %l3, 0xffc, %l3
        andcc %l0, 3, %g0
        be skip
        xor %l4, %l0, %l5
        add %l5, %l4, %l6
skip:   subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
)",
      sim::kTextBase);
}

struct BoardObserved {
  std::uint64_t instret = 0;
  std::uint64_t cycles = 0;
  std::uint64_t energy_bits = 0;  // bit-cast: "identical" means identical
  BoardStats stats;
  std::uint64_t activity = 0;
  sim::ArchStateDigest digest{};
  bool halted = false;
};

BoardObserved observe(Board& b) {
  BoardObserved o;
  o.instret = b.cpu().instret;
  o.cycles = b.cycles();
  o.energy_bits = std::bit_cast<std::uint64_t>(b.true_energy_nj());
  o.stats = b.stats();
  o.activity = b.switching_activity();
  o.digest = sim::arch_digest(b.cpu(), b.bus());
  o.halted = b.cpu().halted;
  return o;
}

void expect_equal(const BoardObserved& got, const BoardObserved& want,
                  const std::string& where) {
  EXPECT_EQ(got.instret, want.instret) << where;
  EXPECT_EQ(got.cycles, want.cycles) << where;
  EXPECT_EQ(got.energy_bits, want.energy_bits) << where;
  EXPECT_EQ(got.stats, want.stats) << where;
  EXPECT_EQ(got.activity, want.activity) << where;
  EXPECT_EQ(got.digest, want.digest) << where;
  EXPECT_EQ(got.halted, want.halted) << where;
}

std::vector<sim::Dispatch> board_modes() {
  return {sim::Dispatch::kStep, sim::Dispatch::kBlock};
}

void resume_battery(const BoardConfig& cfg, const std::string& variant) {
  const auto prog = board_program(120);
  for (const sim::Dispatch d : board_modes()) {
    Board straight(cfg);
    straight.load(prog);
    straight.run(1'000'000, d);
    const BoardObserved want = observe(straight);
    ASSERT_TRUE(want.halted) << variant;

    for (const std::uint64_t stop : {1ull, 7ull, 23ull, 150ull, 500ull}) {
      Board a(cfg), b(cfg);
      a.load(prog);
      a.run(stop, d);
      std::stringstream buf;
      a.save_state(buf);
      b.restore_state(buf);
      expect_equal(observe(b), observe(a),
                   variant + " at stop " + std::to_string(stop));
      b.run(1'000'000, d);
      expect_equal(observe(b), want,
                   variant + " resumed from " + std::to_string(stop) +
                       " mode " + std::to_string(static_cast<int>(d)));
    }
  }
}

TEST(BoardState, ResumeApproxTimed) { resume_battery(BoardConfig{}, "approx"); }

TEST(BoardState, ResumeCycleStepped) {
  BoardConfig cfg;
  cfg.fidelity = Fidelity::kCycleStepped;
  resume_battery(cfg, "cycle-stepped");
}

TEST(BoardState, ResumeWithDataCache) {
  BoardConfig cfg;
  cfg.enable_cache = true;
  cfg.cache_lines = 64;
  resume_battery(cfg, "cached");
}

TEST(BoardState, MeasurementAfterResumeMatches) {
  // measure() is a pure function of ground truth + config, so a resumed
  // board's bench reading is bit-identical too.
  const auto prog = board_program(80);
  Board straight;
  straight.load(prog);
  straight.run(1'000'000);
  const Measurement want = straight.measure("kernel-x");

  Board a, b;
  a.load(prog);
  a.run(100);
  std::stringstream buf;
  a.save_state(buf);
  b.restore_state(buf);
  b.run(1'000'000);
  const Measurement got = b.measure("kernel-x");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.energy_nj),
            std::bit_cast<std::uint64_t>(want.energy_nj));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time_s),
            std::bit_cast<std::uint64_t>(want.time_s));
}

TEST(BoardState, EventCountersSurviveSnapshotAndResume) {
  // The PMU export (board/events.h) is derived entirely from snapshot state,
  // so a restored board's counter vector is bit-identical at the checkpoint
  // and stays identical to the uninterrupted run after resuming — in every
  // dispatch mode.
  const auto prog = board_program(120);
  for (const sim::Dispatch d : board_modes()) {
    Board straight;
    straight.load(prog);
    straight.run(1'000'000, d);
    const EventCounters want = straight.events();
    // The battery program must actually exercise the counters it guards.
    EXPECT_NE(want[Event::kRetired], 0u);
    EXPECT_NE(want[Event::kLoads], 0u);
    EXPECT_NE(want[Event::kStores], 0u);
    EXPECT_NE(want[Event::kRowMisses], 0u);
    EXPECT_NE(want[Event::kBranchesTaken], 0u);
    EXPECT_NE(want[Event::kBranchesUntaken], 0u);
    EXPECT_EQ(want[Event::kStallCycles],
              want[Event::kRowMisses] * CostModel{}.row_miss_cycles());

    Board a, b;
    a.load(prog);
    a.run(37, d);
    std::stringstream buf;
    a.save_state(buf);
    b.restore_state(buf);
    EXPECT_EQ(b.events(), a.events())
        << "mode " << static_cast<int>(d) << " at checkpoint";
    b.run(1'000'000, d);
    EXPECT_EQ(b.events(), want)
        << "mode " << static_cast<int>(d) << " after resume";
  }
}

TEST(BoardState, ConfigMismatchRejected) {
  const auto prog = board_program(50);
  Board src;
  src.load(prog);
  src.run(60);
  std::stringstream buf;
  src.save_state(buf);

  BoardConfig other;
  other.seed = 0xDEADBEEFu;  // any fingerprint field difference refuses
  Board target(other);
  target.load(prog);
  target.run(10);
  const BoardObserved before = observe(target);

  sim::StateErrorCode code = sim::StateErrorCode::kIo;
  try {
    target.restore_state(buf);
  } catch (const sim::StateError& e) {
    code = e.code;
  }
  EXPECT_EQ(code, sim::StateErrorCode::kConfigMismatch);
  expect_equal(observe(target), before, "target after refused restore");
}

TEST(BoardState, BoardSnapshotRefusedByIss) {
  // Board chunks are foreign to a platform-only restore: structured error,
  // never silently skipped.
  Board src;
  src.load(board_program(50));
  src.run(30);
  std::stringstream buf;
  src.save_state(buf);

  sim::FunctionalSim f;
  f.load(board_program(50));
  sim::StateErrorCode code = sim::StateErrorCode::kIo;
  try {
    sim::restore_state(buf, f.platform());
  } catch (const sim::StateError& e) {
    code = e.code;
  }
  EXPECT_EQ(code, sim::StateErrorCode::kUnknownChunk);
}

TEST(BoardState, RestoreIntoFreshBoardWithoutLoad) {
  // restore_state is self-contained: a never-loaded board works as a target.
  const auto prog = board_program(60);
  Board straight;
  straight.load(prog);
  straight.run(1'000'000);

  Board a;
  a.load(prog);
  a.run(77);
  std::stringstream buf;
  a.save_state(buf);

  Board fresh;  // no load()
  fresh.restore_state(buf);
  fresh.run(1'000'000);
  expect_equal(observe(fresh), observe(straight), "fresh-target resume");
}

}  // namespace
}  // namespace nfp::board
