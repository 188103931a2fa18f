// Golden pins for the board's ground-truth accounting on real kernels.
//
// The step-vs-block equality tests and the fuzz oracle compare dispatch
// modes against each other, so a change to the shared residual kernel that
// drifts from the cost formula moves both sides together and goes unseen.
// These pins compare against fixed values recorded from the reference
// formula instead: cycles, the IEEE-754 bits of the true energy, BoardStats,
// the PMU counter export and the switching activity, for one short MVC and
// one short FSE kernel under four board configurations, in both dispatch
// modes.
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "board/board.h"
#include "workloads/kernels.h"

namespace nfp::board {
namespace {

struct Pin {
  std::uint64_t cycles = 0;
  std::uint64_t energy_bits = 0;
  BoardStats stats;
  std::array<std::uint64_t, kEventCount> events{};
  std::uint64_t activity = 0;

  bool operator==(const Pin&) const = default;
};

// Failure messages print a pin in the initializer form used below.
void PrintTo(const Pin& p, std::ostream* os) {
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(p.energy_bits));
  *os << "{" << p.cycles << "ull, " << hex << "ull,\n {" << p.stats.loads
      << ", " << p.stats.stores << ", " << p.stats.row_misses << ", "
      << p.stats.cache_hits << ", " << p.stats.cache_misses << ", "
      << p.stats.branches_taken << ", " << p.stats.branches_untaken << ", "
      << p.stats.stall_cycles << "},\n {";
  for (std::size_t i = 0; i < p.events.size(); ++i) {
    *os << (i ? ", " : "") << p.events[i];
  }
  *os << "},\n " << p.activity << "ull}";
}

Pin run_pinned(const model::KernelJob& job, const BoardConfig& cfg,
               sim::Dispatch dispatch) {
  Board brd(cfg);
  brd.load(job.program);
  for (const auto& [addr, bytes] : job.inputs) {
    brd.bus().write_block(addr, bytes.data(), bytes.size());
  }
  const auto r = brd.run(Board::kDefaultMaxInsns, dispatch);
  EXPECT_TRUE(r.halted) << job.name;
  EXPECT_EQ(r.exit_code, 0u) << job.name;
  Pin p;
  p.cycles = brd.cycles();
  p.energy_bits = std::bit_cast<std::uint64_t>(brd.true_energy_nj());
  p.stats = brd.stats();
  p.events = brd.events().v;
  p.activity = brd.switching_activity();
  return p;
}

// The four configurations every pin is recorded under. Meter noise is
// irrelevant to ground truth but left at its default.
std::vector<BoardConfig> pinned_configs() {
  std::vector<BoardConfig> cfgs(4);
  cfgs[1].enable_variation = false;
  cfgs[2].enable_cache = true;
  cfgs[3].fidelity = Fidelity::kCycleStepped;
  return cfgs;
}

void expect_pins(const model::KernelJob& job, const std::vector<Pin>& want) {
  const auto cfgs = pinned_configs();
  ASSERT_EQ(cfgs.size(), want.size());
  for (std::size_t c = 0; c < cfgs.size(); ++c) {
    for (const auto d : {sim::Dispatch::kStep, sim::Dispatch::kBlock}) {
      const Pin got = run_pinned(job, cfgs[c], d);
      EXPECT_EQ(got, want[c])
          << job.name << " config " << c << " dispatch "
          << (d == sim::Dispatch::kStep ? "step" : "block");
    }
  }
}

model::KernelJob short_mvc_job() {
  workloads::MvcKernelParams p;
  p.width = 16;
  p.height = 16;
  p.frames = 2;
  p.qps = {32};
  return workloads::make_mvc_jobs(mcc::FloatAbi::kHard, p)[0];
}

model::KernelJob short_fse_job() {
  workloads::FseKernelParams p;
  p.iterations = 2;
  p.count = 1;
  return workloads::make_fse_jobs(mcc::FloatAbi::kHard, p)[0];
}

TEST(BoardGolden, ShortMvcKernel) {
  expect_pins(short_mvc_job(), {
      // default
      Pin{6536223ull, 0x4183194e30a33343ull,
          {124930, 35318, 45729, 0, 0, 20194, 12820, 182916},
          {622742, 124930, 35318, 45729, 0, 0, 20194, 12820, 182916, 1216,
           30483},
          0ull},
      // enable_variation = false
      Pin{6536223ull, 0x41851e860bffffffull,
          {124930, 35318, 45729, 0, 0, 20194, 12820, 182916},
          {622742, 124930, 35318, 45729, 0, 0, 20194, 12820, 182916, 1216,
           30483},
          0ull},
      // enable_cache = true
      Pin{2387011ull, 0x416e479cf63346ceull,
          {124930, 35318, 7082, 124832, 98, 20194, 12820, 28328},
          {622742, 124930, 35318, 7082, 124832, 98, 20194, 12820, 28328, 1216,
           30483},
          0ull},
      // Fidelity::kCycleStepped
      Pin{6536223ull, 0x4183194e30a33343ull,
          {124930, 35318, 45729, 0, 0, 20194, 12820, 182916},
          {622742, 124930, 35318, 45729, 0, 0, 20194, 12820, 182916, 1216,
           30483},
          209167968ull},
  });
}

TEST(BoardGolden, ShortFseKernel) {
  expect_pins(short_fse_job(), {
      // default
      Pin{18260051ull, 0x419aede6c714ce27ull,
          {386155, 119836, 108728, 0, 0, 22260, 14758, 434912},
          {1335744, 386155, 119836, 108728, 0, 0, 22260, 14758, 434912,
           133076, 11745},
          0ull},
      // enable_variation = false
      Pin{18260051ull, 0x419db53d539999b4ull,
          {386155, 119836, 108728, 0, 0, 22260, 14758, 434912},
          {1335744, 386155, 119836, 108728, 0, 0, 22260, 14758, 434912,
           133076, 11745},
          0ull},
      // enable_cache = true
      Pin{5609979ull, 0x41825d55dd79acaaull,
          {386155, 119836, 25754, 384943, 1212, 22260, 14758, 103016},
          {1335744, 386155, 119836, 25754, 384943, 1212, 22260, 14758, 103016,
           133076, 11745},
          0ull},
      // Fidelity::kCycleStepped
      Pin{18260051ull, 0x419aede6c714ce27ull,
          {386155, 119836, 108728, 0, 0, 22260, 14758, 434912},
          {1335744, 386155, 119836, 108728, 0, 0, 22260, 14758, 434912,
           133076, 11745},
          584347849ull},
  });
}

}  // namespace
}  // namespace nfp::board
