// Differential oracle: one program, every dispatch mode, identical budgets.
//
// A probe run under Dispatch::kStep establishes the program's total retired
// instruction count, a handful of randomized budget checkpoints are drawn
// inside that range, and then each dispatch mode executes the program from
// scratch with the same chunked run() budgets. After every chunk — i.e. at
// arbitrary mid-run stops, not just at the final halt — the full
// architectural state is compared: registers, PSR flags, FP registers,
// instret, the per-op retire vector, the UART stream, and an FNV digest of
// every dirty RAM page. The mid-run stops are what catch accounting bugs in
// batched retirement and budget handling that a final-state-only comparison
// would miss.
#pragma once

#include <cstdint>
#include <string>

#include "asmkit/program.h"
#include "board/board.h"
#include "sim/digest.h"
#include "sim/iss.h"

namespace nfp::fuzz {

struct DiffConfig {
  // Per-mode retirement cap; a program that never halts inside it is
  // compared at the cap (still a valid differential point).
  std::uint64_t max_insns = 4'000'000;
  // Number of randomized mid-run budget stops (the final stop at the
  // program's total instret is always added on top).
  std::uint32_t checkpoints = 4;
  std::uint64_t checkpoint_seed = 0;
  // Also run the program on a measurement Board under kStep vs kBlock and
  // compare cycles, true energy (bit-for-bit), BoardStats, and the full
  // architectural state at every checkpoint. This is the oracle for the
  // board's block-cost dispatch (static per-block profiles + dynamic
  // residual hooks).
  bool check_board = true;
  // Also run the program under Dispatch::kJit and compare against kStep at
  // every checkpoint. Silently skipped when jit_available() is false (the
  // oracle degrades rather than testing jit-that-is-really-block twice).
  bool check_jit = true;
  // Save→restore→continue leg (sim/state_io.h): at every budget stop the run
  // is serialized and restored into a second fresh executor which continues
  // the schedule — rotating through the dispatch modes segment by segment —
  // and every checkpoint must match the straight-through kStep reference.
  // With check_board on, a board pair runs the same durable-checkpoint arm
  // against the board reference (cycles/energy/stats/activity bit-for-bit).
  bool check_snapshot = true;
  // Not configurable: after the last functional leg (jit, else block) and
  // after the board's block leg, the same program is reloaded into the
  // platform that just ran it and must reproduce the run bit for bit from
  // its warm code image (sim/platform.h).
};

// Architectural state observed at one budget stop of one mode.
struct Snapshot {
  std::uint64_t instret = 0;
  std::uint32_t pc = 0;
  std::uint32_t npc = 0;
  bool halted = false;
  std::uint32_t exit_code = 0;
  sim::ArchStateDigest digest{};
  std::uint64_t counts_digest = 0;
  std::uint64_t uart_digest = 0;
  std::string fault;  // non-empty if the run threw (SimError etc.)

  bool operator==(const Snapshot&) const = default;
};

struct DiffReport {
  bool diverged = false;
  std::string mode;    // dispatch mode that disagreed with kStep
  std::string detail;  // first differing checkpoint/field, human readable
  std::uint64_t step_instret = 0;
  bool step_halted = false;
};

// Reusable simulator instances (16 MiB of lazily zeroed RAM each);
// Platform::load resets them to a fresh-boot state, so reuse across programs
// is exact while skipping the full-RAM re-zeroing cost. One arena per
// thread.
struct DiffArena {
  sim::Iss step;
  sim::Iss block;
  sim::Iss jit;
  // Board pair for the step-vs-block cost differential
  // (DiffConfig::check_board). Default config: variation and the SDRAM row
  // model on, so every residual kind is exercised.
  board::Board board_step;
  board::Board board_block;
  // Ping-pong pairs for the snapshot leg (DiffConfig::check_snapshot): the
  // run alternates between the two halves across save/restore boundaries.
  sim::Iss snap_a;
  sim::Iss snap_b;
  board::Board board_snap_a;
  board::Board board_snap_b;
};

DiffReport run_differential(const asmkit::Program& program,
                            const DiffConfig& config, DiffArena& arena);

// Convenience: assembles `source` at the platform text base, then runs the
// differential. Throws asmkit::AsmError if the source does not assemble.
DiffReport run_differential_source(const std::string& source,
                                   const DiffConfig& config, DiffArena& arena);

}  // namespace nfp::fuzz
