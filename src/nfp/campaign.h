// Measurement campaign: run a set of kernels on the ISS (instruction counts)
// and on the measurement board (ground truth + bench measurement), in
// parallel across kernels. This is the machinery behind Fig. 4 and
// Table III, where 120 kernels are evaluated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asmkit/program.h"
#include "board/board.h"
#include "nfp/estimator.h"
#include "nfp/scheme.h"
#include "sim/iss.h"

namespace nfp::model {

struct KernelJob {
  std::string name;
  asmkit::Program program;
  // Input blocks written into RAM before the run (address, payload).
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> inputs;
};

struct KernelRunRecord {
  std::string name;
  bool ok = false;
  std::string error;
  std::uint32_t exit_code = 0;

  // From the ISS (the model's inputs).
  OpCounts counts{};
  std::uint64_t instret = 0;

  // From the board (what the experimenter measures).
  board::Measurement measured;
  // PMU-style counter export from the board run (board/events.h) — the
  // feature source for the event-based estimation schemes.
  board::EventCounters events;
  // Ground truth, for diagnostics only.
  std::uint64_t cycles = 0;
  double true_energy_nj = 0.0;
  double true_time_s = 0.0;
};

// Everything an estimation scheme may draw features from, extracted from a
// finished record (nfp/estimator.h).
inline RunSample run_sample(const KernelRunRecord& rec) {
  RunSample s;
  s.counts = rec.counts;
  s.instret = rec.instret;
  s.events = rec.events;
  s.measured_time_s = rec.measured.time_s;
  return s;
}

// Worker count for a `requested` fleet size: `requested` itself when
// nonzero, else min(hardware_concurrency, 8), or 2 when the host does not
// report its CPU count. Each worker holds two 16 MiB platforms, hence the
// cap. Shared by Campaign and CampaignService.
unsigned resolve_workers(unsigned requested);

class Campaign {
 public:
  // One worker's reusable simulators. An arena amortises set-up over a
  // whole job queue: Platform::load only re-zeroes the pages the previous
  // kernel touched and keeps each program's morph cache and jit code warm
  // (sim/platform.h), yet a reused arena is observably identical to a fresh
  // one.
  struct WorkerArena {
    explicit WorkerArena(const board::BoardConfig& cfg) : board(cfg) {}
    sim::Iss iss;
    board::Board board;
  };

  explicit Campaign(board::BoardConfig cfg, unsigned threads = 0);

  // Dispatch mode for the board runs; the ISS always runs
  // sim::kDefaultDispatch (the jit where the host can run it). Board
  // accounting is bit-identical across modes, so this is a speed knob — the
  // default is kBlock; step is the A/B baseline surfaced on nfpc as
  // --dispatch=step. A kJit request runs (and reports) kBlock.
  void set_board_dispatch(sim::Dispatch dispatch) {
    dispatch_ = board::Board::effective_dispatch(dispatch);
  }
  sim::Dispatch board_dispatch() const { return dispatch_; }

  // Runs every job on both platforms. Results keep the job order.
  std::vector<KernelRunRecord> run(const std::vector<KernelJob>& jobs) const;

  // Single-job convenience (also used by tests). Builds a throwaway arena.
  KernelRunRecord run_one(const KernelJob& job) const;
  KernelRunRecord run_one(const KernelJob& job, WorkerArena& arena) const;

 private:
  board::BoardConfig cfg_;
  unsigned threads_;
  sim::Dispatch dispatch_ = sim::Dispatch::kBlock;
};

}  // namespace nfp::model
