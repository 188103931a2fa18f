// Measurement campaign: the per-kernel job and record types, and Campaign,
// the batch front that runs a job set to completion and returns the records
// in job order. This is the machinery behind Fig. 4 and Table III, where
// 120 kernels are evaluated.
//
// Campaign has no pipeline of its own: each run is one CampaignService
// (nfp/service.h) with calibration off, which counts every kernel on the
// ISS and then measures it on the board.
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
  // Total retirement budget per platform; exceeding it without halting
  // fails the job.
  std::uint64_t max_insns = board::Board::kDefaultMaxInsns;
  // Preemption grain for CampaignService: > 0 checkpoints and re-queues the
  // job after every `slice_insns` retired instructions (per platform
  // phase); 0 runs each phase to completion in one slice.
  std::uint64_t slice_insns = 0;
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

class Campaign {
 public:
  // One service worker's reusable simulators. An arena amortises set-up over a
  // whole job queue: Platform::load only re-zeroes the pages the previous
  // kernel touched and keeps each program's morph cache and jit code warm
  // (sim/platform.h), yet a reused arena is observably identical to a fresh
  // one.
  struct WorkerArena {
    explicit WorkerArena(const board::BoardConfig& cfg) : board(cfg) {}
    sim::Iss iss;
    board::Board board;
  };

  // `threads` is the worker cap (0 = resolve_workers(0), nfp/service.h).
  explicit Campaign(board::BoardConfig cfg, unsigned threads = 0);

  // Runs every job on both platforms through a CampaignService with
  // min(threads, jobs) workers, the ISS on sim::kDefaultDispatch and the
  // board on kBlock. Results keep the job order.
  std::vector<KernelRunRecord> run(const std::vector<KernelJob>& jobs) const;

  // Single-job convenience: run({job})[0].
  KernelRunRecord run_one(const KernelJob& job) const;

 private:
  board::BoardConfig cfg_;
  unsigned threads_;
};

}  // namespace nfp::model
