#include "nfp/campaign.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/iss.h"

namespace nfp::model {

unsigned resolve_workers(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : std::min(hw, 8u);
}

Campaign::Campaign(board::BoardConfig cfg, unsigned threads)
    : cfg_(cfg), threads_(resolve_workers(threads)) {}

KernelRunRecord Campaign::run_one(const KernelJob& job) const {
  WorkerArena arena(cfg_);
  return run_one(job, arena);
}

KernelRunRecord Campaign::run_one(const KernelJob& job,
                                  WorkerArena& arena) const {
  KernelRunRecord rec;
  rec.name = job.name;
  try {
    sim::Iss& iss = arena.iss;
    iss.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      iss.bus().write_block(addr, bytes.data(), bytes.size());
    }
    const auto iss_result = iss.run();
    if (!iss_result.halted) {
      throw std::runtime_error("ISS run did not halt (instruction budget)");
    }
    rec.counts = iss.counters().counts;
    rec.instret = iss_result.instret;
    rec.exit_code = iss_result.exit_code;

    board::Board& brd = arena.board;
    brd.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      brd.bus().write_block(addr, bytes.data(), bytes.size());
    }
    const auto board_result = brd.run(board::Board::kDefaultMaxInsns, dispatch_);
    if (!board_result.halted) {
      throw std::runtime_error("board run did not halt");
    }
    if (board_result.instret != rec.instret) {
      // The estimator multiplies ISS counts with board-calibrated costs;
      // diverging instruction streams would invalidate the experiment.
      throw std::runtime_error("ISS/board instruction streams diverged");
    }
    rec.measured = brd.measure(job.name);
    rec.events = brd.events();
    rec.cycles = brd.cycles();
    rec.true_energy_nj = brd.true_energy_nj();
    rec.true_time_s = brd.true_time_s();
    rec.ok = true;
  } catch (const std::exception& e) {
    rec.ok = false;
    rec.error = e.what();
  }
  return rec;
}

std::vector<KernelRunRecord> Campaign::run(
    const std::vector<KernelJob>& jobs) const {
  std::vector<KernelRunRecord> results(jobs.size());
  std::atomic<std::size_t> next{0};
  const unsigned workers =
      std::min<std::size_t>(threads_, jobs.size() == 0 ? 1 : jobs.size());

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      // One arena per worker, reused across the whole queue: only pages the
      // previous kernel dirtied get re-zeroed instead of 2 x 16 MiB of RAM
      // (and hooks/caches reset) per job.
      WorkerArena arena(cfg_);
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= jobs.size()) return;
        results[i] = run_one(jobs[i], arena);
      }
    });
  }
  for (auto& t : pool) t.join();
  return results;
}

}  // namespace nfp::model
