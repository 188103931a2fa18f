// Sliced-vs-batch A/B on the paper's full 120-kernel campaign (Sec. VI):
// CampaignService preempting every 2M instructions must reproduce the batch
// Campaign run (the same service at slice 0, 4 workers) bit-for-bit (cycles
// and energy per kernel) at every worker count, while showing the
// wall-clock scaling and the checkpoint traffic. Any per-kernel mismatch is
// reported and exits nonzero, so this doubles as the full-scale acceptance
// check behind tests/nfp/service_test.cpp's reduced kernel set.
#include <bit>
#include <chrono>
#include <cstdio>
#include <vector>

#include "nfp/campaign.h"
#include "nfp/service.h"
#include "workloads/kernels.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace nfp;

  std::vector<model::KernelJob> jobs;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi)) jobs.push_back(std::move(j));
    for (auto& j : workloads::make_fse_jobs(abi)) jobs.push_back(std::move(j));
  }
  std::printf("campaign: %zu kernels (MVC + FSE, both ABIs)\n", jobs.size());

  const board::BoardConfig board_cfg;
  const auto t_batch = std::chrono::steady_clock::now();
  const auto batch = model::Campaign(board_cfg, 4).run(jobs);
  const double batch_s = seconds_since(t_batch);
  std::printf("batch Campaign (4 workers): %.2f s\n", batch_s);

  int mismatches = 0;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    model::ServiceConfig cfg;
    cfg.board = board_cfg;
    cfg.workers = workers;
    cfg.calibrate = false;
    model::CampaignService service(cfg);
    std::vector<model::ServiceJob> sjobs = jobs;
    for (auto& sj : sjobs) {
      sj.slice_insns = 2'000'000;  // real preemption traffic, not a no-op
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = service.run_jobs(std::move(sjobs));
    const double secs = seconds_since(t0);
    const auto stats = service.stats();

    int bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto& g = got[i].record;
      const auto& w = batch[i];
      const bool same =
          g.ok && w.ok && g.instret == w.instret && g.cycles == w.cycles &&
          std::bit_cast<std::uint64_t>(g.true_energy_nj) ==
              std::bit_cast<std::uint64_t>(w.true_energy_nj) &&
          std::bit_cast<std::uint64_t>(g.measured.energy_nj) ==
              std::bit_cast<std::uint64_t>(w.measured.energy_nj) &&
          std::bit_cast<std::uint64_t>(g.measured.time_s) ==
              std::bit_cast<std::uint64_t>(w.measured.time_s);
      if (!same) {
        ++bad;
        std::printf("  MISMATCH %s (%s)\n", g.name.c_str(),
                    g.ok ? "values differ" : g.error.c_str());
      }
    }
    mismatches += bad;
    std::printf(
        "service %u worker(s): %.2f s (%.2fx batch), %llu checkpoint(s) "
        "(%llu bytes), %llu steal(s), %d mismatch(es)\n",
        workers, secs, secs > 0 ? batch_s / secs : 0.0,
        static_cast<unsigned long long>(stats.checkpoints),
        static_cast<unsigned long long>(stats.checkpoint_bytes),
        static_cast<unsigned long long>(stats.steals), bad);
  }

  if (mismatches != 0) {
    std::printf("FAIL: %d record(s) diverged from the batch run\n",
                mismatches);
    return 1;
  }
  std::printf("OK: every worker count bit-identical to the batch run\n");
  return 0;
}
