// Reproduces Fig. 1: the simulation-speed vs estimation-accuracy ladder.
// Rungs, fastest/least-informative first:
//   1. algorithm-level analytic estimate (no simulation at all)
//   2. functional simulation (no non-functional properties)
//   3. ISS + mechanistic NFP model  <-- the paper's proposal
//   4. board, approximately timed (quasi cycle accurate)
//   5. board, cycle-stepped (CAS-like; ground truth by construction)
#include <chrono>
#include <cstdio>

#include "board/board.h"
#include "sim/iss.h"
#include "support.h"
#include "workloads/kernels.h"

namespace {

struct Rung {
  std::string name;
  double wall_s = 0.0;
  double mips = 0.0;
  bool has_estimate = false;
  double energy_err_pct = 0.0;
  double time_err_pct = 0.0;
};

template <typename Sim>
nfp::sim::RunResult run_with_inputs(Sim& sim,
                                    const nfp::model::KernelJob& job,
                                    auto... dispatch) {
  sim.load(job.program);
  for (const auto& [addr, bytes] : job.inputs) {
    sim.bus().write_block(addr, bytes.data(), bytes.size());
  }
  return sim.run(nfp::sim::Iss::kDefaultMaxInsns, dispatch...);
}

double wall_of(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::printf("== Fig. 1: simulation speed vs estimation accuracy ==\n");
  nfp::board::BoardConfig cfg;
  const auto calibration = nfp::benchkit::calibrate(cfg);
  const auto& scheme = nfp::model::CategoryScheme::paper();

  nfp::workloads::MvcKernelParams params;
  params.qps = {32};
  const auto job = nfp::workloads::make_mvc_jobs(nfp::mcc::FloatAbi::kHard,
                                                 params)[3];  // lowdelay
  std::printf("workload: %s\n\n", job.name.c_str());

  // Ground truth: approximately-timed board.
  nfp::board::Board board(cfg);
  auto t0 = std::chrono::steady_clock::now();
  const auto board_run = run_with_inputs(board, job);
  const double board_wall = wall_of(t0);
  const double e_true = board.true_energy_nj();
  const double t_true = board.true_time_s();
  const auto instret = static_cast<double>(board_run.instret);

  std::vector<Rung> rungs;

  {  // 1. analytic algorithm-level model: pixels * rules of thumb.
    Rung r;
    r.name = "algorithm-level estimate";
    t0 = std::chrono::steady_clock::now();
    const double pixels = 48.0 * 48.0 * 5.0;
    const double insns_per_pixel = 300.0;  // rule of thumb
    const double mean_time_ns = 150.0;     // rule of thumb
    const double mean_energy_nj = 60.0;    // rule of thumb
    const double est_t = pixels * insns_per_pixel * mean_time_ns * 1e-9;
    const double est_e = pixels * insns_per_pixel * mean_energy_nj;
    r.wall_s = wall_of(t0);
    r.mips = 0.0;
    r.has_estimate = true;
    r.energy_err_pct = (est_e - e_true) / e_true * 100.0;
    r.time_err_pct = (est_t - t_true) / t_true * 100.0;
    rungs.push_back(r);
  }
  {  // 2. functional simulation only (block dispatch; 2b is the jit).
    nfp::sim::FunctionalSim sim;
    t0 = std::chrono::steady_clock::now();
    run_with_inputs(sim, job, nfp::sim::Dispatch::kBlock);
    Rung r;
    r.name = "functional simulation";
    r.wall_s = wall_of(t0);
    r.mips = instret / r.wall_s / 1e6;
    rungs.push_back(r);
  }
  {  // 2b. functional simulation under the x86-64 template JIT — the
     // fastest rung that still executes every instruction (on hosts
     // without the jit this measures block dispatch instead).
    nfp::sim::FunctionalSim sim;
    sim.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      sim.bus().write_block(addr, bytes.data(), bytes.size());
    }
    t0 = std::chrono::steady_clock::now();
    sim.run(nfp::sim::Iss::kDefaultMaxInsns, nfp::sim::Dispatch::kJit);
    Rung r;
    r.name = "functional simulation (jit)";
    r.wall_s = wall_of(t0);
    r.mips = instret / r.wall_s / 1e6;
    rungs.push_back(r);
  }
  {  // 3. ISS + NFP model (the paper).
    nfp::sim::Iss iss;
    t0 = std::chrono::steady_clock::now();
    run_with_inputs(iss, job);
    Rung r;
    r.name = "ISS + NFP model (paper)";
    r.wall_s = wall_of(t0);
    r.mips = instret / r.wall_s / 1e6;
    const auto est =
        nfp::model::estimate(iss.counters().counts, scheme, calibration.costs);
    r.has_estimate = true;
    r.energy_err_pct = (est.energy_nj - e_true) / e_true * 100.0;
    r.time_err_pct = (est.time_s - t_true) / t_true * 100.0;
    rungs.push_back(r);
  }
  {  // 4. board, approximately timed (block-cost dispatch, the default).
    Rung r;
    r.name = "board (approx timed, block)";
    r.wall_s = board_wall;
    r.mips = instret / board_wall / 1e6;
    r.has_estimate = true;
    r.energy_err_pct = 0.0;
    r.time_err_pct = 0.0;
    rungs.push_back(r);
  }
  {  // 4b. the same board under per-instruction stepping: the A/B baseline
     // for the block-cost dispatch. Accounting is bit-identical by
     // construction, so the error columns must print +0.0% — only the wall
     // clock moves.
    nfp::board::Board sim(cfg);
    sim.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      sim.bus().write_block(addr, bytes.data(), bytes.size());
    }
    t0 = std::chrono::steady_clock::now();
    sim.run(nfp::sim::Iss::kDefaultMaxInsns, nfp::sim::Dispatch::kStep);
    Rung r;
    r.name = "board (approx timed, step)";
    r.wall_s = wall_of(t0);
    r.mips = instret / r.wall_s / 1e6;
    r.has_estimate = true;
    r.energy_err_pct = (sim.true_energy_nj() - e_true) / e_true * 100.0;
    r.time_err_pct = (sim.true_time_s() - t_true) / t_true * 100.0;
    rungs.push_back(r);
  }
  {  // 5. board, cycle-stepped (CAS-like).
    nfp::board::BoardConfig cas = cfg;
    cas.fidelity = nfp::board::Fidelity::kCycleStepped;
    nfp::board::Board sim(cas);
    t0 = std::chrono::steady_clock::now();
    run_with_inputs(sim, job);
    Rung r;
    r.name = "board (cycle-stepped, CAS-like)";
    r.wall_s = wall_of(t0);
    r.mips = instret / r.wall_s / 1e6;
    r.has_estimate = true;
    r.energy_err_pct = (sim.true_energy_nj() - e_true) / e_true * 100.0;
    r.time_err_pct = (sim.true_time_s() - t_true) / t_true * 100.0;
    rungs.push_back(r);
  }

  nfp::model::TextTable table({"Simulation level", "wall [ms]", "speed [MIPS]",
                               "energy err", "time err"});
  for (const auto& r : rungs) {
    table.add_row(
        {r.name, nfp::model::TextTable::fmt(r.wall_s * 1e3, 2),
         r.mips > 0 ? nfp::model::TextTable::fmt(r.mips, 1) : std::string("-"),
         r.has_estimate ? nfp::model::TextTable::percent(r.energy_err_pct)
                        : std::string("n/a"),
         r.has_estimate ? nfp::model::TextTable::percent(r.time_err_pct)
                        : std::string("n/a")});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(paper shape: speed falls and accuracy rises down the "
              "ladder; the ISS+model rung combines near-ISS speed with "
              "near-CAS accuracy)\n");
  return 0;
}
