// Cross-scheme estimation accuracy over the paper's 120-kernel campaign:
// the Eq. 1 per-category model (eq1) vs the PMU event-counter model
// (events) vs the processing-time proxy (time-proxy), each calibrated on
// the same Table-II runs and scored with the same Eq. 3 ε̄/ε_max, per
// workload group (hevc/fse × float/fixed) and overall.
//
// Hard invariants (violations print the kernel and exit nonzero):
//   - behavior preservation: the eq1 scheme's per-kernel estimate is
//     bit-identical to the legacy model::estimate(counts, paper, costs)
//     pipeline — the refactor must not move a single ulp;
//   - every scheme produces finite error statistics over the campaign.
//
// The whole table is persisted as BENCH_scheme_accuracy.json (repo-root
// convention, like BENCH_simspeed.json) for trend tracking.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nfp/campaign.h"
#include "support.h"
#include "workloads/kernels.h"

namespace {

using namespace nfp;

struct GroupStats {
  std::string group;
  std::size_t kernels = 0;
  model::ErrorStats energy;
  model::ErrorStats time;
};

std::string group_of(const std::string& name) {
  const std::string workload = name.substr(0, name.find('/'));
  const bool fixed = name.find("/fixed") != std::string::npos;
  return workload + "-" + (fixed ? "fixed" : "float");
}

// Eq. 3 stats for the records whose group matches (empty = all).
GroupStats group_stats(const std::vector<model::KernelRunRecord>& records,
                       const benchkit::EvalResult& eval,
                       const std::string& group) {
  GroupStats g;
  g.group = group.empty() ? "all" : group;
  std::vector<double> est_e, meas_e, est_t, meas_t;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& k = eval.kernels[i];
    if (!k.ok) continue;
    if (!group.empty() && group_of(k.name) != group) continue;
    ++g.kernels;
    est_e.push_back(k.estimated.energy_nj);
    meas_e.push_back(k.measured_energy_nj);
    est_t.push_back(k.estimated.time_s);
    meas_t.push_back(k.measured_time_s);
  }
  g.energy = model::error_stats(est_e, meas_e);
  g.time = model::error_stats(est_t, meas_t);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  workloads::MvcKernelParams mvc;
  workloads::FseKernelParams fse;
  if (quick) {
    mvc.qps = {32};
    mvc.frames = 3;
    fse.count = 6;
    fse.iterations = 24;
  }
  std::vector<model::KernelJob> jobs;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi, mvc)) {
      jobs.push_back(std::move(j));
    }
    for (auto& j : workloads::make_fse_jobs(abi, fse)) {
      jobs.push_back(std::move(j));
    }
  }

  const board::BoardConfig cfg;
  std::printf("== cross-scheme accuracy: %zu kernels, %zu schemes ==\n",
              jobs.size(), model::all_estimators().size());

  // One calibration per scheme, all on the same Table-II runs; one campaign,
  // scored under every scheme.
  const model::Calibrator calibrator;
  std::vector<model::SchemeCalibration> calibrations;
  for (const model::Estimator* est : model::all_estimators()) {
    std::printf("calibrating scheme %-10s (%zu terms)...\n",
                std::string(est->name()).c_str(), est->terms());
    calibrations.push_back(calibrator.fit(*est, cfg));
  }
  std::printf("running the campaign...\n");
  const auto records = model::Campaign(cfg, 4).run(jobs);

  int violations = 0;
  for (const auto& rec : records) {
    if (!rec.ok) {
      std::printf("  DYNAMIC FAILURE %s: %s\n", rec.name.c_str(),
                  rec.error.c_str());
      ++violations;
    }
  }

  std::vector<std::string> groups;
  for (const auto& rec : records) {
    const std::string g = group_of(rec.name);
    bool seen = false;
    for (const auto& have : groups) seen = seen || have == g;
    if (!seen) groups.push_back(g);
  }

  std::FILE* json = std::fopen("BENCH_scheme_accuracy.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\"kernels\":%zu,\"schemes\":[", jobs.size());
  }

  const auto& eq1_costs = calibrations[0].costs;
  bool first_scheme = true;
  for (std::size_t s = 0; s < calibrations.size(); ++s) {
    const model::Estimator& est = *model::all_estimators()[s];
    const auto& calib = calibrations[s];
    const auto eval = benchkit::evaluate_records(records, est, calib.costs);

    // Behavior preservation: eq1 through the scheme interface must equal
    // the legacy pipeline bit for bit, kernel by kernel.
    if (est.name() == "eq1") {
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (!records[i].ok) continue;
        const auto legacy = model::estimate(
            records[i].counts, model::CategoryScheme::paper(), eq1_costs);
        if (legacy.energy_nj != eval.kernels[i].estimated.energy_nj ||
            legacy.time_s != eval.kernels[i].estimated.time_s) {
          std::printf("  EQ1 DIVERGENCE %s: scheme (%.17g nJ, %.17g s) vs "
                      "legacy (%.17g nJ, %.17g s)\n",
                      records[i].name.c_str(),
                      eval.kernels[i].estimated.energy_nj,
                      eval.kernels[i].estimated.time_s, legacy.energy_nj,
                      legacy.time_s);
          ++violations;
        }
      }
    }

    std::printf("\nscheme %s (%zu terms, %zu calibration samples):\n",
                std::string(est.name()).c_str(), est.terms(), calib.samples);
    model::TextTable table(
        {"Group", "n", "eps_E mean", "eps_E max", "eps_T mean", "eps_T max"});
    std::vector<GroupStats> rows;
    for (const auto& g : groups) rows.push_back(group_stats(records, eval, g));
    rows.push_back(group_stats(records, eval, ""));
    for (const auto& g : rows) {
      if (!g.energy.ok || !g.time.ok) {
        std::printf("  NO STATS for group %s (%s)\n", g.group.c_str(),
                    g.energy.refusal.c_str());
        ++violations;
        continue;
      }
      if (!std::isfinite(g.energy.mean_abs) || !std::isfinite(g.time.mean_abs)) {
        std::printf("  NON-FINITE STATS for group %s\n", g.group.c_str());
        ++violations;
        continue;
      }
      table.add_row(
          {g.group, std::to_string(g.kernels),
           model::TextTable::fmt(g.energy.mean_abs_percent()) + "%",
           model::TextTable::fmt(g.energy.max_abs_percent()) + "%",
           model::TextTable::fmt(g.time.mean_abs_percent()) + "%",
           model::TextTable::fmt(g.time.max_abs_percent()) + "%"});
    }
    std::printf("%s", table.to_string().c_str());

    if (json != nullptr) {
      std::fprintf(json, "%s{\"scheme\":\"%s\",\"terms\":%zu,\"samples\":%zu,"
                   "\"groups\":[",
                   first_scheme ? "" : ",",
                   std::string(est.name()).c_str(), est.terms(),
                   calib.samples);
      first_scheme = false;
      bool first_group = true;
      for (const auto& g : rows) {
        std::fprintf(
            json,
            "%s{\"group\":\"%s\",\"kernels\":%zu,"
            "\"energy\":{\"mean_abs\":%.17g,\"max_abs\":%.17g},"
            "\"time\":{\"mean_abs\":%.17g,\"max_abs\":%.17g}}",
            first_group ? "" : ",", g.group.c_str(), g.kernels,
            g.energy.mean_abs, g.energy.max_abs, g.time.mean_abs,
            g.time.max_abs);
        first_group = false;
      }
      std::fputs("]}", json);
    }
  }
  if (json != nullptr) {
    std::fputs("]}\n", json);
    std::fclose(json);
    std::printf("\nwrote BENCH_scheme_accuracy.json\n");
  }

  if (violations > 0) {
    std::printf("FAIL: %d violation(s)\n", violations);
    return 1;
  }
  std::printf("PASS: eq1 bit-identical to the legacy pipeline, all schemes "
              "scored\n");
  return 0;
}
