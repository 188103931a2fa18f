// nfpd — sharded estimation campaign service front end.
//
// Feeds estimation jobs (kernel + inputs + budget) through the library-level
// CampaignService (nfp/service.h): jobs shard across persistent worker
// threads with work stealing, long jobs are preempted and checkpointed at
// slice boundaries through the versioned snapshot format (sim/state_io.h),
// and one JSON-lines record per finished job streams to stdout as it
// completes. A summary (jobs, slices, checkpoints, steals) goes to stderr.
//
// Usage:
//   nfpd [options] [kernel.s ...]
//     --campaign        run the paper's 120-kernel set (Sec. VI): the 36
//                       MVC/HEVC and 24 FSE kernels, each in the float and
//                       fixed (soft-float) ABI
//     --workers N       worker thread count; default min(cores, 8)
//     --slice N         preemption grain in retired instructions; every job
//                       is checkpointed and re-queued each N instructions
//                       (0 = run each job phase to completion; default 0)
//     --max-insns N     per-job retirement budget (default 20e9)
//     --dispatch MODE   board dispatch: step|block (default block; jit is
//                       accepted and runs block, since the board has no
//                       jit tier; accounting is bit-identical across modes)
//     --seed N          board noise seed (BoardConfig::seed)
//     --estimate / --no-estimate
//                       calibrate once and add estimates to every record
//                       (default on)
//     --scheme NAME     estimation scheme behind the estimates: eq1 (paper
//                       Eq. 1, default; bit-identical to the classic
//                       pipeline), events (PMU event-counter model), or
//                       time-proxy (energy from measured time); the record
//                       carries the scheme name and the board's event
//                       counters
//   Positional arguments are SPARC V8 assembly kernels, assembled at the
//   platform text base and appended after any --campaign set. A path that
//   cannot be read or assembled fails only its own job: it gets an
//   "ok":false record carrying the error, and the other jobs still run.
//   All value flags accept both "--flag N" and "--flag=N".
//   Exit status: 0 if every job succeeded, 1 otherwise, 2 on usage.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "cli_common.h"
#include "mcc/compiler.h"
#include "nfp/service.h"
#include "sim/memmap.h"
#include "workloads/kernels.h"

namespace {

void usage() {
  std::printf(
      "usage: nfpd [--campaign] [--workers N] [--slice N] [--max-insns N]\n"
      "            [--dispatch MODE] [--seed N] [--estimate|--no-estimate]\n"
      "            [--scheme eq1|events|time-proxy] [kernel.s ...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  nfp::model::ServiceConfig cfg;
  bool campaign = false;
  std::uint64_t slice = 0;
  std::uint64_t max_insns = nfp::board::Board::kDefaultMaxInsns;
  std::vector<std::string> kernel_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--campaign") {
      campaign = true;
    } else if (const char* v =
                   nfp::cli::flag_value("--workers", argc, argv, i, "nfpd")) {
      cfg.workers = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
    } else if (const char* v =
                   nfp::cli::flag_value("--slice", argc, argv, i, "nfpd")) {
      slice = std::strtoull(v, nullptr, 0);
    } else if (const char* v = nfp::cli::flag_value("--max-insns", argc, argv,
                                                    i, "nfpd")) {
      max_insns = std::strtoull(v, nullptr, 0);
    } else if (const char* v =
                   nfp::cli::flag_value("--dispatch", argc, argv, i, "nfpd")) {
      cfg.dispatch = nfp::cli::parse_dispatch(v, "nfpd");
    } else if (const char* v =
                   nfp::cli::flag_value("--seed", argc, argv, i, "nfpd")) {
      cfg.board.seed = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (const char* v =
                   nfp::cli::flag_value("--scheme", argc, argv, i, "nfpd")) {
      if (nfp::model::find_estimator(v) == nullptr) {
        std::fprintf(stderr, "nfpd: unknown --scheme '%s' (known: %s)\n", v,
                     nfp::model::estimator_names().c_str());
        return 2;
      }
      cfg.scheme = v;
    } else if (nfp::cli::bool_flag(arg, "--estimate", cfg.calibrate)) {
      // handled by bool_flag
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "nfpd: unknown argument '%s'\n", arg.c_str());
      usage();
      return 2;
    } else {
      kernel_paths.push_back(arg);
    }
  }
  if (!campaign && kernel_paths.empty()) {
    std::fprintf(stderr, "nfpd: no jobs (use --campaign or pass .s files)\n");
    usage();
    return 2;
  }

  std::vector<nfp::model::ServiceJob> jobs;
  try {
    if (campaign) {
      // The paper's full test set: every MVC and FSE kernel in both ABIs.
      for (const auto abi :
           {nfp::mcc::FloatAbi::kHard, nfp::mcc::FloatAbi::kSoft}) {
        for (auto& j : nfp::workloads::make_mvc_jobs(abi)) {
          jobs.push_back(std::move(j));
        }
        for (auto& j : nfp::workloads::make_fse_jobs(abi)) {
          jobs.push_back(std::move(j));
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfpd: %s\n", e.what());
    return 2;
  }
  // Positional kernels: a bad input becomes a failed record of its own.
  std::vector<nfp::model::ServiceResult> rejected;
  for (const std::string& path : kernel_paths) {
    nfp::model::ServiceJob sj;
    sj.name = path;
    try {
      const std::optional<std::string> text = nfp::cli::try_read_file(path);
      if (!text) throw std::runtime_error("cannot open " + path);
      sj.program = nfp::asmkit::assemble(*text, nfp::sim::kTextBase);
    } catch (const std::exception& e) {
      nfp::model::ServiceResult r;
      r.record.name = path;
      r.record.error = e.what();
      rejected.push_back(std::move(r));
      continue;
    }
    jobs.push_back(std::move(sj));
  }
  for (auto& j : jobs) {
    j.max_insns = max_insns;
    j.slice_insns = slice;
  }
  // The service numbers its jobs densely from 0 in submit order; rejected
  // inputs take the ids after them.
  for (std::size_t k = 0; k < rejected.size(); ++k) {
    rejected[k].id = jobs.size() + k;
    std::puts(nfp::model::result_json_line(rejected[k]).c_str());
  }
  std::fflush(stdout);

  nfp::model::CampaignService service(cfg);
  service.set_sink([](const nfp::model::ServiceResult& r) {
    std::puts(nfp::model::result_json_line(r).c_str());
    std::fflush(stdout);
  });

  std::size_t failed = rejected.size();
  const auto results = jobs.empty() ? std::vector<nfp::model::ServiceResult>{}
                                    : service.run_jobs(std::move(jobs));
  for (const auto& r : results) {
    if (!r.record.ok) ++failed;
  }
  const auto stats = service.stats();
  std::fprintf(stderr,
               "nfpd: %llu job(s) on %u worker(s) under %s dispatch: "
               "%llu slice(s), %llu checkpoint(s) (%llu bytes), "
               "%llu resume(s), %llu steal(s), %zu failure(s)\n",
               static_cast<unsigned long long>(stats.jobs_completed),
               service.workers(),
               nfp::cli::dispatch_name(service.board_dispatch()),
               static_cast<unsigned long long>(stats.slices),
               static_cast<unsigned long long>(stats.checkpoints),
               static_cast<unsigned long long>(stats.checkpoint_bytes),
               static_cast<unsigned long long>(stats.resumes),
               static_cast<unsigned long long>(stats.steals), failed);
  return failed == 0 ? 0 : 1;
}
