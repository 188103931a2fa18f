// Campaign benchmark (see README.md next to this file).
//
//   nfp_perfbench --workload campaign|estimate_only|service_sliced
//                 --seed N --seconds S --trace 0|1 [--commit SHA]
//                 [--trace-out FILE] [--setup-only] [--mix bench|small]
//                 [--inject corrupt-output|flip-record]
//   nfp_perfbench --check-seed0
//
// --trace 0 measures the workload for S seconds through the public nfpkit
// entry points and prints the end-to-end metrics; --trace 1 runs one pass of
// the workload untraced, replays the same jobs with spans around every
// layer call, and prints the per-layer metrics. Either way the last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}, and
// any correctness mismatch exits nonzero.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asmkit/assembler.h"
#include "mix.h"
#include "nfp/calibration.h"
#include "nfp/campaign.h"
#include "nfp/estimator.h"
#include "nfp/service.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "trace.h"
#include "workloads/kernels.h"

#ifndef NFP_BUILD_TYPE
#define NFP_BUILD_TYPE "unknown"
#endif

namespace {

using namespace nfp;
using perfbench::MixJob;
using perfbench::Scope;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

// Static initialisation runs right before main: the process start.
const Clock::time_point g_process_start = Clock::now();

constexpr std::uint64_t kSliceInsns = 2'000'000;  // bench_service_ab grain
constexpr std::size_t kMinLatencySamples = 100;   // p90 with >= 10 beyond

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Workload { kCampaign, kEstimateOnly, kServiceSliced };

struct Options {
  Workload workload = Workload::kCampaign;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool check_seed0 = false;
  std::string commit = "unknown";
  std::string trace_out;
  std::string inject;
  perfbench::MixParams mix = perfbench::bench_mix_params();
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "nfp_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload_name = value();
      have_workload = true;
      if (o.workload_name == "campaign") {
        o.workload = Workload::kCampaign;
      } else if (o.workload_name == "estimate_only") {
        o.workload = Workload::kEstimateOnly;
      } else if (o.workload_name == "service_sliced") {
        o.workload = Workload::kServiceSliced;
      } else {
        usage_error("unknown workload '" + o.workload_name + "'");
      }
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--commit") {
      o.commit = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (arg == "--check-seed0") {
      o.check_seed0 = true;
    } else if (arg == "--inject") {
      o.inject = value();
      if (o.inject != "corrupt-output" && o.inject != "flip-record") {
        usage_error("unknown --inject '" + o.inject + "'");
      }
    } else if (arg == "--mix") {
      const std::string m = value();
      if (m == "small") {
        o.mix = {2, 1, 2, false};  // self-test mix: all four groups kept
      } else if (m != "bench") {
        usage_error("unknown --mix '" + m + "'");
      }
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload && !o.check_seed0) usage_error("--workload is required");
  return o;
}

unsigned cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Service workers: one per CPU, at most 8.
unsigned default_workers() { return std::min(cpu_count(), 8u); }

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- job outcomes and their bit-exact comparison ----

struct Outcome {
  model::KernelRunRecord rec;
  model::Estimate est;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  const auto& x = a.rec;
  const auto& y = b.rec;
  return x.ok == y.ok && x.exit_code == y.exit_code && x.instret == y.instret &&
         x.counts == y.counts && x.cycles == y.cycles && x.events == y.events &&
         same_bits(x.measured.energy_nj, y.measured.energy_nj) &&
         same_bits(x.measured.time_s, y.measured.time_s) &&
         same_bits(x.true_energy_nj, y.true_energy_nj) &&
         same_bits(x.true_time_s, y.true_time_s) &&
         same_bits(a.est.energy_nj, b.est.energy_nj) &&
         same_bits(a.est.time_s, b.est.time_s);
}

struct Errors {
  std::vector<std::string> list;
  void add(const std::string& what) {
    if (list.size() < 20) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    list.push_back(what);
  }
};

// ---- set-up: compile, inputs, cold calibration ----

struct Setup {
  std::vector<MixJob> mix;
  model::CategoryCosts costs;
  std::unique_ptr<model::CampaignService> service;  // campaign, sliced
  std::vector<std::unique_ptr<sim::Iss>> isses;     // estimate_only
  unsigned workers = 0;
  double compile_s = 0, inputs_s = 0, calibration_s = 0, setup_s = 0;
  std::size_t input_bytes = 0;
};

double timed(Tracer& t, const char* name, const auto& fn) {
  const auto t0 = Clock::now();
  Scope s(&t, name, -1);
  fn();
  return since(t0);
}

Setup run_setup(const Options& o, Tracer& t) {
  Setup s;
  // estimate_only runs on the benchmark's own threads: half the CPUs, so
  // the pure-ISS load leaves the host room. On a shared 4-vCPU host, runs
  // alternating 4 and 2 threads over 7 seeds spread kernels_per_s by 0.11
  // and 0.06 (interquartile range over median).
  s.workers = o.workload == Workload::kEstimateOnly
                  ? std::max(1u, cpu_count() / 2)
                  : default_workers();
  s.compile_s = timed(t, "mcc.compile", [] {
    for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
      workloads::mvc_program(abi);
      workloads::fse_program(abi);
    }
  });
  s.inputs_s = timed(t, "workloads.inputs",
                     [&] { s.mix = perfbench::make_mix(o.seed, o.mix); });
  for (const MixJob& m : s.mix) s.input_bytes += perfbench::input_bytes(m.job);
  if (o.workload == Workload::kEstimateOnly) {
    s.calibration_s = timed(t, "calibration.fit", [&] {
      s.costs = model::Calibrator()
                    .fit(model::eq1_estimator(), board::BoardConfig{})
                    .costs;
    });
    for (unsigned w = 0; w < s.workers; ++w) {
      s.isses.push_back(std::make_unique<sim::Iss>());
    }
  } else {
    model::ServiceConfig cfg;
    cfg.workers = s.workers;
    s.service = std::make_unique<model::CampaignService>(cfg);
    s.calibration_s = timed(t, "calibration.fit",
                            [&] { s.costs = s.service->costs(); });
  }
  s.setup_s = since(g_process_start);
  return s;
}

// ---- untraced runs through the public entry points ----

struct Done {
  std::size_t mix = 0;
  double latency_s = 0;   // submit to result
  bool in_window = true;  // counted in the throughput/latency metrics
  Outcome out;
};

struct RunResult {
  std::vector<Done> done;
  double window_s = 0;  // the time the counted jobs took
  double wall_s = 0;    // t0 to the last result
  model::ServiceStats stats{};
  std::vector<std::vector<std::uint8_t>> outputs;  // estimate_only, by mix
};

model::ServiceJob service_job(const MixJob& m, std::uint64_t slice) {
  model::ServiceJob j;
  j.name = m.job.name;
  j.program = m.job.program;
  j.inputs = m.job.inputs;
  j.slice_insns = slice;
  return j;
}

// `jobs` jobs (job k runs mix[k % mix.size()]) into the one CampaignService
// built during set-up: all submitted at t0 (campaign), or as a closed loop
// of 2 clients per worker, each submitting its next job when the sink
// returns its previous one (service_sliced). The closed loop counts only
// jobs that finished while every client was still active, so the drain at
// the end does not dilute throughput.
RunResult run_service(Setup& s, bool closed_loop, std::size_t jobs) {
  struct Entry {
    std::size_t mix;
    Clock::time_point submitted, finished;
  };
  const std::uint64_t slice = closed_loop ? kSliceInsns : 0;
  model::CampaignService& svc = *s.service;
  const std::uint64_t id_base = svc.stats().jobs_completed;
  const auto t0 = Clock::now();
  std::mutex mu;
  std::vector<Entry> book;  // by service job id - id_base
  std::size_t submitted = 0;
  Clock::time_point last_submit = t0;

  // Runs under `mu`, which the sink takes too, so a job's entry exists
  // before its result can be booked.
  auto submit_locked = [&](Clock::time_point at) {
    const std::size_t mix = submitted++ % s.mix.size();
    const std::uint64_t id =
        svc.submit(service_job(s.mix[mix], slice)) - id_base;
    if (book.size() <= id) book.resize(id + 1);
    book[id] = {mix, at, at};
    last_submit = at;
  };
  svc.set_sink([&](const model::ServiceResult& r) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lk(mu);
    book[r.id - id_base].finished = now;
    if (closed_loop && submitted < jobs) submit_locked(now);
  });
  {
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t first =
        closed_loop ? std::min(jobs, 2 * std::size_t{s.workers}) : jobs;
    while (submitted < first) submit_locked(t0);
  }
  svc.wait_all();
  svc.set_sink(nullptr);

  Clock::time_point end = t0;
  for (const Entry& e : book) end = std::max(end, e.finished);
  RunResult rr;
  rr.wall_s = std::chrono::duration<double>(end - t0).count();
  if (closed_loop && last_submit > t0) end = last_submit;
  rr.window_s = std::chrono::duration<double>(end - t0).count();
  rr.stats = svc.stats();
  for (auto& r : svc.results()) {
    if (r.id < id_base) continue;
    const Entry& e = book[r.id - id_base];
    rr.done.push_back(
        {e.mix,
         std::chrono::duration<double>(e.finished - e.submitted).count(),
         e.finished <= end, Outcome{r.record, r.estimate}});
  }
  return rr;
}

Outcome iss_estimate(sim::Iss& iss, const model::KernelJob& job,
                     const model::CategoryCosts& costs) {
  Outcome o;
  o.rec.name = job.name;
  iss.load(job.program);
  for (const auto& [addr, bytes] : job.inputs) {
    iss.bus().write_block(addr, bytes.data(), bytes.size());
  }
  const auto r = iss.run();
  if (!r.halted) throw std::runtime_error("ISS run did not halt");
  o.rec.counts = iss.counters().counts;
  o.rec.instret = r.instret;
  o.rec.exit_code = r.exit_code;
  o.est = model::eq1_estimator().estimate(model::run_sample(o.rec), costs);
  o.rec.ok = true;
  return o;
}

// estimate_only: `jobs` jobs submitted at t0 and pulled by one thread per
// worker, each reusing one Iss; ISS run plus a warm eq1 estimate, no board.
RunResult run_estimate_only(Setup& s, std::size_t jobs) {
  RunResult rr;
  rr.outputs.resize(s.mix.size());
  rr.done.resize(jobs);
  std::vector<double> finished(jobs, 0.0);
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < s.workers; ++w) {
    pool.emplace_back([&, w] {
      sim::Iss& iss = *s.isses[w];
      for (std::size_t k; (k = next.fetch_add(1)) < jobs;) {
        Done& d = rr.done[k];
        d.mix = k % s.mix.size();
        try {
          d.out = iss_estimate(iss, s.mix[d.mix].job, s.costs);
        } catch (const std::exception& e) {
          d.out.rec.ok = false;
          d.out.rec.error = e.what();
        }
        d.latency_s = finished[k] = since(t0);
        if (k < s.mix.size()) {  // first copy: keep the output for checking
          rr.outputs[k] = iss.bus().read_block(
              sim::kOutputBase, perfbench::output_bytes(s.mix[k]));
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  rr.window_s = rr.wall_s = *std::max_element(finished.begin(), finished.end());
  return rr;
}

RunResult run_untraced(Setup& s, Workload w, std::size_t jobs) {
  if (w == Workload::kEstimateOnly) return run_estimate_only(s, jobs);
  return run_service(s, w == Workload::kServiceSliced, jobs);
}

// The measured load: `rounds` rounds of `jobs` jobs each, every round a
// batch submitted at its own t0 (or one closed loop), of whole copies of the
// mix with >= 10 latency samples beyond p90. It is sized by the nominal
// throughput of the bench mix on a 4-vCPU x86-64 host (estimate_only: per
// thread) so a run there lasts about --seconds. Batch workloads report the
// median over rounds: the host's speed drifts by tens of percent within
// seconds, and a median of rounds rejects a slow stretch. The closed loop
// runs once, 1.25x as long, because its latencies also vary with which jobs
// happen to share a shard. The job count, not the time, stays fixed between
// two builds compared at the same --seconds: a faster build simply finishes
// sooner.
struct Load {
  std::size_t rounds = 1;
  std::size_t jobs = 0;  // per round
};

Load measured_load(const Options& o, const Setup& s) {
  const std::size_t n = s.mix.size();
  if (o.workload == Workload::kServiceSliced) {
    constexpr double kJobsPerS = 5.95;
    const std::size_t min_jobs =  // the drain is not counted
        kMinLatencySamples + 2 * std::size_t{s.workers};
    const auto copies = static_cast<std::size_t>(
        std::llround(1.25 * o.seconds * kJobsPerS / static_cast<double>(n)));
    return {1, std::max((min_jobs + n - 1) / n, copies) * n};
  }
  const double jobs_per_s =
      o.workload == Workload::kCampaign ? 8.1 : 10.0 * s.workers;
  const std::size_t jobs = (kMinLatencySamples + n - 1) / n * n;
  const auto rounds = static_cast<std::size_t>(
      std::llround(o.seconds * jobs_per_s / static_cast<double>(jobs)));
  return {std::max<std::size_t>(1, rounds), jobs};
}

// ---- traced replay of the per-job call sequence ----

struct LayerCounts {
  std::uint64_t iss_insns = 0, board_insns = 0, board_cycles = 0;
  std::uint64_t estimates = 0, saves = 0, restores = 0, save_bytes = 0;
  void add(const LayerCounts& o) {
    iss_insns += o.iss_insns;
    board_insns += o.board_insns;
    board_cycles += o.board_cycles;
    estimates += o.estimates;
    saves += o.saves;
    restores += o.restores;
    save_bytes += o.save_bytes;
  }
};

struct Pending {
  std::size_t item = 0;  // index into the replayed job list
  bool board_phase = false;
  std::string checkpoint;
  Outcome out;
};

struct Replay {
  const Setup& s;
  const std::vector<std::size_t>& items;  // mix indices, submission order
  bool board;                             // run the board phase
  std::uint64_t slice;
  sim::Dispatch dispatch;
};

// Mirrors CampaignService::run_slice (and, with slice 0 and no board phase,
// the estimate_only job): one run segment, with a span around every call.
bool replay_slice(const Replay& rp, Pending& pj, model::Campaign::WorkerArena& a,
                  Tracer& t, LayerCounts& n,
                  std::vector<std::uint8_t>& output) {
  const auto id = static_cast<std::int64_t>(pj.item);
  const MixJob& m = rp.s.mix[rp.items[pj.item]];
  const model::KernelJob& job = m.job;
  Scope slice(&t, "slice", id);
  auto budget_for = [&](std::uint64_t done) {
    const std::uint64_t max = board::Board::kDefaultMaxInsns;
    const std::uint64_t remaining = max > done ? max - done : 0;
    return rp.slice > 0 ? std::min(remaining, rp.slice) : remaining;
  };
  auto save = [&](const auto& platform) {
    Scope sp(&t, "checkpoint.save", id);
    std::ostringstream out;
    platform.save_state(out);
    pj.checkpoint = std::move(out).str();
    ++n.saves;
    n.save_bytes += pj.checkpoint.size();
  };
  auto restore = [&](auto& platform) {
    Scope sp(&t, "checkpoint.restore", id);
    std::istringstream in(std::move(pj.checkpoint));
    platform.restore_state(in);
    pj.checkpoint.clear();
    ++n.restores;
  };
  auto estimate = [&] {
    Scope sp(&t, "estimate", id);
    pj.out.est =
        model::eq1_estimator().estimate(model::run_sample(pj.out.rec),
                                        rp.s.costs);
    ++n.estimates;
  };

  if (!pj.board_phase) {
    sim::Iss& iss = a.iss;
    if (pj.checkpoint.empty()) {
      {
        Scope sp(&t, "iss.load", id);
        iss.load(job.program);
      }
      Scope sp(&t, "iss.write_inputs", id);
      for (const auto& [addr, bytes] : job.inputs) {
        iss.bus().write_block(addr, bytes.data(), bytes.size());
      }
    } else {
      restore(iss);
    }
    const std::uint64_t before = iss.cpu().instret;
    sim::RunResult r;
    {
      Scope sp(&t, "iss.run", id);
      r = iss.run(budget_for(before));
    }
    n.iss_insns += r.instret - before;
    if (!r.halted) {
      if (r.instret >= board::Board::kDefaultMaxInsns) {
        throw std::runtime_error("ISS run did not halt");
      }
      save(iss);
      return false;
    }
    pj.out.rec.counts = iss.counters().counts;
    pj.out.rec.instret = r.instret;
    pj.out.rec.exit_code = r.exit_code;
    output = iss.bus().read_block(sim::kOutputBase, perfbench::output_bytes(m));
    if (!rp.board) {
      estimate();
      pj.out.rec.ok = true;
      return true;
    }
    pj.board_phase = true;  // the phase switch is a preemption point
    return false;
  }

  board::Board& brd = a.board;
  if (pj.checkpoint.empty()) {
    {
      Scope sp(&t, "board.load", id);
      brd.load(job.program);
    }
    Scope sp(&t, "board.write_inputs", id);
    for (const auto& [addr, bytes] : job.inputs) {
      brd.bus().write_block(addr, bytes.data(), bytes.size());
    }
  } else {
    restore(brd);
  }
  const std::uint64_t before = brd.cpu().instret;
  sim::RunResult r;
  {
    Scope sp(&t, "board.run", id);
    r = brd.run(budget_for(before), rp.dispatch);
  }
  n.board_insns += r.instret - before;
  if (!r.halted) {
    if (r.instret >= board::Board::kDefaultMaxInsns) {
      throw std::runtime_error("board run did not halt");
    }
    save(brd);
    return false;
  }
  if (r.instret != pj.out.rec.instret) {
    throw std::runtime_error("ISS/board instruction streams diverged");
  }
  {
    Scope sp(&t, "board.measure", id);
    pj.out.rec.measured = brd.measure(job.name);
    pj.out.rec.cycles = brd.cycles();
    pj.out.rec.true_energy_nj = brd.true_energy_nj();
    pj.out.rec.true_time_s = brd.true_time_s();
  }
  {
    Scope sp(&t, "board.events", id);
    pj.out.rec.events = brd.events();
  }
  n.board_cycles += pj.out.rec.cycles;
  estimate();
  pj.out.rec.ok = true;
  return true;
}

struct TracedRun {
  std::vector<Outcome> outcomes;                   // by item
  std::vector<std::vector<std::uint8_t>> outputs;  // by item
  std::vector<Tracer> tracers;                     // one per worker
  LayerCounts counts;
  double wall_s = 0;
};

TracedRun run_traced(const Replay& rp, unsigned workers,
                     Clock::time_point epoch) {
  TracedRun tr;
  tr.outcomes.resize(rp.items.size());
  tr.outputs.resize(rp.items.size());
  for (unsigned w = 0; w < workers; ++w) tr.tracers.emplace_back(epoch);
  std::vector<std::unique_ptr<model::Campaign::WorkerArena>> arenas;
  for (unsigned w = 0; w < workers; ++w) {
    arenas.push_back(
        std::make_unique<model::Campaign::WorkerArena>(board::BoardConfig{}));
  }
  std::mutex mu;
  std::condition_variable cv;  // work re-queued or everything finished
  std::deque<Pending> queue;
  for (std::size_t i = 0; i < rp.items.size(); ++i) {
    Pending pj;
    pj.item = i;
    pj.out.rec.name = rp.s.mix[rp.items[i]].job.name;
    queue.push_back(std::move(pj));
  }
  std::size_t unfinished = rp.items.size();
  std::vector<LayerCounts> counts(workers);
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      while (true) {
        Pending pj;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return !queue.empty() || unfinished == 0; });
          if (unfinished == 0) return;
          pj = std::move(queue.front());
          queue.pop_front();
        }
        bool finished = true;
        try {
          finished = replay_slice(rp, pj, *arenas[w], tr.tracers[w], counts[w],
                                  tr.outputs[pj.item]);
        } catch (const std::exception& e) {
          pj.out.rec.ok = false;
          pj.out.rec.error = e.what();
        }
        std::lock_guard<std::mutex> lk(mu);
        if (finished) {
          tr.outcomes[pj.item] = std::move(pj.out);
          if (--unfinished == 0) cv.notify_all();
        } else {
          queue.push_back(std::move(pj));
          cv.notify_one();
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  tr.wall_s = since(t0);
  for (const auto& c : counts) tr.counts.add(c);
  for (auto& t : tr.tracers) t.finish();
  return tr;
}

// The Table-II calibration call sequence (Calibrator::run for eq1), replayed
// with spans to count its board runs and retired instructions. The replayed
// costs must equal the set-up's calibrated ones bit for bit.
struct CalibrationReplay {
  std::uint64_t board_runs = 0, insns = 0;
  bool matches = true;
};

CalibrationReplay replay_calibration(const model::CategoryCosts& costs,
                                     Tracer& t) {
  CalibrationReplay cr;
  const auto& scheme = model::CategoryScheme::paper();
  const model::Calibrator cal;
  const board::BoardConfig cfg;
  for (std::size_t c = 0; c < scheme.size(); ++c) {
    const model::KernelPair pair = cal.make_kernels(c);
    double e[2] = {0, 0}, time_s[2] = {0, 0};
    for (const int is_test : {0, 1}) {
      asmkit::Program program;
      {
        Scope sp(&t, "calibration.assemble", -1);
        program = asmkit::assemble(is_test ? pair.test_asm : pair.ref_asm,
                                   sim::kTextBase);
      }
      board::Board brd(cfg);
      brd.load(program);
      sim::RunResult r;
      {
        Scope sp(&t, "calibration.board_run", -1);
        r = brd.run();
      }
      ++cr.board_runs;
      cr.insns += r.instret;
      Scope sp(&t, "calibration.measure", -1);
      const auto meas = brd.measure("cal/" + pair.category +
                                    (is_test ? "/test" : "/ref"));
      e[is_test] = meas.energy_nj;
      time_s[is_test] = meas.time_s;
    }
    const auto n = static_cast<double>(pair.n_test);
    cr.matches = cr.matches && c < costs.size() &&
                 same_bits(costs.energy_nj[c], (e[1] - e[0]) / n) &&
                 same_bits(costs.time_ns[c], (time_s[1] - time_s[0]) * 1e9 / n);
  }
  return cr;
}

// ---- correctness checks ----

// Every finished job must be ok and bit-identical to the first record of the
// same mix job; returns the first outcome per mix index.
std::vector<const Outcome*> check_repeatable(const Setup& s,
                                             const RunResult& rr, Errors& err) {
  std::vector<const Outcome*> first(s.mix.size(), nullptr);
  for (const Done& d : rr.done) {
    if (!d.out.rec.ok) {
      err.add("job " + s.mix[d.mix].job.name + " failed: " + d.out.rec.error);
      continue;
    }
    if (d.out.rec.exit_code != 0) {
      err.add("job " + s.mix[d.mix].job.name + " exited nonzero");
    }
    if (!first[d.mix]) {
      first[d.mix] = &d.out;
    } else if (!same_outcome(*first[d.mix], d.out)) {
      err.add("job " + s.mix[d.mix].job.name +
              " is not bit-identical across repetitions");
    }
  }
  return first;
}

void check_output(const MixJob& m, std::vector<std::uint8_t> got,
                  const Options& o, bool& injected, Errors& err) {
  if (o.inject == "corrupt-output" && !injected && !got.empty()) {
    got[0] ^= 0x01;
    injected = true;
  }
  const std::string why = perfbench::check_output(m, got);
  if (!why.empty()) err.add("job " + m.job.name + ": " + why);
}

void maybe_flip(const Options& o, Outcome& out, bool& injected) {
  if (o.inject == "flip-record" && !injected) {
    out.rec.instret ^= 1;
    injected = true;
  }
}

// Untimed reference after the measured window: every distinct job runs once
// more on a fresh ISS (output checked against the host golden, counts and
// the eq1 estimate compared with the measured records) and, for
// estimate_only, once on the board for the accuracy metrics.
std::vector<Outcome> reference_check(const Setup& s, const Options& o,
                                     const std::vector<const Outcome*>& first,
                                     Errors& err) {
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < s.mix.size(); ++i) {
    if (first[i]) todo.push_back(i);
  }
  std::vector<Outcome> ref(s.mix.size());
  std::vector<std::vector<std::uint8_t>> outputs(s.mix.size());
  const unsigned threads = default_workers();  // untimed: use every CPU
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      sim::Iss iss;
      for (std::size_t k; (k = next.fetch_add(1)) < todo.size();) {
        const std::size_t i = todo[k];
        try {
          ref[i] = iss_estimate(iss, s.mix[i].job, s.costs);
          outputs[i] = iss.bus().read_block(sim::kOutputBase,
                                            perfbench::output_bytes(s.mix[i]));
        } catch (const std::exception& e) {
          ref[i].rec.error = e.what();
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  std::vector<model::KernelRunRecord> board_recs;
  if (o.workload == Workload::kEstimateOnly) {
    std::vector<model::KernelJob> jobs;
    for (const std::size_t i : todo) jobs.push_back(s.mix[i].job);
    board_recs = model::Campaign(board::BoardConfig{}, threads).run(jobs);
  }

  bool corrupted = false, flipped = false;
  for (std::size_t k = 0; k < todo.size(); ++k) {
    const std::size_t i = todo[k];
    Outcome measured = *first[i];
    maybe_flip(o, measured, flipped);
    const Outcome& r = ref[i];
    const std::string& name = s.mix[i].job.name;
    if (!r.rec.ok) {
      err.add("reference run of " + name + " failed: " + r.rec.error);
      continue;
    }
    if (o.workload != Workload::kEstimateOnly) {
      check_output(s.mix[i], outputs[i], o, corrupted, err);
    }
    if (r.rec.instret != measured.rec.instret ||
        r.rec.counts != measured.rec.counts ||
        !same_bits(r.est.energy_nj, measured.est.energy_nj) ||
        !same_bits(r.est.time_s, measured.est.time_s)) {
      err.add("job " + name + " differs from its reference ISS run");
    }
    if (o.workload == Workload::kEstimateOnly) {
      const model::KernelRunRecord& br = board_recs[k];
      if (!br.ok || br.instret != r.rec.instret) {
        err.add("reference board run of " + name + " failed");
      }
      ref[i].rec.measured = br.measured;
    } else {
      ref[i].rec.measured = measured.rec.measured;
    }
  }
  return ref;
}

// ---- metrics ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Nearest-rank percentile; `beyond` gets the number of samples above it.
double percentile(std::vector<double> v, double p, std::size_t* beyond) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size()) - 1e-9));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (beyond) *beyond = v.size() - idx - 1;
  return v[idx];
}

// The highest of p90/p99/p99.9 that keeps >= 10 samples beyond it.
std::string highest_percentile(const std::vector<double>& v) {
  static const std::pair<double, const char*> kLevels[] = {
      {0.5, "p50"}, {0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}};
  std::string best = "none";
  for (const auto& [p, label] : kLevels) {
    std::size_t beyond = 0;
    percentile(v, p, &beyond);
    if (beyond >= 10) best = label;
  }
  return best;
}

void accuracy(const std::vector<Outcome>& ref,
              const std::vector<const Outcome*>& first,
              std::vector<Metric>& out) {
  double e_sum = 0, e_max = 0, t_sum = 0, t_max = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!first[i] || !ref[i].rec.ok) continue;
    const auto& m = ref[i].rec.measured;
    const double e = std::abs(ref[i].est.energy_nj - m.energy_nj) /
                     m.energy_nj * 100.0;
    const double t =
        std::abs(ref[i].est.time_s - m.time_s) / m.time_s * 100.0;
    e_sum += e;
    t_sum += t;
    e_max = std::max(e_max, e);
    t_max = std::max(t_max, t);
    ++n;
  }
  const double div = n == 0 ? 1.0 : static_cast<double>(n);
  out.push_back({"energy_err_mean_pct", e_sum / div, "%"});
  out.push_back({"energy_err_max_pct", e_max, "%"});
  out.push_back({"time_err_mean_pct", t_sum / div, "%"});
  out.push_back({"time_err_max_pct", t_max, "%"});
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": " +
            json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void print_provenance(const Options& o, const Setup& s,
                      const std::vector<std::pair<std::string, std::string>>&
                          extra) {
  std::string line = "{\"provenance\": {\"git_commit\": " +
                     json_string(o.commit) + ", \"build_type\": " +
                     json_string(NFP_BUILD_TYPE) +
                     ", \"nproc\": " + std::to_string(cpu_count()) +
                     ", \"workers\": " + std::to_string(s.workers) +
                     ", \"seed\": " + std::to_string(o.seed) +
                     ", \"workload\": " + json_string(o.workload_name) +
                     ", \"trace\": " + (o.trace ? "1" : "0") +
                     ", \"mix_jobs\": " + std::to_string(s.mix.size());
  for (const auto& [k, v] : extra) line += ", " + json_string(k) + ": " + v;
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::size_t failed_jobs(const RunResult& rr) {
  std::size_t n = 0;
  for (const Done& d : rr.done) n += d.out.rec.ok ? 0 : 1;
  return n;
}

// --trace 0: measure the workload, then check it.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

int run_end_to_end(const Options& o, Setup& s) {
  const Load load = measured_load(o, s);
  const bool board = o.workload != Workload::kEstimateOnly;
  RunResult all;
  std::vector<double> rate, mips, p50, p90;
  std::size_t samples = 0, beyond = 0;
  std::string highest;
  for (std::size_t r = 0; r < load.rounds; ++r) {
    RunResult rr = run_untraced(s, o.workload, load.jobs);
    std::vector<double> lat;
    std::uint64_t insns = 0;
    for (const Done& d : rr.done) {
      if (!d.in_window) continue;
      lat.push_back(d.latency_s);
      insns += d.out.rec.instret * (board ? 2 : 1);  // ISS + board phases
    }
    rate.push_back(static_cast<double>(lat.size()) / rr.window_s);
    mips.push_back(static_cast<double>(insns) / rr.window_s / 1e6);
    p50.push_back(percentile(lat, 0.5, nullptr));
    p90.push_back(percentile(lat, 0.9, &beyond));
    samples = lat.size();
    highest = highest_percentile(lat);
    if (r == 0) all.outputs = std::move(rr.outputs);
    for (Done& d : rr.done) all.done.push_back(std::move(d));
  }
  const double rss = rss_peak_mb();

  Errors err;
  const auto first = check_repeatable(s, all, err);
  if (o.workload == Workload::kEstimateOnly) {
    bool corrupted = false;
    for (std::size_t i = 0; i < s.mix.size(); ++i) {
      if (first[i]) check_output(s.mix[i], all.outputs[i], o, corrupted, err);
    }
  }
  const auto ref = reference_check(s, o, first, err);

  const std::size_t failed = failed_jobs(all);
  std::vector<Metric> m;
  m.push_back({"setup_s", s.setup_s, "s"});
  m.push_back({"kernels_per_s", median(rate), "1/s"});
  m.push_back({"guest_mips", median(mips), "MIPS"});
  m.push_back({"job_latency_p50_s", median(p50), "s"});
  m.push_back({"job_latency_p90_s", median(p90), "s"});
  accuracy(ref, first, m);
  m.push_back({"rss_peak_mb", rss, "MB"});
  m.push_back({"job_ok_ratio",
               static_cast<double>(all.done.size() - failed) /
                   static_cast<double>(all.done.size()),
               "ratio"});
  if (beyond < 10) err.add("too few latency samples beyond p90");

  print_provenance(
      o, s,
      {{"slice_insns", std::to_string(o.workload == Workload::kServiceSliced
                                          ? kSliceInsns
                                          : 0)},
       {"rounds", std::to_string(load.rounds)},
       {"latency_samples_per_round", std::to_string(samples)},
       {"latency_p90_beyond", std::to_string(beyond)},
       {"latency_highest_percentile", json_string(highest)}});
  print_result(err.list.empty(), all.done.size(), failed, m);
  return err.list.empty() ? 0 : 1;
}

void write_trace(const std::string& path, const std::vector<Tracer>& tracers,
                 const Setup& s, const std::vector<std::size_t>& items) {
  std::ofstream out(path);
  std::int64_t base = 0;
  for (std::size_t w = 0; w < tracers.size(); ++w) {
    const auto& spans = tracers[w].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const perfbench::Span& sp = spans[i];
      out << "{\"id\":" << base + static_cast<std::int64_t>(i)
          << ",\"thread\":" << w << ",\"name\":\"" << sp.name
          << "\",\"start_ns\":" << sp.start_ns << ",\"end_ns\":" << sp.end_ns
          << ",\"self_ns\":" << sp.self_ns << ",\"parent\":"
          << (sp.parent < 0 ? -1 : base + sp.parent) << ",\"job\":" << sp.job;
      if (sp.job >= 0 && static_cast<std::size_t>(sp.job) < items.size()) {
        out << ",\"kernel\":" << json_string(s.mix[items[sp.job]].job.name);
      }
      out << "}\n";
    }
    base += static_cast<std::int64_t>(spans.size());
  }
}

// --trace 1: one untraced pass, the traced replay of the same jobs, and the
// per-layer metrics.
int run_per_layer(const Options& o, Setup& s, Tracer& setup_tracer) {
  // Each job of the mix exactly once, untraced, then traced.
  RunResult rr = run_untraced(s, o.workload, s.mix.size());
  Errors err;
  auto first = check_repeatable(s, rr, err);

  std::vector<std::size_t> items;  // untraced submission order
  for (const Done& d : rr.done) items.push_back(d.mix);
  const bool board = o.workload != Workload::kEstimateOnly;
  const Replay rp{s, items, board,
                  o.workload == Workload::kServiceSliced ? kSliceInsns : 0,
                  board ? s.service->board_dispatch() : sim::Dispatch{}};
  TracedRun tr = run_traced(rp, s.workers, g_process_start);

  bool corrupted = false, flipped = false;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const MixJob& m = s.mix[items[k]];
    if (!tr.outcomes[k].rec.ok) {
      err.add("traced run of " + m.job.name + " failed: " +
              tr.outcomes[k].rec.error);
      continue;
    }
    check_output(m, tr.outputs[k], o, corrupted, err);
    if (!first[items[k]]) continue;
    Outcome untraced = *first[items[k]];
    maybe_flip(o, untraced, flipped);
    if (!same_outcome(untraced, tr.outcomes[k])) {
      err.add("job " + m.job.name +
              ": untraced record differs from the traced one");
    }
  }

  const CalibrationReplay cal = replay_calibration(s.costs, setup_tracer);
  if (!cal.matches) {
    std::fprintf(stderr,
                 "perfbench: warning: calibration replay does not reproduce "
                 "the calibrated costs; calibration.* counts may be stale\n");
  }
  setup_tracer.finish();

  std::map<std::string, double> self_s;  // by span name
  for (const auto& t : tr.tracers) {
    for (const auto& sp : t.spans()) {
      self_s[sp.name] += static_cast<double>(sp.self_ns) * 1e-9;
    }
  }
  auto layer_s = [&](const std::string& layer) {
    double sum = 0;
    for (const auto& [name, v] : self_s) {
      if (name.rfind(layer + ".", 0) == 0 || name == layer) sum += v;
    }
    return sum;
  };
  const double iss_s = layer_s("iss"), board_s = layer_s("board"),
               est_s = layer_s("estimate"),
               save_s = self_s["checkpoint.save"],
               restore_s = self_s["checkpoint.restore"];
  const double busy = iss_s + board_s + est_s + save_s + restore_s;
  const LayerCounts& n = tr.counts;
  auto mips = [](std::uint64_t insns, double sec) {
    return sec > 0 ? static_cast<double>(insns) / sec / 1e6 : 0.0;
  };
  auto share = [&](double v) { return busy > 0 ? v / busy : 0.0; };
  const model::ServiceStats st = board ? rr.stats : model::ServiceStats{};

  std::vector<Metric> m;
  m.push_back({"mcc.compile_s", s.compile_s, "s"});
  m.push_back({"workloads.inputs_s", s.inputs_s, "s"});
  m.push_back({"workloads.input_bytes", static_cast<double>(s.input_bytes),
               "bytes"});
  m.push_back({"calibration.s", s.calibration_s, "s"});
  m.push_back({"calibration.board_runs", static_cast<double>(cal.board_runs),
               "count"});
  m.push_back({"calibration.insns", static_cast<double>(cal.insns), "count"});
  m.push_back({"iss.s", iss_s, "s"});
  m.push_back({"iss.insns", static_cast<double>(n.iss_insns), "count"});
  m.push_back({"iss.mips", mips(n.iss_insns, self_s["iss.run"]), "MIPS"});
  m.push_back({"iss.share", share(iss_s), "ratio"});
  m.push_back({"board.s", board_s, "s"});
  m.push_back({"board.insns", static_cast<double>(n.board_insns), "count"});
  m.push_back({"board.mips", mips(n.board_insns, self_s["board.run"]),
               "MIPS"});
  m.push_back({"board.cycles", static_cast<double>(n.board_cycles), "count"});
  m.push_back({"board.share", share(board_s), "ratio"});
  m.push_back({"estimate.s", est_s, "s"});
  m.push_back({"estimate.calls", static_cast<double>(n.estimates), "count"});
  m.push_back({"checkpoint.save_s", save_s, "s"});
  m.push_back({"checkpoint.restore_s", restore_s, "s"});
  m.push_back({"checkpoint.saves", static_cast<double>(n.saves), "count"});
  m.push_back({"checkpoint.bytes", static_cast<double>(n.save_bytes),
               "bytes"});
  m.push_back({"checkpoint.share", share(save_s + restore_s), "ratio"});
  m.push_back({"service.slices", static_cast<double>(st.slices), "count"});
  m.push_back({"service.slices_per_job",
               st.jobs_completed ? static_cast<double>(st.slices) /
                                       static_cast<double>(st.jobs_completed)
                                 : 0.0,
               "ratio"});
  m.push_back({"service.steals", static_cast<double>(st.steals), "count"});
  m.push_back({"service.resumes", static_cast<double>(st.resumes), "count"});
  m.push_back({"service.checkpoint_bytes",
               static_cast<double>(st.checkpoint_bytes), "bytes"});
  m.push_back({"trace.overhead_ratio", tr.wall_s / rr.wall_s, "ratio"});

  if (!o.trace_out.empty()) {
    std::vector<Tracer> all = tr.tracers;
    all.push_back(setup_tracer);
    write_trace(o.trace_out, all, s, items);
  }
  print_provenance(o, s,
                   {{"slice_insns", std::to_string(rp.slice)},
                    {"untraced_wall_s", fmt(rr.wall_s)},
                    {"traced_wall_s", fmt(tr.wall_s)},
                    {"trace_file", json_string(o.trace_out)}});
  const std::size_t failed = failed_jobs(rr);
  print_result(err.list.empty(), rr.done.size(), failed, m);
  return err.list.empty() ? 0 : 1;
}

bool same_job(const model::KernelJob& a, const model::KernelJob& b) {
  return a.name == b.name && a.inputs == b.inputs &&
         a.program.base() == b.program.base() &&
         a.program.bytes() == b.program.bytes() &&
         a.program.entry() == b.program.entry() &&
         a.program.text_size() == b.program.text_size();
}

// Seed 0 with the shipped parameters must be the shipped kernel set, in the
// shipped order (per ABI: MVC, then FSE).
int check_seed0() {
  std::vector<model::KernelJob> shipped;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi)) shipped.push_back(j);
    for (auto& j : workloads::make_fse_jobs(abi)) shipped.push_back(j);
  }
  const auto mix = perfbench::make_mix(0, perfbench::MixParams{});
  std::size_t same = 0;
  for (std::size_t i = 0; i < std::min(mix.size(), shipped.size()); ++i) {
    if (same_job(mix[i].job, shipped[i])) ++same;
  }
  const bool ok = same == shipped.size() && mix.size() == shipped.size();
  std::printf("seed0: %zu of %zu shipped jobs reproduced (%zu generated)\n",
              same, shipped.size(), mix.size());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "nfp_perfbench: refusing to run from an unoptimised build "
               "(build type '%s'); configure with -DCMAKE_BUILD_TYPE=Release\n",
               NFP_BUILD_TYPE);
  return 3;
#endif
  try {
    if (o.check_seed0) return check_seed0();
    Tracer setup_tracer(g_process_start);
    Setup s = run_setup(o, setup_tracer);
    if (o.setup_only) {
      std::printf("{\"setup_s\": %s}\n", fmt(s.setup_s).c_str());
      return 0;
    }
    return o.trace ? run_per_layer(o, s, setup_tracer)
                   : run_end_to_end(o, s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfp_perfbench: %s\n", e.what());
    return 1;
  }
}
