// Google-benchmark microbenchmarks for the simulator fidelity levels
// (feeds the speed axis of Fig. 1 with statistically robust numbers).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "board/board.h"
#include "mcc/compiler.h"
#include "sim/iss.h"
#include "sim/jit.h"
#include "workloads/kernels.h"

// Build provenance, stamped per entry: an unoptimized simulator makes every
// MIPS number meaningless for before/after comparisons.
#ifndef NFP_BUILD_TYPE
#define NFP_BUILD_TYPE "unknown"
#endif

namespace {

void set_provenance(benchmark::State& state, const char* dispatch,
                    const std::string& kernel = {}) {
  state.SetLabel(std::string("dispatch=") + dispatch +
                 " build=" NFP_BUILD_TYPE +
                 (kernel.empty() ? "" : " kernel=" + kernel));
}

// Dispatch-speed workload: the mix() call keeps blocks short and makes
// block-to-block transitions (call, conditional branch, jmpl return) a
// large share of retired instructions — the very
// cost the dispatch modes differ on. Straight-line-only loops under-report
// dispatch overhead because one morphed block amortizes it over dozens of
// instructions.
const nfp::asmkit::Program& loop_program() {
  static const nfp::asmkit::Program program = nfp::mcc::Compiler().compile({R"(
unsigned mix(unsigned acc, unsigned v) {
  acc = acc * 1664525u + 1013904223u;
  return acc ^ v;
}
int main() {
  unsigned acc = 1;
  int data[64];
  for (int i = 0; i < 64; i++) data[i] = i * 3;
  for (int i = 0; i < 40000; i++) {
    acc = mix(acc, (unsigned)data[i & 63]);
    acc = mix(acc, acc >> 3);
    data[i & 63] = (int)(acc >> 16);
  }
  return (int)(acc & 0xFF);
}
)"});
  return program;
}

// `make` builds the simulator, `go` runs the loaded simulator to completion
// and returns its RunResult (the indirection lets callers pick a dispatch
// mode).
template <typename Make, typename Go>
void run_sim(benchmark::State& state, Make&& make, Go&& go) {
  std::uint64_t insns = 0;
  for (auto _ : state) {
    auto sim = make();
    sim.load(loop_program());
    const auto result = go(sim);
    if (!result.halted) state.SkipWithError("did not halt");
    insns += result.instret;
  }
  state.counters["MIPS"] = benchmark::Counter(
      static_cast<double>(insns) * 1e-6, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}

constexpr std::uint64_t kBudget = 1'000'000'000ull;

// Step / block A/B pairs for the two batch-capable fidelity levels (the
// superblock morph cache speedup reported in docs/block_cache.md).
void BM_FunctionalSim(benchmark::State& state) {
  set_provenance(state, "block");
  run_sim(
      state, [] { return nfp::sim::FunctionalSim(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kBlock); });
}
BENCHMARK(BM_FunctionalSim)->Unit(benchmark::kMillisecond);

void BM_FunctionalSim_Step(benchmark::State& state) {
  set_provenance(state, "step");
  run_sim(
      state, [] { return nfp::sim::FunctionalSim(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kStep); });
}
BENCHMARK(BM_FunctionalSim_Step)->Unit(benchmark::kMillisecond);

// The x86-64 template-JIT tier (Dispatch::kJit). On hosts where the jit
// cannot run this silently measures block dispatch instead — the
// label still says jit, but such a bench box is outside the snapshot's
// provenance anyway.
void BM_FunctionalSim_Jit(benchmark::State& state) {
  set_provenance(state, "jit");
  run_sim(
      state, [] { return nfp::sim::FunctionalSim(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kJit); });
}
BENCHMARK(BM_FunctionalSim_Jit)->Unit(benchmark::kMillisecond);

void BM_IssWithCounters(benchmark::State& state) {
  set_provenance(state, "block");
  run_sim(
      state, [] { return nfp::sim::Iss(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kBlock); });
}
BENCHMARK(BM_IssWithCounters)->Unit(benchmark::kMillisecond);

void BM_IssWithCounters_Step(benchmark::State& state) {
  set_provenance(state, "step");
  run_sim(
      state, [] { return nfp::sim::Iss(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kStep); });
}
BENCHMARK(BM_IssWithCounters_Step)->Unit(benchmark::kMillisecond);

void BM_IssWithCounters_Jit(benchmark::State& state) {
  set_provenance(state, "jit");
  run_sim(
      state, [] { return nfp::sim::Iss(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kJit); });
}
BENCHMARK(BM_IssWithCounters_Jit)->Unit(benchmark::kMillisecond);

// Inline-vs-host BTC A/B pair on the call-dense workload (every mix() call
// returns through a register-indirect jmpl): with the inline BTC the retl's
// emitted probe chains straight into the return block; without it every
// return re-enters the host loop, resolves through BlockCache::lookup(),
// and calls back into emitted code.
void BM_FunctionalSim_Jit_InlineBtc(benchmark::State& state) {
  set_provenance(state, "jit-inline-btc");
  nfp::sim::jit_set_inline_btc(true);
  run_sim(
      state, [] { return nfp::sim::FunctionalSim(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kJit); });
}
BENCHMARK(BM_FunctionalSim_Jit_InlineBtc)->Unit(benchmark::kMillisecond);

void BM_FunctionalSim_Jit_HostBtc(benchmark::State& state) {
  set_provenance(state, "jit-host-btc");
  nfp::sim::jit_set_inline_btc(false);
  run_sim(
      state, [] { return nfp::sim::FunctionalSim(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kJit); });
  nfp::sim::jit_set_inline_btc(true);
}
BENCHMARK(BM_FunctionalSim_Jit_HostBtc)->Unit(benchmark::kMillisecond);

// Board step-vs-block A/B pair: the block-cost dispatch (static per-block
// profiles + dynamic residual hooks) against the per-instruction stepping
// baseline, at identical — bit-for-bit — cycle and energy accounting.
void BM_BoardApproxTimed(benchmark::State& state) {
  set_provenance(state, "block");
  run_sim(
      state, [] { return nfp::board::Board(); },
      [](auto& sim) { return sim.run(kBudget); });
}
BENCHMARK(BM_BoardApproxTimed)->Unit(benchmark::kMillisecond);

void BM_BoardApproxTimed_Step(benchmark::State& state) {
  set_provenance(state, "step");
  run_sim(
      state, [] { return nfp::board::Board(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kStep); });
}
BENCHMARK(BM_BoardApproxTimed_Step)->Unit(benchmark::kMillisecond);

void BM_BoardCycleStepped(benchmark::State& state) {
  set_provenance(state, "block");
  run_sim(
      state,
      [] {
        nfp::board::BoardConfig cfg;
        cfg.fidelity = nfp::board::Fidelity::kCycleStepped;
        return nfp::board::Board(cfg);
      },
      [](auto& sim) { return sim.run(kBudget); });
}
BENCHMARK(BM_BoardCycleStepped)->Unit(benchmark::kMillisecond);

void BM_BoardCycleStepped_Step(benchmark::State& state) {
  set_provenance(state, "step");
  run_sim(
      state,
      [] {
        nfp::board::BoardConfig cfg;
        cfg.fidelity = nfp::board::Fidelity::kCycleStepped;
        return nfp::board::Board(cfg);
      },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kStep); });
}
BENCHMARK(BM_BoardCycleStepped_Step)->Unit(benchmark::kMillisecond);

// Board step-vs-block A/B on real campaign kernels (paper Sec. VI, at the
// campaign's kernel size, float ABI): the synthetic loop above has no SDRAM
// row traffic to speak of and no data-segment stores, so it misses much of
// what the board phase of a campaign spends its time on.
const nfp::model::KernelJob& campaign_kernel(bool fse) {
  static const nfp::model::KernelJob mvc =
      nfp::workloads::make_mvc_jobs(nfp::mcc::FloatAbi::kHard)[0];
  static const nfp::model::KernelJob fse_job = [] {
    nfp::workloads::FseKernelParams p;
    p.count = 1;
    return nfp::workloads::make_fse_jobs(nfp::mcc::FloatAbi::kHard, p)[0];
  }();
  return fse ? fse_job : mvc;
}

void run_board_kernel(benchmark::State& state, bool fse,
                      nfp::sim::Dispatch dispatch) {
  const nfp::model::KernelJob& job = campaign_kernel(fse);
  set_provenance(state,
                 dispatch == nfp::sim::Dispatch::kStep ? "step" : "block",
                 job.name);
  std::uint64_t insns = 0;
  for (auto _ : state) {
    nfp::board::Board board;
    board.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      board.bus().write_block(addr, bytes.data(), bytes.size());
    }
    const auto result = board.run(nfp::board::Board::kDefaultMaxInsns,
                                  dispatch);
    if (!result.halted) state.SkipWithError("did not halt");
    insns += result.instret;
  }
  state.counters["MIPS"] = benchmark::Counter(
      static_cast<double>(insns) * 1e-6, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}

void BM_BoardMvcKernel(benchmark::State& state) {
  run_board_kernel(state, false, nfp::sim::Dispatch::kBlock);
}
BENCHMARK(BM_BoardMvcKernel)->Unit(benchmark::kMillisecond);

void BM_BoardMvcKernel_Step(benchmark::State& state) {
  run_board_kernel(state, false, nfp::sim::Dispatch::kStep);
}
BENCHMARK(BM_BoardMvcKernel_Step)->Unit(benchmark::kMillisecond);

void BM_BoardFseKernel(benchmark::State& state) {
  run_board_kernel(state, true, nfp::sim::Dispatch::kBlock);
}
BENCHMARK(BM_BoardFseKernel)->Unit(benchmark::kMillisecond);

void BM_BoardFseKernel_Step(benchmark::State& state) {
  run_board_kernel(state, true, nfp::sim::Dispatch::kStep);
}
BENCHMARK(BM_BoardFseKernel_Step)->Unit(benchmark::kMillisecond);

// ISS block-vs-jit A/B on the same two campaign kernels, cold and warm.
// Cold builds a fresh Iss per iteration (decode, morph and jit compile on
// every run); warm reuses one Iss, so each reload refreshes the program's
// warm code image (sim/platform.h) as a campaign worker does.
void run_iss_kernel(benchmark::State& state, bool fse,
                    nfp::sim::Dispatch dispatch, bool warm) {
  const nfp::model::KernelJob& job = campaign_kernel(fse);
  set_provenance(state,
                 dispatch == nfp::sim::Dispatch::kJit ? "jit" : "block",
                 job.name + (warm ? " image=warm" : " image=cold"));
  std::uint64_t insns = 0;
  auto reused = std::make_unique<nfp::sim::Iss>();
  for (auto _ : state) {
    if (!warm) reused = std::make_unique<nfp::sim::Iss>();
    nfp::sim::Iss& iss = *reused;
    iss.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      iss.bus().write_block(addr, bytes.data(), bytes.size());
    }
    const auto result = iss.run(nfp::sim::Iss::kDefaultMaxInsns, dispatch);
    if (!result.halted) state.SkipWithError("did not halt");
    insns += result.instret;
  }
  state.counters["MIPS"] = benchmark::Counter(
      static_cast<double>(insns) * 1e-6, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}

void BM_IssMvcKernel(benchmark::State& state) {
  run_iss_kernel(state, false, nfp::sim::Dispatch::kBlock, false);
}
BENCHMARK(BM_IssMvcKernel)->Unit(benchmark::kMillisecond);

void BM_IssMvcKernel_Jit(benchmark::State& state) {
  run_iss_kernel(state, false, nfp::sim::Dispatch::kJit, false);
}
BENCHMARK(BM_IssMvcKernel_Jit)->Unit(benchmark::kMillisecond);

void BM_IssMvcKernel_Warm(benchmark::State& state) {
  run_iss_kernel(state, false, nfp::sim::Dispatch::kBlock, true);
}
BENCHMARK(BM_IssMvcKernel_Warm)->Unit(benchmark::kMillisecond);

void BM_IssMvcKernel_JitWarm(benchmark::State& state) {
  run_iss_kernel(state, false, nfp::sim::Dispatch::kJit, true);
}
BENCHMARK(BM_IssMvcKernel_JitWarm)->Unit(benchmark::kMillisecond);

void BM_IssFseKernel(benchmark::State& state) {
  run_iss_kernel(state, true, nfp::sim::Dispatch::kBlock, false);
}
BENCHMARK(BM_IssFseKernel)->Unit(benchmark::kMillisecond);

void BM_IssFseKernel_Jit(benchmark::State& state) {
  run_iss_kernel(state, true, nfp::sim::Dispatch::kJit, false);
}
BENCHMARK(BM_IssFseKernel_Jit)->Unit(benchmark::kMillisecond);

void BM_IssFseKernel_Warm(benchmark::State& state) {
  run_iss_kernel(state, true, nfp::sim::Dispatch::kBlock, true);
}
BENCHMARK(BM_IssFseKernel_Warm)->Unit(benchmark::kMillisecond);

void BM_IssFseKernel_JitWarm(benchmark::State& state) {
  run_iss_kernel(state, true, nfp::sim::Dispatch::kJit, true);
}
BENCHMARK(BM_IssFseKernel_JitWarm)->Unit(benchmark::kMillisecond);

void BM_Compile(benchmark::State& state) {
  const auto abi = state.range(0) == 0 ? nfp::mcc::FloatAbi::kHard
                                       : nfp::mcc::FloatAbi::kSoft;
  const std::string source = R"(
double filter(double* data, int n) {
  double acc = 0.0;
  for (int i = 1; i + 1 < n; i++) {
    acc += (data[i - 1] + 2.0 * data[i] + data[i + 1]) * 0.25;
  }
  return acc / (double)n;
}
double buf[128];
int main() {
  for (int i = 0; i < 128; i++) buf[i] = (double)(i * 7 % 31);
  return (int)filter(buf, 128);
}
)";
  for (auto _ : state) {
    nfp::mcc::CompileOptions opts;
    opts.float_abi = abi;
    benchmark::DoNotOptimize(nfp::mcc::Compiler(opts).compile({source}));
  }
}
BENCHMARK(BM_Compile)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("nfp_build_type", NFP_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
