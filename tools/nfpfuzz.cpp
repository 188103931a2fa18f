// nfpfuzz — differential fuzzer for the simulator's dispatch modes.
//
// Generates constrained-random SPARC V8 programs (src/fuzz/generator.h) and
// cross-checks full architectural state across Dispatch::kStep, kBlock and
// kJit (on hosts where the jit can run) at randomized mid-run budget stops
// (src/fuzz/oracle.h). On divergence the program is ddmin-shrunk to a
// minimal reproducer and written into the corpus directory as a `.s` file
// ready to commit as a regression test.
//
// Usage:
//   nfpfuzz [options]
//     --seed N          base seed (run i uses seed N+i); default 1
//     --runs N          number of programs to generate; default 100
//     --mix NAME        chunk mix: default|alu|mem|cti|jmpl|fpu|selfmod,
//                       or "all" to rotate through every mix (default)
//     --chunks N        chunks per program; default 24
//     --max-insns N     per-mode retirement cap; default 4000000
//     --checkpoints N   randomized mid-run stops per program; default 4
//     --shrink / --no-shrink
//                       minimise diverging programs (default on)
//     --board / --no-board
//                       also cross-check the measurement board under
//                       kStep vs kBlock — cycles, energy (bit-for-bit),
//                       BoardStats, architectural state (default on)
//     --jit / --no-jit  include Dispatch::kJit in the cross-check matrix
//                       (default on; skipped automatically on hosts where
//                       jit_available() is false)
//     --snapshot / --no-snapshot
//                       also run the save→restore→continue leg: serialize
//                       the run at every budget stop, restore into a fresh
//                       executor rotating dispatch modes per segment, and
//                       compare every checkpoint against the straight kStep
//                       reference; with --board a board pair does the same
//                       against the board reference (default on)
//     --corpus-dir DIR  where reproducers are written;
//                       default tests/fuzz/corpus
//   All value flags accept both "--flag N" and "--flag=N".
//   Exit status: 0 if every run agreed, 1 on any divergence, 2 on usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_common.h"
#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrink.h"

namespace {

struct Options {
  std::uint64_t seed = 1;
  std::uint64_t runs = 100;
  std::string mix = "all";
  std::uint32_t chunks = 24;
  std::uint64_t max_insns = 4'000'000;
  std::uint32_t checkpoints = 4;
  bool shrink = true;
  bool board = true;
  bool jit = true;
  bool snapshot = true;
  std::string corpus_dir = "tests/fuzz/corpus";
};

const char* flag_value(const std::string& name, int argc, char** argv,
                       int& i) {
  return nfp::cli::flag_value(name, argc, argv, i, "nfpfuzz");
}

void usage() {
  std::printf(
      "usage: nfpfuzz [--seed N] [--runs N] [--mix NAME|all] [--chunks N]\n"
      "               [--max-insns N] [--checkpoints N] [--shrink|--no-shrink]\n"
      "               [--board|--no-board] [--jit|--no-jit]\n"
      "               [--snapshot|--no-snapshot]\n"
      "               [--corpus-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = flag_value("--seed", argc, argv, i)) {
      opt.seed = std::strtoull(v, nullptr, 0);
    } else if (const char* v = flag_value("--runs", argc, argv, i)) {
      opt.runs = std::strtoull(v, nullptr, 0);
    } else if (const char* v = flag_value("--mix", argc, argv, i)) {
      opt.mix = v;
    } else if (const char* v = flag_value("--chunks", argc, argv, i)) {
      opt.chunks = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (const char* v = flag_value("--max-insns", argc, argv, i)) {
      opt.max_insns = std::strtoull(v, nullptr, 0);
    } else if (const char* v = flag_value("--checkpoints", argc, argv, i)) {
      opt.checkpoints =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (nfp::cli::bool_flag(arg, "--shrink", opt.shrink) ||
               nfp::cli::bool_flag(arg, "--board", opt.board) ||
               nfp::cli::bool_flag(arg, "--jit", opt.jit) ||
               nfp::cli::bool_flag(arg, "--snapshot", opt.snapshot)) {
      // handled by bool_flag
    } else if (const char* v = flag_value("--corpus-dir", argc, argv, i)) {
      opt.corpus_dir = v;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "nfpfuzz: unknown argument '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (opt.mix != "all" && !nfp::fuzz::mix_from_name(opt.mix)) {
    std::fprintf(stderr, "nfpfuzz: unknown mix '%s'\n", opt.mix.c_str());
    return 2;
  }

  nfp::fuzz::DiffArena arena;
  const auto& rotation = nfp::fuzz::mix_names();
  std::uint64_t divergences = 0;
  std::uint64_t total_insns = 0;

  for (std::uint64_t run = 0; run < opt.runs; ++run) {
    nfp::fuzz::GenConfig gen_cfg;
    gen_cfg.seed = opt.seed + run;
    gen_cfg.chunks = opt.chunks;
    gen_cfg.mix_name =
        opt.mix == "all" ? rotation[run % rotation.size()] : opt.mix;
    gen_cfg.mix = *nfp::fuzz::mix_from_name(gen_cfg.mix_name);

    const nfp::fuzz::GenProgram program = nfp::fuzz::generate(gen_cfg);

    nfp::fuzz::DiffConfig diff_cfg;
    diff_cfg.max_insns = opt.max_insns;
    diff_cfg.checkpoints = opt.checkpoints;
    diff_cfg.checkpoint_seed = gen_cfg.seed;
    diff_cfg.check_board = opt.board;
    diff_cfg.check_jit = opt.jit;
    diff_cfg.check_snapshot = opt.snapshot;

    nfp::fuzz::DiffReport report;
    try {
      report = nfp::fuzz::run_differential_source(
          nfp::fuzz::render(program), diff_cfg, arena);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "nfpfuzz: seed %llu (mix %s): generator produced invalid "
                   "program: %s\n",
                   static_cast<unsigned long long>(gen_cfg.seed),
                   gen_cfg.mix_name.c_str(), e.what());
      return 2;
    }
    total_insns += report.step_instret;

    if (!report.diverged) {
      if ((run + 1) % 50 == 0 || run + 1 == opt.runs) {
        std::printf("nfpfuzz: %llu/%llu ok (%llu insns retired)\n",
                    static_cast<unsigned long long>(run + 1),
                    static_cast<unsigned long long>(opt.runs),
                    static_cast<unsigned long long>(total_insns));
      }
      continue;
    }

    ++divergences;
    std::printf("nfpfuzz: DIVERGENCE at seed %llu (mix %s)\n  %s\n",
                static_cast<unsigned long long>(gen_cfg.seed),
                gen_cfg.mix_name.c_str(), report.detail.c_str());

    std::string source = nfp::fuzz::render(program);
    nfp::fuzz::DiffReport final_report = report;
    if (opt.shrink) {
      const nfp::fuzz::ShrinkResult shrunk =
          nfp::fuzz::shrink(program, diff_cfg, arena);
      if (shrunk.diverged) {
        source = shrunk.source;
        final_report = shrunk.report;
        std::printf(
            "  shrunk to %zu chunk(s), %zu instruction(s) in %zu oracle "
            "run(s)\n",
            shrunk.chunks_kept, shrunk.instructions, shrunk.oracle_runs);
      }
    }
    const std::string path = nfp::fuzz::write_corpus_entry(
        opt.corpus_dir, gen_cfg.seed, gen_cfg.mix_name, final_report, source);
    std::printf("  reproducer written to %s\n", path.c_str());
  }

  std::printf("nfpfuzz: %llu run(s), %llu divergence(s), %llu instructions "
              "cross-checked\n",
              static_cast<unsigned long long>(opt.runs),
              static_cast<unsigned long long>(divergences),
              static_cast<unsigned long long>(total_insns));
  return divergences == 0 ? 0 : 1;
}
