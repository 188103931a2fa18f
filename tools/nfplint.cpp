// nfplint — static analysis front end for the nfp toolchain.
//
// Two modes:
//
//   nfplint --sweep [options]
//     Decoder-consistency sweep: structured enumeration of the 32-bit
//     instruction space (a few million encodings) cross-checking decode,
//     categorisation, morph grouping, re-encoding round-trips and the
//     disassembler against an independent field-level classifier. Prints a
//     machine-readable per-family table and any inconsistencies.
//
//   nfplint [--mc [--soft-float]] [--dump-cfg] [--json] file [file...]
//     Static CFG recovery and linting of assembly (or Micro-C) programs:
//     delay-slot legality, illegal encodings on reachable paths, edges off
//     the image, unreachable code. --dump-cfg prints the recovered blocks;
//     --json replaces the per-image summary line (and the finding lines)
//     with one JSON object per image on stdout.
//
//   All value flags accept both "--flag N" and "--flag=N".
//   Exit status: 0 clean, 1 findings (errors or sweep inconsistencies),
//   2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analyze/cfg.h"
#include "analyze/sweep.h"
#include "asmkit/assembler.h"
#include "cli_common.h"
#include "mcc/compiler.h"
#include "sim/memmap.h"

namespace {

struct Options {
  bool sweep = false;
  bool micro_c = false;
  bool soft_float = false;
  bool dump_cfg = false;
  bool json = false;
  nfp::analyze::SweepConfig sweep_cfg;
  std::vector<std::string> files;
};

const char* flag_value(const std::string& name, int argc, char** argv,
                       int& i) {
  return nfp::cli::flag_value(name, argc, argv, i, "nfplint");
}

void usage() {
  std::printf(
      "usage: nfplint --sweep [--imm-samples N] [--reg-samples N]\n"
      "               [--asi-samples N] [--seed N] [--max-findings N]\n"
      "       nfplint [--mc [--soft-float]] [--dump-cfg] [--json]\n"
      "               file [file...]\n");
}

int run_sweep_mode(const Options& opt) {
  const nfp::analyze::SweepResult result =
      nfp::analyze::run_sweep(opt.sweep_cfg);
  std::fputs(result.table().c_str(), stdout);
  std::printf("# total enumerated %llu accepted %llu rejected %llu\n",
              static_cast<unsigned long long>(result.enumerated),
              static_cast<unsigned long long>(result.accepted),
              static_cast<unsigned long long>(result.rejected));
  for (const auto& f : result.findings) {
    std::printf("inconsistency %08x %s: %s\n", f.word, f.check.c_str(),
                f.detail.c_str());
  }
  if (!result.consistent()) {
    std::printf("sweep: %llu inconsistencies\n",
                static_cast<unsigned long long>(result.findings_total));
    return 1;
  }
  std::printf("sweep: consistent\n");
  return 0;
}

int lint_program(const nfp::asmkit::Program& program, const std::string& name,
                 const Options& opt) {
  const nfp::analyze::Cfg cfg = nfp::analyze::build_cfg(program);
  if (!opt.json) {
    for (const auto& f : cfg.findings) {
      std::printf("%s: %s\n", name.c_str(), nfp::analyze::render(f).c_str());
    }
  }
  if (opt.dump_cfg) std::fputs(nfp::analyze::dump(cfg).c_str(), stdout);
  if (opt.json) {
    std::printf("{\"file\":\"%s\",\"blocks\":%zu,\"errors\":%zu,"
                "\"findings\":%zu}\n",
                name.c_str(), cfg.blocks.size(), cfg.error_count(),
                cfg.findings.size());
  } else {
    std::printf("%s: %zu block(s), %zu error(s), %zu finding(s)\n",
                name.c_str(), cfg.blocks.size(), cfg.error_count(),
                cfg.findings.size());
  }
  return cfg.has_errors() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep") {
      opt.sweep = true;
    } else if (arg == "--mc") {
      opt.micro_c = true;
    } else if (arg == "--soft-float") {
      opt.soft_float = true;
    } else if (arg == "--dump-cfg") {
      opt.dump_cfg = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (const char* v = flag_value("--imm-samples", argc, argv, i)) {
      opt.sweep_cfg.imm_samples =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (const char* v = flag_value("--reg-samples", argc, argv, i)) {
      opt.sweep_cfg.reg_samples =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (const char* v = flag_value("--asi-samples", argc, argv, i)) {
      opt.sweep_cfg.asi_samples =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (const char* v = flag_value("--seed", argc, argv, i)) {
      opt.sweep_cfg.seed = std::strtoull(v, nullptr, 0);
    } else if (const char* v = flag_value("--max-findings", argc, argv, i)) {
      opt.sweep_cfg.max_findings = std::strtoull(v, nullptr, 0);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "nfplint: unknown argument '%s'\n", arg.c_str());
      usage();
      return 2;
    } else {
      opt.files.push_back(arg);
    }
  }

  if (opt.sweep) {
    if (!opt.files.empty()) {
      std::fprintf(stderr, "nfplint: --sweep takes no files\n");
      return 2;
    }
    return run_sweep_mode(opt);
  }
  if (opt.files.empty()) {
    usage();
    return 2;
  }

  int status = 0;
  try {
    if (opt.micro_c) {
      std::vector<std::string> sources;
      for (const auto& f : opt.files) {
        sources.push_back(nfp::cli::read_file(f, "nfplint"));
      }
      nfp::mcc::CompileOptions mcc_opts;
      mcc_opts.float_abi = opt.soft_float ? nfp::mcc::FloatAbi::kSoft
                                          : nfp::mcc::FloatAbi::kHard;
      status = lint_program(nfp::mcc::Compiler(mcc_opts).compile(sources),
                            opt.files.front(), opt);
    } else {
      for (const auto& f : opt.files) {
        status |= lint_program(
            nfp::asmkit::assemble(nfp::cli::read_file(f, "nfplint"),
                                  nfp::sim::kTextBase),
            f, opt);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfplint: %s\n", e.what());
    return 2;
  }
  return status;
}
