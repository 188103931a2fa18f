#include "fuzz/generator.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace nfp::fuzz {
namespace {

// General-purpose registers random ops may read and clobber. %g5..%g7 are
// chunk-internal temporaries, %o7 is the call linkage, %sp stays untouched,
// %i6 holds the scratch-window base and %i7 the double-pool base.
constexpr const char* kPool[] = {
    "%g1", "%g2", "%g3", "%g4", "%o0", "%o1", "%o2", "%o3",
    "%o4", "%o5", "%l0", "%l1", "%l2", "%l3", "%l4", "%l5",
    "%l6", "%l7", "%i0", "%i1", "%i2", "%i3", "%i4", "%i5",
};
constexpr std::size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

// Pool registers with an even encoding whose odd partner is also in the
// pool — the only legal rd for ldd/std.
constexpr const char* kEvenPool[] = {
    "%g2", "%o0", "%o2", "%o4", "%l0", "%l2", "%l4", "%l6",
    "%i0", "%i2", "%i4",
};
constexpr std::size_t kEvenPoolSize = sizeof(kEvenPool) / sizeof(kEvenPool[0]);

// Even double-precision registers (rd of ldd/faddd/... must be even).
constexpr const char* kDReg[] = {"%f0",  "%f2",  "%f4",  "%f6",
                                "%f8",  "%f10", "%f12", "%f14"};
constexpr std::size_t kDRegCount = sizeof(kDReg) / sizeof(kDReg[0]);

constexpr std::uint32_t kScratchBase = 0x40200000u;  // 4 KiB window off %i6
constexpr std::size_t kDoublePoolSize = 8;
constexpr std::size_t kHelperCount = 4;

constexpr const char* kCondNames[] = {"e",  "ne", "le", "l",  "g",  "ge",
                                      "gu", "leu", "cs", "cc", "pos", "neg"};
constexpr const char* kFCondNames[] = {"e", "ne", "l", "g", "le", "ge", "u", "o"};

struct Emitter {
  std::ostringstream out;

  void line(const std::string& text) { out << "  " << text << "\n"; }
  void label(const std::string& name) { out << name << ":\n"; }
  std::string str() const { return out.str(); }
};

class ChunkGen {
 public:
  ChunkGen(Rng& rng, std::uint32_t index) : rng_(rng), index_(index) {}

  const char* reg() { return kPool[rng_.below(kPoolSize)]; }
  const char* even_reg() { return kEvenPool[rng_.below(kEvenPoolSize)]; }
  const char* dreg() { return kDReg[rng_.below(kDRegCount)]; }
  int simm(int lo, int hi) {
    return lo + static_cast<int>(rng_.below(static_cast<std::uint32_t>(hi - lo + 1)));
  }
  std::string lab(const char* stem, std::uint32_t sub = 0) {
    std::string s = stem + std::to_string(index_);
    if (sub != 0) s += "_" + std::to_string(sub);
    return s;
  }

  // One random three-operand ALU instruction on pool registers. Division is
  // guarded: %y is zeroed (keeps the 64-bit dividend small, no host
  // overflow) and the divisor forced nonzero through "or rs2, 1".
  std::string alu_op(Emitter& e) {
    static constexpr const char* kOps[] = {
        "add", "sub", "and", "or", "xor", "andn", "orn",  "xnor",
        "addcc", "subcc", "andcc", "orcc", "xorcc", "addx", "subx",
        "umul", "smul", "umulcc", "smulcc",
    };
    const std::uint32_t pick = rng_.below(24);
    if (pick < 19) {
      const char* op = kOps[pick];
      const char* rs1 = reg();
      const char* rd = reg();
      if (rng_.chance(50)) {
        e.line(std::string(op) + " " + rs1 + ", " + reg() + ", " + rd);
      } else {
        e.line(std::string(op) + " " + rs1 + ", " +
               std::to_string(simm(-4096, 4095)) + ", " + rd);
      }
      return rd;
    }
    if (pick < 22) {  // shifts, immediate count only (no reg-count aliasing)
      static constexpr const char* kShifts[] = {"sll", "srl", "sra"};
      const char* rd = reg();
      e.line(std::string(kShifts[pick - 19]) + " " + reg() + ", " +
             std::to_string(rng_.below(32)) + ", " + rd);
      return rd;
    }
    if (pick == 22) {  // %y round-trip
      e.line(std::string("wr ") + reg() + ", " +
             std::to_string(simm(0, 4095)) + ", %y");
      const char* rd = reg();
      e.line(std::string("rd %y, ") + rd);
      return rd;
    }
    // Guarded division.
    e.line("wr %g0, 0, %y");
    e.line(std::string("or ") + reg() + ", 1, %g5");
    const char* rd = reg();
    e.line(std::string(rng_.chance(50) ? "sdiv " : "udiv ") + reg() +
           ", %g5, " + rd);
    return rd;
  }

  Chunk alu() {
    Emitter e;
    const std::uint32_t n = 4 + rng_.below(7);
    for (std::uint32_t i = 0; i < n; ++i) alu_op(e);
    return {e.str(), {}};
  }

  Chunk mem() {
    Emitter e;
    const std::uint32_t n = 3 + rng_.below(5);
    for (std::uint32_t i = 0; i < n; ++i) {
      switch (rng_.below(10)) {
        case 0:
        case 1:
          e.line(std::string("st ") + reg() + ", [%i6 + " +
                 std::to_string(rng_.below(1024) * 4) + "]");
          break;
        case 2:
        case 3:
          e.line(std::string("ld [%i6 + ") +
                 std::to_string(rng_.below(1024) * 4) + "], " + reg());
          break;
        case 4:
          if (rng_.chance(50)) {
            e.line(std::string("stb ") + reg() + ", [%i6 + " +
                   std::to_string(rng_.below(4096)) + "]");
          } else {
            e.line(std::string("sth ") + reg() + ", [%i6 + " +
                   std::to_string(rng_.below(2048) * 2) + "]");
          }
          break;
        case 5: {
          static constexpr const char* kLoads[] = {"ldub", "ldsb"};
          e.line(std::string(kLoads[rng_.below(2)]) + " [%i6 + " +
                 std::to_string(rng_.below(4096)) + "], " + reg());
          break;
        }
        case 6: {
          static constexpr const char* kLoads[] = {"lduh", "ldsh"};
          e.line(std::string(kLoads[rng_.below(2)]) + " [%i6 + " +
                 std::to_string(rng_.below(2048) * 2) + "], " + reg());
          break;
        }
        case 7:
          if (rng_.chance(50)) {
            e.line(std::string("std ") + even_reg() + ", [%i6 + " +
                   std::to_string(rng_.below(512) * 8) + "]");
          } else {
            e.line(std::string("ldd [%i6 + ") +
                   std::to_string(rng_.below(512) * 8) + "], " + even_reg());
          }
          break;
        case 8:  // register-indexed, word-aligned via mask
          e.line(std::string("and ") + reg() + ", 0xffc, %g5");
          if (rng_.chance(50)) {
            e.line(std::string("st ") + reg() + ", [%i6 + %g5]");
          } else {
            e.line(std::string("ld [%i6 + %g5], ") + reg());
          }
          break;
        case 9:  // occasional MMIO word store (UART); exercises the
                 // non-RAM store path that must bypass code invalidation
          e.line("set 0x80000000, %g5");
          e.line(std::string("st ") + reg() + ", [%g5]");
          break;
      }
    }
    return {e.str(), {}};
  }

  Chunk branch() {
    Emitter e;
    const bool fp = rng_.chance(25);
    const std::string target = lab("Lb");
    if (fp) {
      e.line(std::string("fcmpd ") + dreg() + ", " + dreg());
      e.line("nop");  // fcmp/fbfcc separation as on real hardware
      e.line(std::string("fb") + kFCondNames[rng_.below(8)] +
             (rng_.chance(35) ? ",a " : " ") + target);
    } else {
      static constexpr const char* kCcOps[] = {"subcc", "addcc", "andcc",
                                               "orcc"};
      e.line(std::string(kCcOps[rng_.below(4)]) + " " + reg() + ", " +
             (rng_.chance(50) ? std::string(reg())
                              : std::to_string(simm(-4096, 4095))) +
             ", %g5");
      e.line(std::string("b") + kCondNames[rng_.below(12)] +
             (rng_.chance(35) ? ",a " : " ") + target);
    }
    // Delay slot plus 1-3 potentially-skipped instructions.
    alu_op(e);
    const std::uint32_t skipped = 1 + rng_.below(3);
    for (std::uint32_t i = 0; i < skipped; ++i) alu_op(e);
    e.label(target);
    alu_op(e);
    return {e.str(), {}};
  }

  Chunk loop() {
    Emitter e;
    const std::string head = lab("Llp");
    e.line("mov " + std::to_string(1 + rng_.below(12)) + ", %g7");
    e.label(head);
    const std::uint32_t body = 1 + rng_.below(3);
    for (std::uint32_t i = 0; i < body; ++i) alu_op(e);
    e.line("subcc %g7, 1, %g7");
    e.line("bne " + head);
    if (rng_.chance(60)) {
      alu_op(e);  // live delay slot
    } else {
      e.line("nop");
    }
    return {e.str(), {}};
  }

  Chunk call() {
    Emitter e;
    e.line("call Fh" + std::to_string(rng_.below(kHelperCount)));
    alu_op(e);  // delay slot
    return {e.str(), {}};
  }

  // jmpl-dense stream: indirect calls through %g5, optionally selected
  // between two helpers by a data-dependent branch. Return sites from
  // different static jmpl instructions stress the jit's inline BTC indexing.
  Chunk jmpl() {
    Emitter e;
    const std::uint32_t n = 1 + rng_.below(3);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t a = rng_.below(kHelperCount);
      if (rng_.chance(40)) {
        std::uint32_t b = rng_.below(kHelperCount);
        const std::string join = lab("Ljm", i + 1);
        e.line("set Fh" + std::to_string(a) + ", %g5");
        e.line(std::string("andcc ") + reg() + ", " +
               std::to_string(1 + rng_.below(255)) + ", %g0");
        e.line("be " + join);
        e.line("nop");
        e.line("set Fh" + std::to_string(b) + ", %g5");
        e.label(join);
      } else {
        e.line("set Fh" + std::to_string(a) + ", %g5");
      }
      e.line("jmpl %g5, %o7");
      e.line("nop");
    }
    return {e.str(), {}};
  }

  Chunk fpu() {
    Emitter e;
    // Seed operands from the double pool so arithmetic sees varied values.
    const std::uint32_t loads = 1 + rng_.below(3);
    for (std::uint32_t i = 0; i < loads; ++i) {
      e.line(std::string("lddf [%i7 + ") +
             std::to_string(rng_.below(kDoublePoolSize) * 8) + "], " + dreg());
    }
    const std::uint32_t n = 3 + rng_.below(5);
    for (std::uint32_t i = 0; i < n; ++i) {
      switch (rng_.below(10)) {
        case 0:
        case 1:
          e.line(std::string("faddd ") + dreg() + ", " + dreg() + ", " +
                 dreg());
          break;
        case 2:
          e.line(std::string("fsubd ") + dreg() + ", " + dreg() + ", " +
                 dreg());
          break;
        case 3:
          e.line(std::string("fmuld ") + dreg() + ", " + dreg() + ", " +
                 dreg());
          break;
        case 4:
          e.line(std::string("fdivd ") + dreg() + ", " + dreg() + ", " +
                 dreg());
          break;
        case 5:
          e.line(std::string("fitod ") + dreg() + ", " + dreg());
          break;
        case 6:
          e.line(std::string("fdtoi ") + dreg() + ", " + dreg());
          break;
        case 7: {
          static constexpr const char* kUnary[] = {"fmovs", "fnegs", "fabss"};
          e.line(std::string(kUnary[rng_.below(3)]) + " " + dreg() + ", " +
                 dreg());
          break;
        }
        case 8:
          e.line(std::string("fcmpd ") + dreg() + ", " + dreg());
          e.line("nop");
          break;
        case 9:
          e.line(std::string("stdf ") + dreg() + ", [%i6 + " +
                 std::to_string(rng_.below(512) * 8) + "]");
          break;
      }
    }
    return {e.str(), {}};
  }

  // Store-to-code loop. The template word lives in the tail (after halt,
  // never executed); the loop xors the patch site between the original and
  // template encodings, so the patched add alternates its immediate. The
  // store and the patch site sit in different superblocks (the "ba"
  // in between ends the storing block), so every dispatch mode must agree.
  Chunk selfmod() {
    Emitter e;
    const std::string head = lab("Lsm");
    const std::string patch = lab("Wp");
    const std::string tmpl = lab("Wt");
    const char* rt = reg();
    const char* ra = reg();
    const int imm1 = simm(1, 1000);
    const int imm2 = simm(1, 1000);
    e.line("set " + tmpl + ", %g6");
    e.line("ld [%g6], %g6");
    e.line("set " + patch + ", %g5");
    e.line(std::string("ld [%g5], ") + rt);
    e.line(std::string("xor ") + rt + ", %g6, %g6");
    e.line("mov " + std::to_string(2 + rng_.below(8)) + ", %g7");
    e.label(head);
    e.line(std::string("ld [%g5], ") + rt);
    e.line(std::string("xor ") + rt + ", %g6, " + rt);
    e.line(std::string("st ") + rt + ", [%g5]");
    e.line("ba " + patch);
    e.line("nop");
    e.label(patch);
    e.line(std::string("add ") + ra + ", " + std::to_string(imm1) + ", " + ra);
    e.line("subcc %g7, 1, %g7");
    e.line("bne " + head);
    e.line("nop");

    Emitter tail;
    tail.label(tmpl);
    tail.line(std::string("add ") + ra + ", " + std::to_string(imm2) + ", " +
              ra);
    return {e.str(), tail.str()};
  }

 private:
  Rng& rng_;
  std::uint32_t index_;
};

enum class Kind { kAlu, kMem, kBranch, kLoop, kCall, kJmpl, kFpu, kSelfmod };

Kind pick_kind(Rng& rng, const Mix& mix) {
  const std::uint32_t total = mix.alu + mix.mem + mix.branch + mix.loop +
                              mix.call + mix.jmpl + mix.fpu + mix.selfmod;
  std::uint32_t roll = rng.below(total == 0 ? 1 : total);
  if (total == 0) return Kind::kAlu;
  if (roll < mix.alu) return Kind::kAlu;
  roll -= mix.alu;
  if (roll < mix.mem) return Kind::kMem;
  roll -= mix.mem;
  if (roll < mix.branch) return Kind::kBranch;
  roll -= mix.branch;
  if (roll < mix.loop) return Kind::kLoop;
  roll -= mix.loop;
  if (roll < mix.call) return Kind::kCall;
  roll -= mix.call;
  if (roll < mix.jmpl) return Kind::kJmpl;
  roll -= mix.jmpl;
  if (roll < mix.fpu) return Kind::kFpu;
  return Kind::kSelfmod;
}

std::string helper_text(Rng& rng, std::uint32_t index) {
  Emitter e;
  e.label("Fh" + std::to_string(index));
  ChunkGen gen(rng, 9000 + index);
  const std::uint32_t n = 1 + rng.below(2);
  for (std::uint32_t i = 0; i < n; ++i) gen.alu_op(e);
  e.line("retl");
  if (rng.chance(60)) {
    gen.alu_op(e);
  } else {
    e.line("nop");
  }
  return e.str();
}

bool mentions(const std::string& text, const std::string& token) {
  return text.find(token) != std::string::npos;
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::optional<Mix> mix_from_name(std::string_view name) {
  if (name == "default") return Mix{};
  if (name == "alu") return Mix{12, 2, 2, 1, 0, 0, 0, 0};
  if (name == "mem") return Mix{3, 12, 2, 2, 0, 0, 1, 0};
  if (name == "cti") return Mix{2, 1, 8, 6, 4, 2, 0, 1};
  if (name == "jmpl") return Mix{2, 1, 2, 2, 3, 12, 0, 0};
  if (name == "fpu") return Mix{2, 2, 2, 1, 0, 0, 12, 0};
  if (name == "selfmod") return Mix{2, 2, 2, 3, 0, 1, 0, 8};
  return std::nullopt;
}

const std::vector<std::string>& mix_names() {
  static const std::vector<std::string> kNames = {
      "default", "alu", "mem", "cti", "jmpl", "fpu", "selfmod"};
  return kNames;
}

GenProgram generate(const GenConfig& config) {
  Rng rng(config.seed * 0x9E3779B97F4A7C15ull + config.seed + 0xC0FFEEull);
  GenProgram program;
  program.config = config;

  for (std::size_t i = 0; i < kHelperCount; ++i) {
    program.helpers.emplace_back("Fh" + std::to_string(i),
                                 helper_text(rng, static_cast<std::uint32_t>(i)));
  }

  for (std::size_t i = 0; i < kPoolSize; ++i) {
    const int value =
        -4096 + static_cast<int>(rng.below(8192));
    program.reg_inits.emplace_back(
        kPool[i], std::string("mov ") + std::to_string(value) + ", " + kPool[i]);
  }

  for (std::size_t i = 0; i < kDoublePoolSize; ++i) {
    // A spread of magnitudes, signs and non-finite-adjacent values.
    static constexpr double kBases[] = {0.0,    1.0,     -1.0,   0.5,
                                        1e-30,  3.25e10, -2.5,   1e300};
    const double base = kBases[i % (sizeof(kBases) / sizeof(kBases[0]))];
    const double jitter =
        static_cast<double>(rng.below(1000)) / 7.0 - 71.0;
    program.double_pool.push_back(base + (i >= 4 ? jitter : 0.0));
  }

  for (std::uint32_t i = 0; i < config.chunks; ++i) {
    ChunkGen gen(rng, i);
    switch (pick_kind(rng, config.mix)) {
      case Kind::kAlu: program.chunks.push_back(gen.alu()); break;
      case Kind::kMem: program.chunks.push_back(gen.mem()); break;
      case Kind::kBranch: program.chunks.push_back(gen.branch()); break;
      case Kind::kLoop: program.chunks.push_back(gen.loop()); break;
      case Kind::kCall: program.chunks.push_back(gen.call()); break;
      case Kind::kJmpl: program.chunks.push_back(gen.jmpl()); break;
      case Kind::kFpu: program.chunks.push_back(gen.fpu()); break;
      case Kind::kSelfmod: program.chunks.push_back(gen.selfmod()); break;
    }
  }
  return program;
}

std::string render_subset(const GenProgram& program,
                          const std::vector<bool>& keep) {
  // Collect everything that will actually execute, then emit only the
  // prologue pieces (register inits, helpers, data pool) it references.
  std::string live;
  for (std::size_t i = 0; i < program.chunks.size(); ++i) {
    if (i < keep.size() && !keep[i]) continue;
    live += program.chunks[i].body;
    live += program.chunks[i].tail;
  }
  std::vector<bool> helper_used(program.helpers.size(), false);
  bool changed = true;
  while (changed) {  // helpers may (by construction don't, but cheaply) chain
    changed = false;
    for (std::size_t h = 0; h < program.helpers.size(); ++h) {
      if (!helper_used[h] && mentions(live, program.helpers[h].first)) {
        helper_used[h] = true;
        live += program.helpers[h].second;
        changed = true;
      }
    }
  }

  std::ostringstream out;
  out << "! nfpfuzz seed=" << program.config.seed
      << " mix=" << program.config.mix_name
      << " chunks=" << program.config.chunks << "\n";
  out << "  .text\n  .global _start\n_start:\n";
  if (mentions(live, "%i6")) {
    out << "  set " << kScratchBase << ", %i6\n";
  }
  if (mentions(live, "%i7")) {
    out << "  set Dpool, %i7\n";
  }
  for (const auto& [reg, init] : program.reg_inits) {
    if (mentions(live, reg)) out << "  " << init << "\n";
  }
  for (std::size_t i = 0; i < program.chunks.size(); ++i) {
    if (i < keep.size() && !keep[i]) continue;
    out << program.chunks[i].body;
  }
  out << "  ta 0\n  nop\n";
  for (std::size_t i = 0; i < program.chunks.size(); ++i) {
    if (i < keep.size() && !keep[i]) continue;
    out << program.chunks[i].tail;
  }
  for (std::size_t h = 0; h < program.helpers.size(); ++h) {
    if (helper_used[h]) out << program.helpers[h].second;
  }
  if (mentions(live, "%i7")) {
    out << "  .data\n  .align 8\nDpool:\n";
    for (double value : program.double_pool) {
      out << "  .double " << format_double(value) << "\n";
    }
  }
  return out.str();
}

std::string render(const GenProgram& program) {
  return render_subset(program, std::vector<bool>(program.chunks.size(), true));
}

std::size_t count_instructions(std::string_view source) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t eol = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, eol == std::string_view::npos ? source.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;
    // Strip comment and leading whitespace; skip past a leading "label:".
    const std::size_t bang = line.find('!');
    if (bang != std::string_view::npos) line = line.substr(0, bang);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) line = line.substr(colon + 1);
    std::size_t start = 0;
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start]))) {
      ++start;
    }
    line = line.substr(start);
    if (line.empty() || line[0] == '.') continue;
    std::size_t end = 0;
    while (end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    const std::string_view mnemonic = line.substr(0, end);
    if (mnemonic.empty()) continue;
    count += (mnemonic == "set") ? 2 : 1;
  }
  return count;
}

}  // namespace nfp::fuzz
