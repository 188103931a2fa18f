// Morph-time handler selection and the grouped execution functions the
// morphed records dispatch to. Every handler must be observably identical to
// the corresponding case of the executor's single-step switch — the
// differential tests in tests/sim/block_cache_test.cpp hold the two paths to
// bit-identical results, UART output, instret, and op counts.
//
// Every handler exists in two variants selected at morph time by the
// cache-wide capture flag (BlockCache::set_capture): the CAP=true variant
// additionally writes the record's operand pair into MorphCtx::cap — the
// exact words the single-step RetireInfo would carry (including its operand
// aliasing: udiv reads rs1 after writeback, FP retires read the register
// file after the result lands). kBlockCost hooks (the board) replay those
// captures for per-op cost residuals after the block ran.
#include "sim/block_cache.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "sim/jit.h"

namespace nfp::sim {
namespace {

using isa::Op;

[[noreturn]] void fatal(std::uint32_t pc, const std::string& what) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " at pc=0x%08x", pc);
  throw SimError("sim error: " + what + buf);
}

inline void set_r(CpuState& st, std::uint8_t rd, std::uint32_t value) {
  st.r[rd] = value;
  st.r[0] = 0;
}

inline void icc_logic(CpuState& st, std::uint32_t result) {
  st.icc_n = (result >> 31) != 0;
  st.icc_z = result == 0;
  st.icc_v = false;
  st.icc_c = false;
}

inline void icc_add(CpuState& st, std::uint32_t a, std::uint32_t b,
                    std::uint64_t wide) {
  const auto result = static_cast<std::uint32_t>(wide);
  st.icc_n = (result >> 31) != 0;
  st.icc_z = result == 0;
  st.icc_c = (wide >> 32) != 0;
  st.icc_v = (((~(a ^ b)) & (a ^ result)) >> 31) != 0;
}

inline void icc_sub(CpuState& st, std::uint32_t a, std::uint32_t b,
                    std::uint32_t borrow_in) {
  const std::uint32_t result = a - b - borrow_in;
  st.icc_n = (result >> 31) != 0;
  st.icc_z = result == 0;
  st.icc_c = static_cast<std::uint64_t>(a) <
             static_cast<std::uint64_t>(b) + borrow_in;
  st.icc_v = (((a ^ b) & (a ^ result)) >> 31) != 0;
}

inline void check_align(std::uint32_t ea, std::uint32_t align,
                        const MorphInsn& m, MorphCtx& c) {
  if (ea & (align - 1)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "misaligned %u-byte access to 0x%08x",
                  align, ea);
    fatal(c.pc_of(m), buf);
  }
}

// Same saturating conversion as the executor's to_int32.
std::int32_t to_int32(double value) {
  if (std::isnan(value)) return 0;
  if (value >= 2147483648.0) return std::numeric_limits<std::int32_t>::max();
  if (value < -2147483648.0) return std::numeric_limits<std::int32_t>::min();
  return static_cast<std::int32_t>(value);
}

template <bool IMM>
inline std::uint32_t op2(const MorphInsn& m, const CpuState& st) {
  if constexpr (IMM) {
    return m.op2;
  } else {
    return st.r[m.rs2];
  }
}

// Operand capture for kBlockCost hooks: record i's pair lands in cap[i].
template <bool CAP>
inline void capture(const MorphInsn& m, MorphCtx& c, std::uint32_t a,
                    std::uint32_t b) {
  if constexpr (CAP) c.cap[&m - c.base] = CapturedOp{a, b};
}

// ---- grouped execution functions (Fig. 3) ---------------------------------

template <Op OP, bool IMM, bool CAP>
void h_addsub(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t a = st.r[m.rs1];
  const std::uint32_t b = op2<IMM>(m, st);
  capture<CAP>(m, c, a, b);
  if constexpr (OP == Op::kAdd || OP == Op::kAddcc || OP == Op::kAddx ||
                OP == Op::kAddxcc) {
    const std::uint32_t cin =
        (OP == Op::kAddx || OP == Op::kAddxcc) && st.icc_c ? 1 : 0;
    const std::uint64_t wide = std::uint64_t{a} + b + cin;
    if constexpr (OP == Op::kAddcc || OP == Op::kAddxcc) icc_add(st, a, b, wide);
    set_r(st, m.rd, static_cast<std::uint32_t>(wide));
  } else {
    const std::uint32_t bin =
        (OP == Op::kSubx || OP == Op::kSubxcc) && st.icc_c ? 1 : 0;
    const std::uint32_t result = a - b - bin;
    if constexpr (OP == Op::kSubcc || OP == Op::kSubxcc) icc_sub(st, a, b, bin);
    set_r(st, m.rd, result);
  }
}

template <Op OP, bool IMM, bool CAP>
void h_logic(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t a = st.r[m.rs1];
  const std::uint32_t b = op2<IMM>(m, st);
  capture<CAP>(m, c, a, b);
  std::uint32_t result;
  if constexpr (OP == Op::kAnd || OP == Op::kAndcc) {
    result = a & b;
  } else if constexpr (OP == Op::kAndn || OP == Op::kAndncc) {
    result = a & ~b;
  } else if constexpr (OP == Op::kOr || OP == Op::kOrcc) {
    result = a | b;
  } else if constexpr (OP == Op::kOrn || OP == Op::kOrncc) {
    result = a | ~b;
  } else if constexpr (OP == Op::kXor || OP == Op::kXorcc) {
    result = a ^ b;
  } else {
    result = ~(a ^ b);
  }
  if constexpr (OP == Op::kAndcc || OP == Op::kAndncc || OP == Op::kOrcc ||
                OP == Op::kOrncc || OP == Op::kXorcc || OP == Op::kXnorcc) {
    icc_logic(st, result);
  }
  set_r(st, m.rd, result);
}

template <Op OP, bool IMM, bool CAP>
void h_shift(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t a = st.r[m.rs1];
  const std::uint32_t count = op2<IMM>(m, st) & 31;
  capture<CAP>(m, c, a, count);
  std::uint32_t result;
  if constexpr (OP == Op::kSll) {
    result = a << count;
  } else if constexpr (OP == Op::kSrl) {
    result = a >> count;
  } else {
    result =
        static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> count);
  }
  set_r(st, m.rd, result);
}

template <Op OP, bool IMM, bool CAP>
void h_mul(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t a = st.r[m.rs1];
  const std::uint32_t b = op2<IMM>(m, st);
  capture<CAP>(m, c, a, b);
  std::uint64_t wide;
  if constexpr (OP == Op::kUmul || OP == Op::kUmulcc) {
    wide = std::uint64_t{a} * b;
  } else {
    wide = static_cast<std::uint64_t>(
        std::int64_t{static_cast<std::int32_t>(a)} *
        static_cast<std::int32_t>(b));
  }
  st.y = static_cast<std::uint32_t>(wide >> 32);
  const auto result = static_cast<std::uint32_t>(wide);
  if constexpr (OP == Op::kUmulcc || OP == Op::kSmulcc) icc_logic(st, result);
  set_r(st, m.rd, result);
}

template <Op OP, bool IMM, bool CAP>
void h_udiv(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t b = op2<IMM>(m, st);
  if (b == 0) fatal(c.pc_of(m), "integer division by zero");
  const std::uint64_t dividend = (std::uint64_t{st.y} << 32) | st.r[m.rs1];
  std::uint64_t q = dividend / b;
  bool overflow = false;
  if (q > 0xFFFFFFFFull) {
    q = 0xFFFFFFFFull;
    overflow = true;
  }
  const auto result = static_cast<std::uint32_t>(q);
  if constexpr (OP == Op::kUdivcc) {
    icc_logic(st, result);
    st.icc_v = overflow;
  }
  set_r(st, m.rd, result);
  // The step path reads rs1 for the retire record AFTER writeback, so a
  // result overwriting its own dividend register is captured post-write.
  capture<CAP>(m, c, st.r[m.rs1], b);
}

template <Op OP, bool IMM, bool CAP>
void h_sdiv(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t b = op2<IMM>(m, st);
  if (b == 0) fatal(c.pc_of(m), "integer division by zero");
  const auto dividend =
      static_cast<std::int64_t>((std::uint64_t{st.y} << 32) | st.r[m.rs1]);
  std::int64_t q = dividend / static_cast<std::int32_t>(b);
  bool overflow = false;
  if (q > std::numeric_limits<std::int32_t>::max()) {
    q = std::numeric_limits<std::int32_t>::max();
    overflow = true;
  } else if (q < std::numeric_limits<std::int32_t>::min()) {
    q = std::numeric_limits<std::int32_t>::min();
    overflow = true;
  }
  const auto result = static_cast<std::uint32_t>(q);
  if constexpr (OP == Op::kSdivcc) {
    icc_logic(st, result);
    st.icc_v = overflow;
  }
  set_r(st, m.rd, result);
  capture<CAP>(m, c, st.r[m.rs1], b);
}

template <bool CAP>
void h_rdy(const MorphInsn& m, MorphCtx& c) {
  capture<CAP>(m, c, c.st.y, 0);
  set_r(c.st, m.rd, c.st.y);
}

template <bool IMM, bool CAP>
void h_wry(const MorphInsn& m, MorphCtx& c) {
  const std::uint32_t v = op2<IMM>(m, c.st);
  capture<CAP>(m, c, c.st.r[m.rs1], v);
  c.st.y = c.st.r[m.rs1] ^ v;
}

// save/restore on the flat register model: a plain add.
template <bool IMM, bool CAP>
void h_plain_add(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t a = st.r[m.rs1];
  const std::uint32_t b = op2<IMM>(m, st);
  capture<CAP>(m, c, a, b);
  set_r(st, m.rd, a + b);
}

template <bool CAP>
void h_sethi(const MorphInsn& m, MorphCtx& c) {
  capture<CAP>(m, c, 0, m.op2);
  set_r(c.st, m.rd, m.op2);
}

template <bool CAP>
void h_nop(const MorphInsn& m, MorphCtx& c) {
  capture<CAP>(m, c, 0, 0);
}

// ---- memory ---------------------------------------------------------------

template <Op OP, bool IMM, bool CAP>
void h_load(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t ea = st.r[m.rs1] + op2<IMM>(m, st);
  // Word loads can hit the timer/instret MMIO registers, whose values
  // derive from instret — restore the exact count the stepping path would
  // have at this instruction before performing the access.
  if constexpr (OP == Op::kLd || OP == Op::kLdd || OP == Op::kLdf ||
                OP == Op::kLddf) {
    if (!c.bus.in_ram(ea)) c.sync_instret(m);
  }
  std::uint32_t data;
  if constexpr (OP == Op::kLd) {
    check_align(ea, 4, m, c);
    data = c.bus.load32(ea);
    set_r(st, m.rd, data);
  } else if constexpr (OP == Op::kLdub) {
    data = c.bus.load8(ea);
    set_r(st, m.rd, data);
  } else if constexpr (OP == Op::kLdsb) {
    data = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(static_cast<std::int8_t>(c.bus.load8(ea))));
    set_r(st, m.rd, data);
  } else if constexpr (OP == Op::kLduh) {
    check_align(ea, 2, m, c);
    data = c.bus.load16(ea);
    set_r(st, m.rd, data);
  } else if constexpr (OP == Op::kLdsh) {
    check_align(ea, 2, m, c);
    data = static_cast<std::uint32_t>(static_cast<std::int32_t>(
        static_cast<std::int16_t>(c.bus.load16(ea))));
    set_r(st, m.rd, data);
  } else if constexpr (OP == Op::kLdd) {
    check_align(ea, 8, m, c);
    set_r(st, m.rd, c.bus.load32(ea));
    data = c.bus.load32(ea + 4);
    set_r(st, m.rd + 1, data);
  } else if constexpr (OP == Op::kLdf) {
    check_align(ea, 4, m, c);
    data = c.bus.load32(ea);
    st.f[m.rd] = data;
  } else {  // kLddf
    check_align(ea, 8, m, c);
    st.f[m.rd] = c.bus.load32(ea);
    data = c.bus.load32(ea + 4);
    st.f[m.rd + 1] = data;
  }
  capture<CAP>(m, c, ea, data);
}

// ldd/lddf with an odd rd: the fault is hoisted to morph time, but it must
// fire only if the instruction is actually reached, after the alignment
// check — matching the single-step fault order exactly. The instruction
// never retires, so there is nothing to capture.
template <Op OP, bool IMM>
void h_load_oddrd(const MorphInsn& m, MorphCtx& c) {
  const std::uint32_t ea = c.st.r[m.rs1] + op2<IMM>(m, c.st);
  check_align(ea, 8, m, c);
  fatal(c.pc_of(m), OP == Op::kLdd ? "ldd with odd rd" : "lddf with odd rd");
}

void invalidate_code(MorphCtx& c, std::uint32_t ea, std::uint32_t bytes) {
  if (c.cache.covers_code(ea) || c.cache.covers_code(ea + bytes - 1)) {
    c.cache.invalidate(ea, bytes);
  }
}

template <Op OP, bool IMM, bool CAP>
void h_store(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t ea = st.r[m.rs1] + op2<IMM>(m, st);
  std::uint32_t data;
  if constexpr (OP == Op::kSt) {
    check_align(ea, 4, m, c);
    data = st.r[m.rd];
    c.bus.store32(ea, data);
    invalidate_code(c, ea, 4);
  } else if constexpr (OP == Op::kStb) {
    data = st.r[m.rd] & 0xFF;
    c.bus.store8(ea, static_cast<std::uint8_t>(data));
    invalidate_code(c, ea, 1);
  } else if constexpr (OP == Op::kSth) {
    check_align(ea, 2, m, c);
    data = st.r[m.rd] & 0xFFFF;
    c.bus.store16(ea, static_cast<std::uint16_t>(data));
    invalidate_code(c, ea, 2);
  } else if constexpr (OP == Op::kStd) {
    check_align(ea, 8, m, c);
    c.bus.store32(ea, st.r[m.rd]);
    data = st.r[m.rd + 1];
    c.bus.store32(ea + 4, data);
    invalidate_code(c, ea, 8);
  } else if constexpr (OP == Op::kStf) {
    check_align(ea, 4, m, c);
    data = st.f[m.rd];
    c.bus.store32(ea, data);
    invalidate_code(c, ea, 4);
  } else {  // kStdf
    check_align(ea, 8, m, c);
    c.bus.store32(ea, st.f[m.rd]);
    data = st.f[m.rd + 1];
    c.bus.store32(ea + 4, data);
    invalidate_code(c, ea, 8);
  }
  capture<CAP>(m, c, ea, data);
}

template <Op OP, bool IMM>
void h_store_oddrd(const MorphInsn& m, MorphCtx& c) {
  const std::uint32_t ea = c.st.r[m.rs1] + op2<IMM>(m, c.st);
  check_align(ea, 8, m, c);
  fatal(c.pc_of(m), OP == Op::kStd ? "std with odd rd" : "stdf with odd rd");
}

// ---- FPU ------------------------------------------------------------------
//
// FP retires capture the register-file words AFTER the result lands, exactly
// as the step path's retire_fp does — with rd aliasing rs1/rs2, the captured
// operand is the freshly-written result.

template <Op OP, bool CAP>
void h_fpu_s(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const float a = st.read_s(m.rs1);
  const float b = st.read_s(m.rs2);
  float result;
  if constexpr (OP == Op::kFadds) {
    result = a + b;
  } else if constexpr (OP == Op::kFsubs) {
    result = a - b;
  } else if constexpr (OP == Op::kFmuls) {
    result = a * b;
  } else {
    result = a / b;
  }
  st.write_s(m.rd, result);
  capture<CAP>(m, c, st.f[m.rs1], st.f[m.rs2]);
}

template <Op OP, bool CAP>
void h_fpu_d(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const double a = st.read_d(m.rs1);
  const double b = st.read_d(m.rs2);
  double result;
  if constexpr (OP == Op::kFaddd) {
    result = a + b;
  } else if constexpr (OP == Op::kFsubd) {
    result = a - b;
  } else if constexpr (OP == Op::kFmuld) {
    result = a * b;
  } else {
    result = a / b;
  }
  st.write_d(m.rd, result);
  capture<CAP>(m, c, st.f[m.rs1], st.f[m.rs2]);
}

template <Op OP, bool CAP>
void h_fpu_unary(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  if constexpr (OP == Op::kFsqrts) {
    st.write_s(m.rd, std::sqrt(st.read_s(m.rs2)));
  } else if constexpr (OP == Op::kFsqrtd) {
    st.write_d(m.rd, std::sqrt(st.read_d(m.rs2)));
  } else if constexpr (OP == Op::kFmovs) {
    st.f[m.rd] = st.f[m.rs2];
  } else if constexpr (OP == Op::kFnegs) {
    st.f[m.rd] = st.f[m.rs2] ^ 0x80000000u;
  } else if constexpr (OP == Op::kFabss) {
    st.f[m.rd] = st.f[m.rs2] & 0x7FFFFFFFu;
  } else if constexpr (OP == Op::kFitos) {
    st.write_s(m.rd,
               static_cast<float>(static_cast<std::int32_t>(st.f[m.rs2])));
  } else if constexpr (OP == Op::kFitod) {
    st.write_d(m.rd,
               static_cast<double>(static_cast<std::int32_t>(st.f[m.rs2])));
  } else if constexpr (OP == Op::kFstoi) {
    st.f[m.rd] = static_cast<std::uint32_t>(
        to_int32(static_cast<double>(st.read_s(m.rs2))));
  } else if constexpr (OP == Op::kFdtoi) {
    st.f[m.rd] = static_cast<std::uint32_t>(to_int32(st.read_d(m.rs2)));
  } else if constexpr (OP == Op::kFstod) {
    st.write_d(m.rd, static_cast<double>(st.read_s(m.rs2)));
  } else {  // kFdtos
    st.write_s(m.rd, static_cast<float>(st.read_d(m.rs2)));
  }
  capture<CAP>(m, c, 0, st.f[m.rs2]);
}

template <Op OP, bool CAP>
void h_fcmp(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  capture<CAP>(m, c, st.f[m.rs1], st.f[m.rs2]);
  double a, b;
  if constexpr (OP == Op::kFcmps) {
    a = st.read_s(m.rs1);
    b = st.read_s(m.rs2);
  } else {
    a = st.read_d(m.rs1);
    b = st.read_d(m.rs2);
  }
  if (std::isnan(a) || std::isnan(b)) {
    st.fcc = 3;
  } else if (a == b) {
    st.fcc = 0;
  } else if (a < b) {
    st.fcc = 1;
  } else {
    st.fcc = 2;
  }
}

// ---- control transfers (block terminators) --------------------------------
//
// A morphed CTI is always the LAST record of its block, executing with a
// sequential pc/npc pair (npc == pc_of(m) + 4, guaranteed by block entry and
// the straight-line records before it), so it can reconstruct the step
// path's delay-slot state update from its own pc alone. The executor skips
// its sequential pc/npc update for such blocks (Block::ends_with_cti); the
// delay-slot instruction itself always runs on the single-step path.
// Encoding: branches keep cond in m.rd, the annul bit in m.rs1, and the
// byte displacement in m.op2. Captured pair: {taken, 0}.

template <bool FBF, bool CAP>
void h_bcc(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t pc = c.pc_of(m);
  const bool taken = FBF ? st.eval_fcond(static_cast<isa::FCond>(m.rd))
                         : st.eval_cond(static_cast<isa::Cond>(m.rd));
  capture<CAP>(m, c, taken ? 1 : 0, 0);
  const std::uint32_t target = pc + m.op2;
  const bool always = m.rd == 8;
  if (m.rs1 != 0 && (always || !taken)) {  // annulled delay slot
    st.pc = taken ? target : pc + 8;
    st.npc = st.pc + 4;
  } else {
    st.pc = pc + 4;
    st.npc = taken ? target : pc + 8;
  }
}

template <bool CAP>
void h_call(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t pc = c.pc_of(m);
  capture<CAP>(m, c, 1, 0);
  set_r(st, isa::kRegO7, pc);
  st.pc = pc + 4;
  st.npc = pc + m.op2;
}

template <bool IMM, bool CAP>
void h_jmpl(const MorphInsn& m, MorphCtx& c) {
  CpuState& st = c.st;
  const std::uint32_t pc = c.pc_of(m);
  const std::uint32_t target = st.r[m.rs1] + op2<IMM>(m, st);
  if (target & 3) fatal(pc, "jmpl to misaligned address");
  capture<CAP>(m, c, 1, 0);
  set_r(st, m.rd, pc);
  st.pc = pc + 4;
  st.npc = target;
}

// ---- morph-time handler table ---------------------------------------------

#define MORPH_II(OPK, H)                                    \
  case Op::OPK:                                             \
    return d.has_imm ? &H<Op::OPK, true, CAP>               \
                     : &H<Op::OPK, false, CAP>
#define MORPH_F(OPK, H) \
  case Op::OPK:         \
    return &H<Op::OPK, CAP>

template <bool CAP>
MorphFn select_handler(const isa::DecodedInsn& d) {
  switch (d.op) {
    MORPH_II(kAdd, h_addsub);
    MORPH_II(kAddcc, h_addsub);
    MORPH_II(kAddx, h_addsub);
    MORPH_II(kAddxcc, h_addsub);
    MORPH_II(kSub, h_addsub);
    MORPH_II(kSubcc, h_addsub);
    MORPH_II(kSubx, h_addsub);
    MORPH_II(kSubxcc, h_addsub);
    MORPH_II(kAnd, h_logic);
    MORPH_II(kAndcc, h_logic);
    MORPH_II(kAndn, h_logic);
    MORPH_II(kAndncc, h_logic);
    MORPH_II(kOr, h_logic);
    MORPH_II(kOrcc, h_logic);
    MORPH_II(kOrn, h_logic);
    MORPH_II(kOrncc, h_logic);
    MORPH_II(kXor, h_logic);
    MORPH_II(kXorcc, h_logic);
    MORPH_II(kXnor, h_logic);
    MORPH_II(kXnorcc, h_logic);
    MORPH_II(kSll, h_shift);
    MORPH_II(kSrl, h_shift);
    MORPH_II(kSra, h_shift);
    MORPH_II(kUmul, h_mul);
    MORPH_II(kUmulcc, h_mul);
    MORPH_II(kSmul, h_mul);
    MORPH_II(kSmulcc, h_mul);
    MORPH_II(kUdiv, h_udiv);
    MORPH_II(kUdivcc, h_udiv);
    MORPH_II(kSdiv, h_sdiv);
    MORPH_II(kSdivcc, h_sdiv);
    case Op::kRdy:
      return &h_rdy<CAP>;
    case Op::kWry:
      return d.has_imm ? &h_wry<true, CAP> : &h_wry<false, CAP>;
    case Op::kSave:
    case Op::kRestore:
      return d.has_imm ? &h_plain_add<true, CAP> : &h_plain_add<false, CAP>;
    case Op::kSethi:
      return &h_sethi<CAP>;
    case Op::kNop:
      return &h_nop<CAP>;
    MORPH_II(kLd, h_load);
    MORPH_II(kLdub, h_load);
    MORPH_II(kLdsb, h_load);
    MORPH_II(kLduh, h_load);
    MORPH_II(kLdsh, h_load);
    case Op::kLdd:
      if (d.rd & 1) {
        return d.has_imm ? &h_load_oddrd<Op::kLdd, true>
                         : &h_load_oddrd<Op::kLdd, false>;
      }
      return d.has_imm ? &h_load<Op::kLdd, true, CAP>
                       : &h_load<Op::kLdd, false, CAP>;
    MORPH_II(kLdf, h_load);
    case Op::kLddf:
      if (d.rd & 1) {
        return d.has_imm ? &h_load_oddrd<Op::kLddf, true>
                         : &h_load_oddrd<Op::kLddf, false>;
      }
      return d.has_imm ? &h_load<Op::kLddf, true, CAP>
                       : &h_load<Op::kLddf, false, CAP>;
    MORPH_II(kSt, h_store);
    MORPH_II(kStb, h_store);
    MORPH_II(kSth, h_store);
    case Op::kStd:
      if (d.rd & 1) {
        return d.has_imm ? &h_store_oddrd<Op::kStd, true>
                         : &h_store_oddrd<Op::kStd, false>;
      }
      return d.has_imm ? &h_store<Op::kStd, true, CAP>
                       : &h_store<Op::kStd, false, CAP>;
    MORPH_II(kStf, h_store);
    case Op::kStdf:
      if (d.rd & 1) {
        return d.has_imm ? &h_store_oddrd<Op::kStdf, true>
                         : &h_store_oddrd<Op::kStdf, false>;
      }
      return d.has_imm ? &h_store<Op::kStdf, true, CAP>
                       : &h_store<Op::kStdf, false, CAP>;
    MORPH_F(kFadds, h_fpu_s);
    MORPH_F(kFsubs, h_fpu_s);
    MORPH_F(kFmuls, h_fpu_s);
    MORPH_F(kFdivs, h_fpu_s);
    MORPH_F(kFaddd, h_fpu_d);
    MORPH_F(kFsubd, h_fpu_d);
    MORPH_F(kFmuld, h_fpu_d);
    MORPH_F(kFdivd, h_fpu_d);
    MORPH_F(kFsqrts, h_fpu_unary);
    MORPH_F(kFsqrtd, h_fpu_unary);
    MORPH_F(kFmovs, h_fpu_unary);
    MORPH_F(kFnegs, h_fpu_unary);
    MORPH_F(kFabss, h_fpu_unary);
    MORPH_F(kFitos, h_fpu_unary);
    MORPH_F(kFitod, h_fpu_unary);
    MORPH_F(kFstoi, h_fpu_unary);
    MORPH_F(kFdtoi, h_fpu_unary);
    MORPH_F(kFstod, h_fpu_unary);
    MORPH_F(kFdtos, h_fpu_unary);
    MORPH_F(kFcmps, h_fcmp);
    MORPH_F(kFcmpd, h_fcmp);
    default:
      return nullptr;  // CTIs and invalid ops never enter a block
  }
}

#undef MORPH_II
#undef MORPH_F

template <bool CAP>
MorphInsn morph_record(const isa::DecodedInsn& d) {
  MorphInsn m;
  m.fn = select_handler<CAP>(d);
  m.op = static_cast<std::uint8_t>(d.op);
  m.rd = d.rd;
  m.rs1 = d.rs1;
  m.rs2 = d.rs2;
  if (d.has_imm) {
    m.op2 = static_cast<std::uint32_t>(d.imm);
    // Shift counts are architecturally masked to 5 bits; pre-mask so the
    // imm-form handlers and the single-step path agree on the same count.
    if (d.op == Op::kSll || d.op == Op::kSrl || d.op == Op::kSra) m.op2 &= 31;
  }
  return m;
}

// Control transfers that may terminate a morphed block. Ticc stays on the
// step path (it is rare and owns the halt protocol), as does kInvalid.
bool morphable_cti(Op op) {
  return op == Op::kBicc || op == Op::kFbfcc || op == Op::kCall ||
         op == Op::kJmpl;
}

template <bool CAP>
MorphInsn morph_cti_record(const isa::DecodedInsn& d) {
  MorphInsn m;
  m.op = static_cast<std::uint8_t>(d.op);
  switch (d.op) {
    case Op::kBicc:
    case Op::kFbfcc:
      m.fn = d.op == Op::kBicc ? &h_bcc<false, CAP> : &h_bcc<true, CAP>;
      m.rd = d.cond;
      m.rs1 = d.annul ? 1 : 0;
      m.op2 = static_cast<std::uint32_t>(d.imm);
      break;
    case Op::kCall:
      m.fn = &h_call<CAP>;
      m.op2 = static_cast<std::uint32_t>(d.imm);
      break;
    default:  // kJmpl
      m.fn = d.has_imm ? &h_jmpl<true, CAP> : &h_jmpl<false, CAP>;
      m.rd = d.rd;
      m.rs1 = d.rs1;
      m.rs2 = d.rs2;
      if (d.has_imm) m.op2 = static_cast<std::uint32_t>(d.imm);
      break;
  }
  return m;
}

}  // namespace

BlockCache::BlockCache(Bus& bus, std::uint32_t code_base,
                       std::vector<isa::DecodedInsn>& dcache)
    : bus_(bus),
      code_base_(code_base),
      limit_(static_cast<std::uint32_t>(4 * dcache.size())),
      dcache_(dcache),
      index_(dcache.size(), kUnknown),
      covered_(dcache.size(), false) {}

BlockCache::~BlockCache() = default;

JitRuntime* BlockCache::ensure_jit() {
  if (jit_ == nullptr && !jit_failed_) {
    if (jit_available()) {
      jit_ = std::make_unique<JitRuntime>(bus_, *this);
      if (!jit_->ok()) jit_.reset();
    }
    jit_failed_ = jit_ == nullptr;
  }
  return jit_.get();
}

Block* BlockCache::morph(std::uint32_t idx) {
  if (!graveyard_.empty()) graveyard_.clear();

  const std::size_t end = dcache_.size();
  std::uint32_t n = 0;
  while (idx + n < end && n < kMaxBlockLen && !isa::ends_block(dcache_[idx + n]))
    ++n;
  // Absorb a morphable terminating CTI; its delay slot still single-steps.
  const bool with_cti =
      idx + n < end && n < kMaxBlockLen && morphable_cti(dcache_[idx + n].op);
  if (n == 0 && !with_cti) {
    index_[idx] = kNoBlock;
    return nullptr;
  }

  auto block = std::make_unique<Block>();
  block->start = code_base_ + 4 * idx;
  block->len = with_cti ? n + 1 : n;
  block->ends_with_cti = with_cti;
  block->indirect_exit = with_cti && dcache_[idx + n].op == Op::kJmpl;
  block->code.reserve(block->len);
  std::array<std::uint32_t, isa::kOpCount> hist{};
  for (std::uint32_t i = 0; i < n; ++i) {
    const isa::DecodedInsn& d = dcache_[idx + i];
    block->code.push_back(capture_ ? morph_record<true>(d)
                                   : morph_record<false>(d));
    ++hist[static_cast<std::size_t>(d.op)];
  }
  if (with_cti) {
    const isa::DecodedInsn& d = dcache_[idx + n];
    block->code.push_back(capture_ ? morph_cti_record<true>(d)
                                   : morph_cti_record<false>(d));
    ++hist[static_cast<std::size_t>(d.op)];
    n = block->len;
  }
  for (std::size_t op = 0; op < isa::kOpCount; ++op) {
    if (hist[op] != 0) {
      block->profile.push_back({static_cast<std::uint8_t>(op), hist[op]});
    }
  }

  const std::uint32_t cover_end =
      std::min<std::uint32_t>(idx + n + 1, static_cast<std::uint32_t>(end));
  for (std::uint32_t w = idx; w < cover_end; ++w) covered_[w] = true;

  ++stats_.blocks_morphed;
  stats_.insns_morphed += n;
  index_[idx] = static_cast<std::int32_t>(blocks_.size());
  blocks_.push_back(std::move(block));
  return blocks_.back().get();
}

void BlockCache::invalidate(std::uint32_t ea, std::uint32_t bytes) {
  // Clamp [ea, ea + bytes) to the code image (a wide store can straddle its
  // edges) and work in word granules.
  const std::uint64_t lo64 = std::max<std::uint64_t>(ea, code_base_);
  const std::uint64_t hi64 =
      std::min<std::uint64_t>(std::uint64_t{ea} + bytes, code_base_ + limit_);
  if (lo64 >= hi64) return;
  const auto w0 = static_cast<std::uint32_t>((lo64 - code_base_) >> 2);
  const auto w1 = static_cast<std::uint32_t>((hi64 - 1 - code_base_) >> 2);

  bool covered = false;
  for (std::uint32_t w = w0; w <= w1; ++w) {
    dcache_[w] = isa::decode(bus_.load32(code_base_ + 4 * w));
    if (index_[w] == kNoBlock) index_[w] = kUnknown;
    covered = covered || covered_[w];
  }
  if (!covered) return;
  ++stats_.store_scans;

  const std::uint32_t lo = code_base_ + 4 * w0;
  const std::uint32_t hi = code_base_ + 4 * w1 + 4;
  for (auto& slot : blocks_) {
    if (!slot) continue;
    // Jit-compiled blocks that fold their CTI's delay slot bake the word one
    // past the block into the emitted code, so it counts as footprint here.
    const std::uint32_t jit_tail = slot->jit_folds_delay ? 1u : 0u;
    if (slot->start < hi && slot->start + 4 * (slot->len + jit_tail) > lo) {
      // Every patched jump into and out of the emitted code must be
      // withdrawn before the block's SPARC words can change.
      if (jit_ != nullptr) jit_->on_block_death(*slot);
      index_[(slot->start - code_base_) >> 2] = kUnknown;
      ++stats_.flushes;
      graveyard_.push_back(std::move(slot));
    }
  }
}

}  // namespace nfp::sim
