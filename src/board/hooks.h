// Retire hooks implementing the board's non-functional ground truth:
// per-instruction cycles and energy with context-dependent effects
// (SDRAM open-row state, branch direction, operand/address toggling,
// optional data cache).
//
// The accounting is split so whole-block dispatch (Hooks::kBlockCost) can
// retire most of it statically:
//
//  - Static base: every op's base cycles and base energy come straight from
//    the CostModel table. Energy is tracked as per-op retire counts and
//    summed lazily in energy_nj(); base cycles of non-residual ops are
//    precomputed per block (BlockCost::base_cycles) and added in one shot.
//  - Dynamic residual: ops whose cost depends on machine context carry a
//    ResidualKind tag, and apply_residual() is the single kernel — shared
//    verbatim by the stepping and block paths — that turns captured operands
//    into the per-op cycle count and the energy correction relative to base
//    (accumulated in residual_energy_). Its energy corrections come from
//    ResidualTables, precomputed once per Board for every toggle count, so
//    the per-instruction work is a SWAR popcount and one table load.
//
// Because both dispatch modes retire every op through the same count
// increment and the same apply_residual() call sequence in program order,
// cycles(), energy_nj(), stats() and switching_activity() are bit-for-bit
// identical between Dispatch::kStep and Dispatch::kBlock.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "board/config.h"
#include "board/cost_model.h"
#include "board/events.h"
#include "isa/insn.h"
#include "sim/block_cache.h"
#include "sim/bus.h"
#include "sim/hooks.h"

namespace nfp::board {

struct BoardStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branches_taken = 0;
  std::uint64_t branches_untaken = 0;
  // Extra cycles spent on SDRAM row opens (row_misses * row_miss_cycles,
  // tracked as a real accumulator so snapshots carry it verbatim).
  std::uint64_t stall_cycles = 0;

  friend bool operator==(const BoardStats&, const BoardStats&) = default;
};

// The accumulator state a snapshot carries (board/board.cpp save/restore):
// everything on which future accounting depends — cycle and energy
// accumulators, SDRAM open row, cache tags, operand-toggle history, and the
// switching-activity LFSR. Derived per-block cost profiles are NOT state
// (they rebuild deterministically), so they are absent by design.
struct BoardHooksState {
  std::uint64_t cycles = 0;
  std::array<std::uint64_t, isa::kOpCount> counts{};
  double residual_energy = 0.0;
  BoardStats stats;
  std::uint32_t prev_a = 0, prev_b = 0, prev_addr = 0;
  std::uint32_t open_row = 0;
  std::vector<std::uint32_t> tags;
  std::uint64_t activity_lfsr = 0;
  std::uint64_t activity = 0;
};

// Population count of a 64-bit word. Inline SWAR rather than std::popcount:
// without a POPCNT target flag the latter is a libgcc call, and the residual
// kernel runs it for nearly every retired instruction.
inline int popcount64(std::uint64_t v) {
  v = v - ((v >> 1) & 0x5555555555555555ull);
  v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
  v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((v * 0x0101010101010101ull) >> 56);
}

// Operand-toggle count of an {x, y} word pair: popcount(x) + popcount(y)
// in one 64-bit count, 0..64.
inline int toggles(std::uint32_t x, std::uint32_t y) {
  return popcount64((std::uint64_t{x} << 32) | y);
}

// The base energy a memory access pays before toggle modulation: the op's
// base, plus an SDRAM row open, or the data-cache hit energy instead.
enum class MemEnergy : std::uint8_t { kBase = 0, kRowMiss = 1, kCacheHit = 2 };

inline double memory_energy(const OpCost& oc, const CostModel& cost,
                            MemEnergy v) {
  switch (v) {
    case MemEnergy::kRowMiss:
      return oc.energy_nj + cost.row_miss_energy_nj();
    case MemEnergy::kCacheHit:
      return cost.cache_hit_energy_nj();
    default:
      return oc.energy_nj;
  }
}

// Energy corrections of the operand-toggle residuals, precomputed for every
// toggle count k = 0..64 (BoardConfig and CostModel are fixed for a Board's
// lifetime). Each entry is the exact IEEE expression the per-instruction
// formula evaluates, so a table lookup adds the same double to
// residual_energy_ as evaluating it in place:
//  - operand-toggle ops: (leakage + dyn * tf[k]) - energy
//  - memory ops, per base energy e_v (MemEnergy): e_v * tf[k] - energy
// with tf[k] = 1 + amplitude * (k/64 - 0.5). Rows exist only for ops of the
// matching kind, and only when variation is modelled at all.
class ResidualTables {
 public:
  static constexpr std::size_t kRow = 65;  // toggle counts 0..64

  ResidualTables(const BoardConfig& cfg, const CostModel& cost) {
    if (!cfg.enable_variation) return;
    std::array<double, kRow> tf;
    for (std::size_t k = 0; k < kRow; ++k) {
      const double t = static_cast<double>(k) / 64.0;  // 0..1
      tf[k] = 1.0 + cfg.data_energy_amplitude * (t - 0.5);
    }
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      const OpCost& oc = cost.of(static_cast<isa::Op>(i));
      if (oc.kind == sim::ResidualKind::kBranch) continue;
      offset_[i] = static_cast<std::uint32_t>(rows_.size());
      if (oc.kind == sim::ResidualKind::kMemory) {
        for (const MemEnergy v :
             {MemEnergy::kBase, MemEnergy::kRowMiss, MemEnergy::kCacheHit}) {
          const double ev = memory_energy(oc, cost, v);
          for (std::size_t k = 0; k < kRow; ++k) {
            rows_.push_back(ev * tf[k] - oc.energy_nj);
          }
        }
      } else {
        // Leakage is occupancy-bound, not switching-bound: only the
        // dynamic share of the base energy is modulated by toggling.
        const double dyn = oc.energy_nj - oc.leakage_nj;
        for (std::size_t k = 0; k < kRow; ++k) {
          rows_.push_back((oc.leakage_nj + dyn * tf[k]) - oc.energy_nj);
        }
      }
    }
  }

  // Correction row of an operand-toggle op, indexed by toggle count.
  const double* toggle(isa::Op op) const {
    return rows_.data() + offset_[static_cast<std::size_t>(op)];
  }
  // Correction row of a memory op paying base energy `v`.
  const double* memory(isa::Op op, MemEnergy v) const {
    return toggle(op) + kRow * static_cast<std::size_t>(v);
  }

 private:
  std::array<std::uint32_t, isa::kOpCount> offset_{};
  std::vector<double> rows_;
};

class BoardHooks {
 public:
  static constexpr bool kWantsDetail = true;
  // Not a profile-only batch hook: context-dependent residuals still need
  // flagged instructions in order. kBlockCost is the middle tier — static
  // base applied per block, residuals replayed from captured operands.
  static constexpr bool kBatchRetire = false;
  static constexpr bool kBlockCost = true;

  // `tables` must be built from the same `cfg` and `cost`.
  BoardHooks(const BoardConfig& cfg, const CostModel& cost,
             const ResidualTables& tables)
      : cfg_(cfg), cost_(cost), tables_(tables) {
    if (cfg_.enable_cache) {
      const std::uint32_t lines = cfg_.cache_lines;
      tags_.assign(lines, kInvalidTag);
    }
  }

  void on_retire(const isa::DecodedInsn& d, const sim::RetireInfo& info) {
    if (!cfg_.has_fpu && uses_fpu(d.op)) {
      throw sim::SimError(
          "board error: FPU instruction executed on an FPU-less "
          "configuration (compile the kernel with soft-float)");
    }
    if (!cfg_.has_hw_muldiv && uses_muldiv(d.op)) {
      throw sim::SimError(
          "board error: MUL/DIV instruction executed on a configuration "
          "without the hardware units (compile with soft-muldiv)");
    }
    // Fold the RetireInfo into the same {x, y} operand pair the block path
    // captures, then run the shared accounting kernel.
    std::uint32_t x, y;
    switch (cost_.of(d.op).kind) {
      case sim::ResidualKind::kMemory:
        x = info.ea;
        y = info.mem_data;
        break;
      case sim::ResidualKind::kBranch:
        x = info.taken ? 1u : 0u;
        y = 0;
        break;
      default:
        x = info.a;
        y = info.b;
        break;
    }
    account(d.op, x, y);
  }

  // Prefix retire after a fault inside a block: replay the accounting for
  // one completed instruction from its captured operands. The retire guards
  // are not re-checked — ensure_block_cost() refused every block containing
  // a guarded op, so a faulting block has none.
  void on_retire_captured(isa::Op op, const sim::CapturedOp& cap) {
    account(op, cap.a, cap.b);
  }

  // Builds (once) and validates the block's cost profile. Returns false to
  // demand single-stepping: blocks containing ops whose retire guard must
  // fault at the exact offending instruction never enter block dispatch.
  bool ensure_block_cost(sim::Block& block) {
    if (block.cost_state == sim::BlockCostState::kReady) return true;
    if (block.cost_state == sim::BlockCostState::kStepOnly) return false;
    sim::BlockCost cost;
    for (std::size_t i = 0; i < block.code.size(); ++i) {
      const auto op = static_cast<isa::Op>(block.code[i].op);
      if ((!cfg_.has_fpu && uses_fpu(op)) ||
          (!cfg_.has_hw_muldiv && uses_muldiv(op))) {
        block.cost_state = sim::BlockCostState::kStepOnly;
        return false;
      }
      const OpCost& oc = cost_.of(op);
      cost.base_energy_nj += oc.energy_nj;
      if (residual_active(oc.kind)) {
        cost.residuals.push_back(
            {static_cast<std::uint16_t>(i), block.code[i].op});
      } else {
        // Residual ops are excluded: their cycles always come from
        // apply_residual() — in both dispatch modes — so they are never
        // counted twice.
        cost.base_cycles += oc.cycles;
      }
    }
    block.cost = std::move(cost);
    block.cost_state = sim::BlockCostState::kReady;
    return true;
  }

  // Whole-block retire: per-op counts and precomputed base cycles land in
  // one shot; only the flagged residual subset replays per instruction, in
  // program order, against the operands the handlers captured.
  void on_retire_block_cost(const sim::Block& block,
                            const sim::CapturedOp* cap) {
    for (const auto& pc : block.profile) {
      counts_[pc.op] += pc.count;
    }
    std::uint64_t cyc = block.cost.base_cycles;
    for (const auto& r : block.cost.residuals) {
      const auto op = static_cast<isa::Op>(r.op);
      cyc += apply_residual(op, cost_.of(op), cap[r.index].a, cap[r.index].b);
    }
    if (cfg_.fidelity == Fidelity::kCycleStepped) {
      // Batched: the tracker is a pure function of how many cycles it has
      // advanced, so one block-sized run equals the per-op runs exactly.
      advance_activity(cyc);
    }
    cycles_ += cyc;
  }

  std::uint64_t cycles() const { return cycles_; }

  // Lazy total: static base energy from the retire counts plus the
  // accumulated dynamic corrections. Summed in ascending op order so the
  // value is a pure function of the retire multiset — identical for any
  // dispatch mode that retires the same instructions.
  double energy_nj() const {
    double e = 0.0;
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      if (counts_[i] != 0) {
        e += static_cast<double>(counts_[i]) *
             cost_.of(static_cast<isa::Op>(i)).energy_nj;
      }
    }
    return e + residual_energy_;
  }

  const BoardStats& stats() const { return stats_; }
  std::uint64_t switching_activity() const { return activity_; }

  // Per-op retire counts (the static-base accumulator). Exposed so
  // calibration can derive estimation-scheme feature vectors from the board
  // run itself — the streams are proven identical to the ISS counters.
  const std::array<std::uint64_t, isa::kOpCount>& op_counts() const {
    return counts_;
  }

  // The PMU-style counter export (board/events.h): every value is derived
  // from accumulators the shared residual kernel maintains, so the whole
  // vector is bit-identical across dispatch modes and across
  // snapshot/restore boundaries.
  EventCounters events() const {
    EventCounters ev;
    std::uint64_t retired = 0, fpu = 0, muldiv = 0;
    for (std::size_t op = 0; op < isa::kOpCount; ++op) {
      retired += counts_[op];
      if (isa::is_fpu(static_cast<isa::Op>(op))) fpu += counts_[op];
      if (isa::is_muldiv(static_cast<isa::Op>(op))) muldiv += counts_[op];
    }
    ev[Event::kRetired] = retired;
    ev[Event::kFpuOps] = fpu;
    ev[Event::kMulDivOps] = muldiv;
    ev[Event::kLoads] = stats_.loads;
    ev[Event::kStores] = stats_.stores;
    ev[Event::kRowMisses] = stats_.row_misses;
    ev[Event::kCacheHits] = stats_.cache_hits;
    ev[Event::kCacheMisses] = stats_.cache_misses;
    ev[Event::kBranchesTaken] = stats_.branches_taken;
    ev[Event::kBranchesUntaken] = stats_.branches_untaken;
    ev[Event::kStallCycles] = stats_.stall_cycles;
    return ev;
  }

  // ---- snapshot support (sim/state_io.h, board/board.cpp) -----------------
  BoardHooksState export_state() const {
    BoardHooksState s;
    s.cycles = cycles_;
    s.counts = counts_;
    s.residual_energy = residual_energy_;
    s.stats = stats_;
    s.prev_a = prev_a_;
    s.prev_b = prev_b_;
    s.prev_addr = prev_addr_;
    s.open_row = open_row_;
    s.tags = tags_;
    s.activity_lfsr = activity_lfsr_;
    s.activity = activity_;
    return s;
  }

  // Caller (Board::restore_state) has already validated s.tags against the
  // configuration, so this cannot fail.
  void import_state(const BoardHooksState& s) {
    cycles_ = s.cycles;
    counts_ = s.counts;
    residual_energy_ = s.residual_energy;
    stats_ = s.stats;
    prev_a_ = s.prev_a;
    prev_b_ = s.prev_b;
    prev_addr_ = s.prev_addr;
    open_row_ = s.open_row;
    tags_ = s.tags;
    activity_lfsr_ = s.activity_lfsr;
    activity_ = s.activity;
  }

 private:
  static constexpr std::uint32_t kInvalidTag = 0xFFFFFFFFu;

  static bool uses_fpu(isa::Op op) {
    return isa::is_fpu(op) || op == isa::Op::kLdf || op == isa::Op::kLddf ||
           op == isa::Op::kStf || op == isa::Op::kStdf ||
           op == isa::Op::kFbfcc;
  }

  static bool uses_muldiv(isa::Op op) {
    switch (op) {
      case isa::Op::kUmul: case isa::Op::kUmulcc: case isa::Op::kSmul:
      case isa::Op::kSmulcc: case isa::Op::kUdiv: case isa::Op::kUdivcc:
      case isa::Op::kSdiv: case isa::Op::kSdivcc:
        return true;
      default:
        return false;
    }
  }

  // Whether ops tagged `kind` need a per-instruction callback on this
  // configuration. Memory and control residuals are unconditional (row /
  // cache state, branch direction); operand-toggle residuals exist only
  // when variation is modelled at all.
  bool residual_active(sim::ResidualKind kind) const {
    return kind == sim::ResidualKind::kMemory ||
           kind == sim::ResidualKind::kBranch || cfg_.enable_variation;
  }

  // Shared per-instruction accounting: count the op, apply its residual,
  // track activity, accumulate cycles. The stepping path runs this for every
  // op; the block path replays it only for faulted-block prefixes.
  void account(isa::Op op, std::uint32_t x, std::uint32_t y) {
    ++counts_[static_cast<std::size_t>(op)];
    const std::uint32_t cyc = apply_residual(op, cost_.of(op), x, y);
    if (cfg_.fidelity == Fidelity::kCycleStepped) advance_activity(cyc);
    cycles_ += cyc;
  }

  // The dynamic-residual kernel, shared by both dispatch modes: given the
  // op's captured operand pair, returns its cycle count and accumulates its
  // energy correction relative to the static base into residual_energy_.
  // For kinds with no active residual this is a no-op returning base cycles.
  std::uint32_t apply_residual(isa::Op op, const OpCost& oc, std::uint32_t x,
                               std::uint32_t y) {
    switch (oc.kind) {
      case sim::ResidualKind::kMemory: {
        // x = effective address, y = transferred data word.
        MemEnergy v = MemEnergy::kBase;
        const std::uint32_t cyc = memory_cycles(op, x, oc, v);
        if (cfg_.enable_variation) {
          residual_energy_ += tables_.memory(op, v)[toggles(x ^ prev_addr_, y)];
        } else {
          residual_energy_ += memory_energy(oc, cost_, v) - oc.energy_nj;
        }
        prev_addr_ = x;
        return cyc;
      }
      case sim::ResidualKind::kBranch: {
        // x = resolved direction.
        if (x != 0) {
          ++stats_.branches_taken;
          return oc.cycles;
        }
        ++stats_.branches_untaken;
        // The untaken path does not redirect the fetch stream.
        residual_energy_ += oc.energy_nj * 0.8 - oc.energy_nj;
        return oc.cycles_alt;
      }
      default: {  // kNone / kFpVariable: operand-toggle variation only
        if (cfg_.enable_variation) {
          residual_energy_ +=
              tables_.toggle(op)[toggles(x ^ prev_a_, y ^ prev_b_)];
          prev_a_ = x;
          prev_b_ = y;
        }
        return oc.cycles;
      }
    }
  }

  // Counts the access, updates cache and SDRAM row state, and returns the
  // cycles; `v` says which base energy the access pays.
  std::uint32_t memory_cycles(isa::Op op, std::uint32_t ea, const OpCost& oc,
                              MemEnergy& v) {
    if (isa::is_load(op)) {
      ++stats_.loads;
    } else {
      ++stats_.stores;
    }
    if (cfg_.enable_cache && isa::is_load(op)) {
      const std::uint32_t line = ea / cfg_.cache_line_bytes;
      const std::uint32_t index = line % cfg_.cache_lines;
      if (tags_[index] == line) {
        ++stats_.cache_hits;
        v = MemEnergy::kCacheHit;
        return cost_.cache_hit_cycles();
      }
      ++stats_.cache_misses;
      tags_[index] = line;
    }
    const std::uint32_t row = ea >> cost_.row_bits();
    if (row != open_row_) {
      open_row_ = row;
      ++stats_.row_misses;
      stats_.stall_cycles += cost_.row_miss_cycles();
      v = MemEnergy::kRowMiss;
      return oc.cycles + cost_.row_miss_cycles();
    }
    return oc.cycles;
  }

  // Step the microarchitectural activity tracker cycle by cycle, as a
  // hardware-description-level simulator would. The totals are the same
  // as the approximately-timed path; only the simulation cost differs.
  void advance_activity(std::uint64_t cycles) {
    for (std::uint64_t i = 0; i < cycles; ++i) {
      activity_lfsr_ ^= activity_lfsr_ << 13;
      activity_lfsr_ ^= activity_lfsr_ >> 7;
      activity_lfsr_ ^= activity_lfsr_ << 17;
      activity_ += popcount64(activity_lfsr_);
    }
  }

  const BoardConfig& cfg_;
  const CostModel& cost_;
  const ResidualTables& tables_;

  std::uint64_t cycles_ = 0;
  // Energy state: per-op retire counts (static base, summed lazily in
  // energy_nj()) plus the running sum of dynamic corrections.
  std::array<std::uint64_t, isa::kOpCount> counts_{};
  double residual_energy_ = 0.0;
  BoardStats stats_;

  std::uint32_t prev_a_ = 0, prev_b_ = 0, prev_addr_ = 0;
  std::uint32_t open_row_ = kInvalidTag;
  std::vector<std::uint32_t> tags_;

  std::uint64_t activity_lfsr_ = 0x2545F4914F6CDD1Dull;
  std::uint64_t activity_ = 0;
};

}  // namespace nfp::board
