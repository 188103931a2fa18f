// Superblock morph cache (paper Fig. 2/3, OVPsim-style code morphing).
//
// The executor's single-step path pays a decode-cache bounds check, a large
// op switch, and a retire hook per retired instruction. Programs spend almost
// all of their time re-executing the same straight-line runs, so this cache
// lazily discovers basic blocks (maximal runs of non-CTI instructions inside
// the predecoded image, plus the terminating branch/call/jump when it has a
// morphable form), "morphs" each one once into a compact trace of
// pre-resolved handler records — function-pointer dispatch instead of the op
// switch, operand-2 immediates pre-materialized, odd-rd checks hoisted to
// morph time — and lets the executor run whole blocks per dispatch with a
// single entry check. Each block also carries its static per-op retire
// profile so hooks without per-instruction detail (functional sim, counting
// ISS) retire the block with one vector-add.
//
// Invalidation: programs are loaded read-only into RAM, but a store that
// lands inside the cached code range re-decodes the overwritten words and
// flushes every block overlapping them (taking effect at the next block
// entry; the remainder of a block already in flight completes from its
// morphed trace). The cached range is the whole loaded image, data
// included, so most such stores hit globals no block was ever morphed
// from: a per-word "covered" bit lets those skip the block scan.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/decode.h"
#include "sim/bus.h"
#include "sim/cpu_state.h"
#include "sim/hooks.h"

namespace nfp::sim {

class BlockCache;
class JitRuntime;
struct JitBlockMeta;
struct MorphInsn;

// Execution context shared by all handler records of one block dispatch.
// `base_pc`/`base` let fault paths reconstruct the architectural pc of the
// offending record without any per-instruction bookkeeping.
struct MorphCtx {
  CpuState& st;
  Bus& bus;
  BlockCache& cache;
  std::uint32_t base_pc;
  const MorphInsn* base;
  // instret at block entry: the dispatch loop batches instret updates (one
  // add at block exit), so handlers whose effects can observe the counter
  // (MMIO word loads hitting the timer/instret registers) must restore the
  // exact architectural value first via sync_instret().
  std::uint64_t entry_instret;
  // Per-instruction operand capture buffer (kBlockCost dispatch): the
  // capture variants of the handlers write record i's operands to cap[i].
  // Null for hooks that never replay per-op residuals.
  CapturedOp* cap = nullptr;

  std::uint32_t pc_of(const MorphInsn& m) const;
  void sync_instret(const MorphInsn& m) const;
};

using MorphFn = void (*)(const MorphInsn&, MorphCtx&);

// One morphed instruction: 16 bytes, pre-resolved at morph time.
struct MorphInsn {
  MorphFn fn;
  std::uint8_t op;   // isa::Op, for prefix-retire on faults and diagnostics
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::uint32_t op2 = 0;  // pre-materialized immediate (imm forms only)
};

inline std::uint32_t MorphCtx::pc_of(const MorphInsn& m) const {
  return base_pc + 4 * static_cast<std::uint32_t>(&m - base);
}

inline void MorphCtx::sync_instret(const MorphInsn& m) const {
  st.instret = entry_instret + static_cast<std::uint64_t>(&m - base);
}

struct Block {
  std::uint32_t start = 0;  // entry pc
  std::uint32_t len = 0;    // instructions in the block (>= 1)
  // The last record is a morphed control transfer (bicc/fbfcc/call/jmpl)
  // that writes pc/npc itself; the executor then skips its sequential
  // pc/npc update. The CTI's delay slot always single-steps.
  bool ends_with_cti = false;
  // Terminating CTI is a jmpl: the exit target is register-dependent, so
  // the jit resolves it through its inline branch-target cache instead of a
  // patched jump.
  bool indirect_exit = false;
  std::vector<MorphInsn> code;
  // Static retire profile: per-op counts for one front-to-back execution.
  std::vector<BlockOpCount> profile;
  // Per-block cost profile for kBlockCost hooks (board), built lazily by
  // the hook on first dispatch — the cache itself knows nothing about cost
  // tables. Dies with the block on invalidation: flushed blocks never
  // re-enter dispatch, so a stale profile can never be applied.
  BlockCostState cost_state = BlockCostState::kUnbuilt;
  BlockCost cost;
  // JIT compilation state (Dispatch::kJit), owned by the cache's JitRuntime:
  // kNone until the first jit dispatch reaches the block, then kCompiled
  // (jit_meta names the emitted code) or kRejected (the block single-runs
  // through the interpreter's exec_block — the per-block kBlock fallback).
  enum class JitState : std::uint8_t { kNone = 0, kCompiled, kRejected };
  JitState jit_state = JitState::kNone;
  // The emitted code folds the CTI's delay-slot instruction — one word PAST
  // [start, start + 4*len) — so invalidation must treat that word as part of
  // the block's footprint (see BlockCache::invalidate).
  bool jit_folds_delay = false;
  JitBlockMeta* jit_meta = nullptr;
};

class BlockCache {
 public:
  // Blocks never grow past this many instructions; long straight-line runs
  // are split so the run loop's instruction budget stays enforceable at
  // block granularity without starving on giant unrolled kernels.
  static constexpr std::uint32_t kMaxBlockLen = 256;

  struct Stats {
    std::uint64_t blocks_morphed = 0;
    std::uint64_t insns_morphed = 0;
    std::uint64_t flushes = 0;
    // Stores into the image that touched a word some morphed block covers
    // and therefore scanned blocks_ for overlaps (the rest only re-decode).
    std::uint64_t store_scans = 0;
  };

  // `dcache` is the platform's predecoded image over
  // [code_base, code_base + 4*dcache.size()); the cache re-decodes entries
  // in place when stores invalidate them. Both must outlive the cache.
  BlockCache(Bus& bus, std::uint32_t code_base,
             std::vector<isa::DecodedInsn>& dcache);
  ~BlockCache();  // out of line: JitRuntime is incomplete here

  // Selects the operand-capturing morph handler variants for every block
  // morphed from now on (kBlockCost dispatch needs each record's operands
  // in MorphCtx::cap). Must be chosen before the first lookup(); the
  // platform sets it when it builds a code image (Platform::set_capture).
  void set_capture(bool on) { capture_ = on; }

  // Returns the block entered at `pc`, morphing it on first use. Returns
  // nullptr when `pc` is misaligned, outside the cached image, or when the
  // entry instruction terminates a block (CTI / invalid) — the caller falls
  // back to the single-step path for exact fault and delay-slot semantics.
  Block* lookup(std::uint32_t pc) {
    const std::uint32_t off = pc - code_base_;
    const std::uint32_t idx = off >> 2;
    if (off >= limit_ || (pc & 3u)) return nullptr;
    const std::int32_t slot = index_[idx];
    if (slot >= 0) return blocks_[static_cast<std::size_t>(slot)].get();
    if (slot == kNoBlock) return nullptr;
    return morph(idx);
  }

  // Cheap range test used by store paths before paying for invalidate().
  bool covers_code(std::uint32_t ea) const { return ea - code_base_ < limit_; }

  // A store hit [ea, ea + bytes) inside the code range: re-decode the
  // touched words and flush every block overlapping them. A flushed block
  // in flight finishes its current trace; its successor then resolves
  // through lookup(), which re-morphs the patched code. The overlap scan
  // runs only when a touched word is covered (see covered_).
  void invalidate(std::uint32_t ea, std::uint32_t bytes);

  const Stats& stats() const { return stats_; }

  // ---- JIT tier (Dispatch::kJit) ------------------------------------------
  // The runtime owning the executable arena and per-block code lives with
  // the cache so invalidation can unpatch emitted chain jumps exactly when
  // it flushes a block. ensure_jit() builds it on first use; it returns
  // nullptr when the host cannot execute emitted code (the executor then
  // stays on the kBlock path).
  JitRuntime* ensure_jit();
  JitRuntime* jit() { return jit_.get(); }

  // Compiler-facing views of the predecoded image: the jit compiles from
  // DecodedInsn (it needs has_imm, which MorphInsn erases), which is valid
  // because a live block proves its words are unchanged since morph time.
  const std::vector<isa::DecodedInsn>& dcache() const { return dcache_; }
  std::uint32_t code_base() const { return code_base_; }
  std::uint32_t code_limit() const { return limit_; }

 private:
  static constexpr std::int32_t kUnknown = -1;
  static constexpr std::int32_t kNoBlock = -2;

  Block* morph(std::uint32_t idx);

  Bus& bus_;
  std::uint32_t code_base_;
  std::uint32_t limit_;  // byte size of the cached image
  std::vector<isa::DecodedInsn>& dcache_;
  // Word index of a block *entry* -> slot in blocks_, or kUnknown/kNoBlock.
  std::vector<std::int32_t> index_;
  std::vector<std::unique_ptr<Block>> blocks_;
  // Per word: inside [start, start + len] of some morphed block. The word
  // past the end is the CTI delay slot a jit-compiled block may fold in.
  // Set in morph() and never cleared, so it over-approximates the footprint
  // of every live block: a store touching no covered word overlaps none.
  std::vector<bool> covered_;
  // Invalidated blocks are parked here, not freed: a store inside the block
  // currently being executed must leave its morphed trace alive until the
  // dispatch loop returns to lookup(), which drains the graveyard.
  std::vector<std::unique_ptr<Block>> graveyard_;
  Stats stats_;
  bool capture_ = false;
  std::unique_ptr<JitRuntime> jit_;
  bool jit_failed_ = false;  // ensure_jit() probe failed; don't retry
};

}  // namespace nfp::sim
