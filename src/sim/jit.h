// x86-64 template JIT tier above the superblock morph cache
// (Dispatch::kJit — see docs/jit.md).
//
// Each morphed superblock is compiled once into straight-line x86-64: SPARC
// architectural state stays in the CpuState struct whose address is pinned
// in %rbx for the whole native run, the RAM base pointer in %r12, the
// remaining instruction budget in %r13 and the JitRt anchor in %r14, so the
// per-instruction templates are two-to-four host instructions against
// [%rbx + offset] operands. instret and the per-op retire counters are
// batched to one add per counter per block exit, and resolved block-to-block
// transitions are patched directly into the emitted code (a `jmp rel32`
// over the exit stub), so hot loops never return to the host dispatch loop.
//
// Anything the templates do not model — MMIO, sub-word accesses off RAM,
// division, odd-rd doubleword forms, every faulting edge — funnels through
// one generic helper that re-executes the record via the block's own morph
// handler, which makes the slow path interpreter-identical by construction.
// Blocks containing FPU work are not compiled at all (Block::JitState::
// kRejected); the executor runs them through exec_block, the per-block
// fallback to kBlock. On non-x86-64 hosts (or when the executable arena
// cannot be mapped) jit_available() is false and the executor stays on the
// kBlock path entirely. Only batch-retire hooks (functional sim, counting
// ISS) reach this tier; the board's cost hooks always run kBlock.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "sim/block_cache.h"
#include "sim/bus.h"
#include "sim/cpu_state.h"

// The backend emits and executes x86-64 code via an anonymous W^X mmap; it
// is compiled in only on x86-64 Linux hosts. Everywhere else (and when
// NFP_JIT_DISABLED is defined, e.g. by a sanitizer preset) the stubs below
// report the jit unavailable and the executor degrades to kBlock.
#if defined(__x86_64__) && defined(__linux__) && !defined(NFP_JIT_DISABLED)
#define NFP_JIT_ENABLED 1
#else
#define NFP_JIT_ENABLED 0
#endif

namespace nfp::sim {

// True when emitted code can actually run here: compiled-in backend, not
// forced off by jit_set_forced_off, and a one-shot probe confirming the
// host will hand out executable pages.
bool jit_available();

// Test hook: force jit_available() == false to exercise the graceful
// kBlock degradation paths without a foreign host.
void jit_set_forced_off(bool off);

// Bench/test hook: suppress the inline branch-target-cache probe on
// register-indirect exits (A/B against the host-loop re-entry path).
// Consulted at compile time; flip it only against a fresh runtime.
void jit_set_inline_btc(bool on);

// One slot of the JIT-resident branch-target cache probed inline on
// register-indirect exits (jmpl/retl). Direct-mapped on (pc >> 2); the
// sentinel tag 1 can never match a 4-aligned target.
struct JitBtcSlot {
  std::uint32_t tag = 1;
  std::uint32_t pad = 0;
  std::uint64_t native = 0;  // absolute address of the target block prologue
};

// State block anchored in %r14 during native execution. Field offsets are
// baked into emitted code and pinned by static_asserts in jit.cpp.
struct JitRt {
  CpuState* cpu = nullptr;          // +0   -> %rbx
  std::uint8_t* ram_bias = nullptr; // +8   ram_data() - kRamBase -> %r12
  std::uint8_t* touched = nullptr;  // +16  dirty-page flags
  std::uint64_t* counts = nullptr;  // +24  OpCountHooks counters (or null)
  const void* cur_meta = nullptr;   // +32  JitBlockMeta* of the running block
  std::uint32_t fault_idx = 0;      // +40  record index of a stashed fault
  std::uint32_t pad = 0;
  JitRuntime* owner = nullptr;      // +48
  const JitBtcSlot* btc = nullptr;  // +56  inline BTC table base
  std::uint64_t btc_hits = 0;       // +64  inline probe hits
};

// One potentially-patchable block exit: a static successor pc, the rel32
// field of the `jmp` guarding it, and the stub the jump targets while
// unpatched (which materializes pc/npc and returns to the host).
struct JitExit {
  std::uint32_t exit_pc = 0;
  std::uint32_t patch_off = 0;  // arena offset of the rel32 field
  std::uint32_t stub_off = 0;   // arena offset of the unpatched target
  Block* patched_to = nullptr;
};

struct JitBlockMeta {
  Block* block = nullptr;
  // Set when the block is invalidated. `block` is NOT cleared — an in-flight
  // native run may still route slow-path records through it, and the Block
  // object stays alive in the cache's graveyard until the next morph — but
  // once dead the meta must never source a new patch or host transition.
  bool dead = false;
  std::uint32_t start = 0;
  std::uint32_t len = 0;
  std::uint32_t entry_off = 0;  // arena offset of the block prologue
  std::vector<JitExit> exits;
  // Patched jumps INTO this block: {source meta, exit index}. Mirrors
  // JitExit::patched_to so block death can unpatch both directions without
  // scanning the arena.
  std::vector<std::pair<JitBlockMeta*, std::uint32_t>> incoming;
};

class JitRuntime {
 public:
  JitRuntime(Bus& bus, BlockCache& cache);
  ~JitRuntime();

  JitRuntime(const JitRuntime&) = delete;
  JitRuntime& operator=(const JitRuntime&) = delete;

  // False when the executable arena could not be mapped; the cache then
  // drops the runtime and the executor keeps running kBlock.
  bool ok() const;

  // Binds the CpuState and retire-counter vector the emitted code will
  // address. Counter adds are baked into block exits, so changing the
  // counts pointer discards all previously compiled code.
  void configure(CpuState* cpu, std::uint64_t* counts);

  // Compiles `b` on first sight (updating b.jit_state); later calls are a
  // cheap state read. Rejected blocks stay rejected.
  Block::JitState ensure_compiled(Block& b);

  // Runs native code starting at `b` (which must be kCompiled) for at most
  // `budget` instructions. Returns the unconsumed budget. On a fault,
  // faulted() is true and the caller reconciles via take_fault().
  std::uint64_t enter(Block& b, std::uint64_t budget);

  bool faulted() const { return rt_.fault_idx != kNoFault; }

  // Fault reconciliation data: the meta of the faulting block plus the
  // record index that faulted. Clears the fault latch.
  std::pair<const JitBlockMeta*, std::uint32_t> take_fault();
  std::exception_ptr take_exception() { return std::move(pending_); }

  // The last block whose prologue ran (native runs leave it in rt_.cur_meta);
  // the host loop uses it as the source side of transition patching.
  Block* last_block() const;
  // Clears that latch. The platform calls it whenever it re-attaches this
  // runtime's code image to a fresh load or restore, so no transition is
  // ever patched from a block that ran before the machine state changed.
  void forget_last_block();

  // Patches `from`'s exit with exit_pc == pc to jump straight into `to`'s
  // emitted entry. No-op if no such exit exists or it is already patched.
  void patch_transition(JitBlockMeta& from, std::uint32_t pc, Block& to);

  // Installs `pc -> to` in the inline branch-target cache probed by
  // register-indirect exits. No-op when `to` is not compiled or the inline
  // BTC is disabled; entries are withdrawn on block death and code reset.
  void btc_insert(std::uint32_t pc, Block& to);
  std::uint64_t inline_btc_hits() const { return rt_.btc_hits; }

  // Invalidation hook (called from BlockCache::invalidate): withdraw every
  // patched jump into and out of `b` so no native path can reach its stale
  // code or trust its stale edges.
  void on_block_death(Block& b);

  void stash_exception(std::exception_ptr e) { pending_ = std::move(e); }
  Bus& bus() { return bus_; }
  BlockCache& cache() { return cache_; }

  struct Stats {
    std::uint64_t blocks_compiled = 0;
    std::uint64_t blocks_rejected = 0;
    std::uint64_t code_bytes = 0;
    std::uint64_t entries = 0;        // host-side native entries
    std::uint64_t patches = 0;        // chain jumps patched in
    std::uint64_t unpatches = 0;      // chain jumps withdrawn
    std::uint64_t helper_exec = 0;    // slow-path records executed
    std::uint64_t btc_inserts = 0;    // inline-BTC entries installed
  };
  const Stats& stats() const { return stats_; }
  // The generic slow path bumps helper_exec through this (hot, but only on
  // slow records).
  void count_helper_exec() { ++stats_.helper_exec; }

  static constexpr std::uint32_t kNoFault = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInlineBtcEntries = 512;

 private:
  struct Impl;  // arena + emitted-code bookkeeping (x86-64 only)

  void reset_code();  // drop all compiled blocks (counts pointer changed)

  Bus& bus_;
  BlockCache& cache_;
  JitRt rt_;
  std::exception_ptr pending_;
  std::vector<std::unique_ptr<JitBlockMeta>> metas_;
  Stats stats_;
  std::vector<JitBtcSlot> btc_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nfp::sim
