// Platform = bus + CPU state + loaded program (predecoded). Shared by the
// counting ISS (sim/iss.h) and the measurement board (board/board.h), which
// differ only in the retire hooks they attach (paper Fig. 1: same functional
// simulation, different non-functional instrumentation).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "asmkit/program.h"
#include "isa/decode.h"
#include "sim/block_cache.h"
#include "sim/bus.h"
#include "sim/cpu_state.h"

namespace nfp::sim {

struct RunResult {
  bool halted = false;
  std::uint64_t instret = 0;
  std::uint32_t exit_code = 0;
};

class Platform {
 public:
  // Code images kept warm across load() and restore: one per campaign
  // program (MVC/FSE x float/soft-float ABI). A constant, not a knob.
  static constexpr std::size_t kImageSlots = 4;

  Platform();

  // Copies the program into RAM, predecodes its text, and resets the CPU
  // (pc = entry, %sp = kStackTop). Any previous machine state is discarded:
  // RAM pages touched by an earlier run are zeroed and the UART cleared, so
  // a reused Platform runs indistinguishably from a freshly constructed one.
  // The derived code caches are the exception that is not observable: a
  // program seen in one of the last kImageSlots loads keeps its decode
  // cache, morphed blocks, board cost profiles and jit code, and every word
  // whose bytes differ from what that image decoded goes through
  // BlockCache::invalidate first (see refresh_image).
  void load(const asmkit::Program& program);

  // Board flavour: blocks morph with operand-capturing handlers (see
  // BlockCache::set_capture). Set once, before the first load; changing it
  // drops every warm image.
  void set_capture(bool on);

  Bus& bus() { return bus_; }
  const Bus& bus() const { return bus_; }
  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }

  std::uint32_t code_base() const { return code_base_; }
  const std::vector<isa::DecodedInsn>& decode_cache() const {
    return image_ != nullptr ? image_->dcache : kNoCode;
  }

  // Image/section accessors for the static analyzer (nfp::analyze): the
  // loaded program is retained so nfplint-style tooling can cross-check the
  // predecoded image against a from-scratch CFG recovery.
  std::uint32_t code_size() const {
    return static_cast<std::uint32_t>(decode_cache().size()) * 4;
  }
  std::uint32_t text_size() const { return text_size_; }
  const asmkit::Program& loaded_program() const { return program_; }

  // Superblock morph cache over the predecoded image (Dispatch::kBlock);
  // null until a program is loaded.
  BlockCache* block_cache() {
    return image_ != nullptr ? image_->bcache.get() : nullptr;
  }

 private:
  // Snapshot restore (sim/state_io.cpp) replays load() from serialized state
  // and needs to reseat the private image/cache members atomically.
  friend void apply_platform_chunks(const class StateReader& r, Platform& p);

  // One program's derived code state: decode cache and the morph cache over
  // it (which owns the jit runtime, and whose blocks carry the board cost
  // profiles). Keyed by base, size and a content hash of the program bytes.
  struct CodeImage {
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    std::uint64_t hash = 0;
    std::uint64_t last_use = 0;  // 0 = empty slot
    std::vector<isa::DecodedInsn> dcache;
    std::unique_ptr<BlockCache> bcache;
  };

  // Makes `program`'s image current; RAM must already hold the words the
  // run will execute over [base, base + size). A known image is refreshed,
  // an unknown one rebuilt in the least recently used slot.
  void attach_image(const asmkit::Program& program);
  // Sends every word whose bytes differ from what `img` decoded through
  // BlockCache::invalidate: the one path that also keeps blocks, cost
  // profiles and jit code in step with self-modifying stores.
  void refresh_image(CodeImage& img);
  void rebuild_image(CodeImage& img);

  static const std::vector<isa::DecodedInsn> kNoCode;

  Bus bus_;
  CpuState cpu_;
  std::uint32_t code_base_ = 0;
  std::uint32_t text_size_ = 0;
  asmkit::Program program_;
  std::array<CodeImage, kImageSlots> images_;
  CodeImage* image_ = nullptr;
  std::uint64_t clock_ = 0;
  bool capture_ = false;
};

}  // namespace nfp::sim
