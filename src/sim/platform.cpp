#include "sim/platform.h"

#include <cstring>

#include "sim/jit.h"
#include "sim/memmap.h"

namespace nfp::sim {
namespace {

// Content key of a program image, 8 bytes per step. Only picks which warm
// image to refresh: a collision costs invalidations, never correctness.
std::uint64_t image_hash(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 32;
  }
  for (; i < bytes.size(); ++i) h = (h ^ bytes[i]) * 0x100000001B3ull;
  return h;
}

}  // namespace

const std::vector<isa::DecodedInsn> Platform::kNoCode;

Platform::Platform() {
  bus_.set_instret_source([this] { return cpu_.instret; });
  // The target-visible timer advances with retired instructions on every
  // platform flavour so that a kernel's instruction stream is identical on
  // the ISS and on the board (a kernel reading the timer must not perturb
  // the counts the estimator consumes).
  bus_.set_time_source([this] { return cpu_.instret >> 10; });
}

void Platform::set_capture(bool on) {
  if (on == capture_) return;
  capture_ = on;
  image_ = nullptr;
  for (CodeImage& img : images_) img = CodeImage{};
}

void Platform::load(const asmkit::Program& program) {
  if (!bus_.in_ram(program.base()) ||
      program.base() + program.size() > kRamEnd) {
    throw SimError("program does not fit in RAM");
  }
  bus_.reset_touched_ram();
  bus_.clear_uart();
  bus_.write_block(program.base(), program.bytes().data(),
                   program.bytes().size());

  code_base_ = program.base();
  text_size_ = program.text_size();
  program_ = program;
  attach_image(program_);

  cpu_ = CpuState{};
  cpu_.pc = program.entry();
  cpu_.npc = program.entry() + 4;
  cpu_.r[isa::kRegSp] = kStackTop;
}

void Platform::attach_image(const asmkit::Program& program) {
  const std::uint64_t hash = image_hash(program.bytes());
  CodeImage* hit = nullptr;
  CodeImage* victim = &images_[0];
  for (CodeImage& img : images_) {
    if (img.last_use != 0 && img.base == program.base() &&
        img.size == program.size() && img.hash == hash) {
      hit = &img;
      break;
    }
    if (img.last_use < victim->last_use) victim = &img;
  }
  if (hit != nullptr) {
    refresh_image(*hit);
  } else {
    hit = victim;
    hit->base = program.base();
    hit->size = program.size();
    hit->hash = hash;
    rebuild_image(*hit);
  }
  hit->last_use = ++clock_;
  image_ = hit;
}

void Platform::refresh_image(CodeImage& img) {
  for (std::size_t w = 0; w < img.dcache.size(); ++w) {
    const std::uint32_t addr = img.base + 4 * static_cast<std::uint32_t>(w);
    if (bus_.load32(addr) != img.dcache[w].raw) {
      img.bcache->invalidate(addr, 4);
    }
  }
  if (JitRuntime* jr = img.bcache->jit()) jr->forget_last_block();
}

void Platform::rebuild_image(CodeImage& img) {
  // Drop the morph cache (and its jit arena) before mutating the image it
  // indexes; the decode cache keeps its storage.
  img.bcache.reset();
  const std::size_t words = img.size / 4;
  img.dcache.clear();
  img.dcache.reserve(words);
  for (std::size_t i = 0; i < words; ++i) {
    img.dcache.push_back(
        isa::decode(bus_.load32(img.base + static_cast<std::uint32_t>(i) * 4)));
  }
  img.bcache = std::make_unique<BlockCache>(bus_, img.base, img.dcache);
  img.bcache->set_capture(capture_);
}

}  // namespace nfp::sim
