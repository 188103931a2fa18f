// The fuzz_smoke ctest tier: ~200 constrained-random programs, every chunk
// mix, differentially executed across kStep / kBlock / kJit with
// randomized mid-run budget stops. Fixed seeds keep the tier deterministic;
// broader exploration belongs to the nfpfuzz CLI with fresh seeds.
#include <gtest/gtest.h>

#include <cstdint>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"

namespace nfp::fuzz {
namespace {

// 7 mixes x 29 seeds = 203 programs; runs in well under the 10 s budget.
constexpr std::uint64_t kSeedsPerMix = 29;
constexpr std::uint64_t kBaseSeed = 1;

TEST(FuzzSmoke, AllMixesAgreeAcrossDispatchModes) {
  DiffArena arena;
  std::uint64_t programs = 0;
  std::uint64_t insns = 0;
  for (const auto& mix_name : mix_names()) {
    for (std::uint64_t s = 0; s < kSeedsPerMix; ++s) {
      GenConfig gen;
      gen.seed = kBaseSeed + s;
      gen.chunks = 16;
      gen.mix_name = mix_name;
      gen.mix = *mix_from_name(mix_name);

      DiffConfig diff;
      diff.checkpoints = 4;
      diff.checkpoint_seed = gen.seed * 977 + programs;

      const DiffReport report =
          run_differential_source(render(generate(gen)), diff, arena);
      ASSERT_FALSE(report.diverged)
          << "mix " << mix_name << " seed " << gen.seed << ": "
          << report.detail;
      EXPECT_TRUE(report.step_halted)
          << "mix " << mix_name << " seed " << gen.seed;
      ++programs;
      insns += report.step_instret;
    }
  }
  EXPECT_EQ(programs, mix_names().size() * kSeedsPerMix);
  // Sanity: the tier must be executing real work, not empty programs.
  EXPECT_GT(insns, 10'000u);
}

}  // namespace
}  // namespace nfp::fuzz
