// Replays every committed corpus file through the differential oracle.
// Corpus entries are minimized reproducers of bugs that were caught during
// fuzzing (against intentionally injected or real defects); replaying them
// on every test run turns each one into a permanent regression test.
#include "fuzz/corpus.h"

#include <gtest/gtest.h>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "sim/digest.h"

#ifndef NFP_FUZZ_CORPUS_DIR
#error "NFP_FUZZ_CORPUS_DIR must point at the committed corpus"
#endif

namespace nfp::fuzz {
namespace {

TEST(FuzzCorpus, CommittedReproducersReplayClean) {
  const auto corpus = load_corpus_dir(NFP_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(corpus.empty()) << "no corpus at " << NFP_FUZZ_CORPUS_DIR;
  DiffArena arena;
  for (const auto& entry : corpus) {
    DiffConfig diff;
    diff.checkpoint_seed = sim::fnv1a64(entry.path.data(), entry.path.size());
    const DiffReport report =
        run_differential_source(entry.source, diff, arena);
    EXPECT_FALSE(report.diverged) << entry.path << ": " << report.detail;
    EXPECT_TRUE(report.step_halted) << entry.path;
    EXPECT_GT(report.step_instret, 0u) << entry.path;
  }
}

TEST(FuzzCorpus, ReplayExercisesSnapshotArm) {
  // The save→restore→continue leg is on by default, so the replay above
  // already runs it; pin the default so a regressed flag can't silently
  // drop the arm, then replay the corpus with ONLY the snapshot leg on top
  // of the plain dispatch legs — a divergence here is unambiguously a
  // serialization bug, not a dispatch bug.
  EXPECT_TRUE(DiffConfig{}.check_snapshot);
  const auto corpus = load_corpus_dir(NFP_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(corpus.empty()) << "no corpus at " << NFP_FUZZ_CORPUS_DIR;
  DiffArena arena;
  for (const auto& entry : corpus) {
    DiffConfig diff;
    diff.check_board = false;
    diff.check_jit = false;
    diff.check_snapshot = true;
    diff.checkpoint_seed =
        sim::fnv1a64(entry.path.data(), entry.path.size()) ^ 0x5a5au;
    const DiffReport report =
        run_differential_source(entry.source, diff, arena);
    EXPECT_FALSE(report.diverged) << entry.path << ": " << report.detail;
  }
}

TEST(FuzzCorpus, MissingDirectoryYieldsEmptyCorpus) {
  EXPECT_TRUE(load_corpus_dir("/nonexistent/fuzz/corpus").empty());
}

TEST(FuzzCorpus, WriteEntryRoundTrips) {
  const std::string dir = ::testing::TempDir() + "nfpfuzz-corpus";
  DiffReport report;
  report.diverged = true;
  report.mode = "block";
  report.detail = "cpu-digest mismatch";
  report.step_instret = 42;
  report.step_halted = true;
  const std::string source = "  .text\n_start:\n  ta 0\n  nop\n";
  const std::string path =
      write_corpus_entry(dir, 123, "selfmod", report, source);
  const auto corpus = load_corpus_dir(dir);
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus[0].path, path);
  EXPECT_NE(corpus[0].source.find("! seed: 123"), std::string::npos);
  EXPECT_NE(corpus[0].source.find(source), std::string::npos);
  // The header is comments only: the file must still assemble and run.
  DiffArena arena;
  const DiffReport replay =
      run_differential_source(corpus[0].source, DiffConfig{}, arena);
  EXPECT_FALSE(replay.diverged);
  EXPECT_TRUE(replay.step_halted);
}

}  // namespace
}  // namespace nfp::fuzz
