// Batch campaign front: job order, determinism across worker counts, error
// isolation, and the per-job instruction budget.
#include "nfp/campaign.h"

#include <gtest/gtest.h>

#include "asmkit/assembler.h"
#include "mcc/compiler.h"
#include "sim/memmap.h"

namespace nfp::model {
namespace {

KernelJob loop_job(const std::string& name, int iterations) {
  KernelJob job;
  job.name = name;
  job.program = asmkit::assemble("_start: set " + std::to_string(iterations) +
                                     R"(, %l0
loop:   subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
)",
                                 sim::kTextBase);
  return job;
}

TEST(Campaign, RunsJobsAndKeepsOrder) {
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(loop_job("job" + std::to_string(i), 100 + i * 50));
  }
  Campaign campaign(board::BoardConfig{}, 4);
  const auto records = campaign.run(jobs);
  ASSERT_EQ(records.size(), jobs.size());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(records[i].name, "job" + std::to_string(i));
    EXPECT_TRUE(records[i].ok) << records[i].error;
    EXPECT_GT(records[i].instret, 0u);
    EXPECT_EQ(records[i].instret, records[i].cycles > 0
                                       ? records[i].instret
                                       : 0);  // both platforms ran
  }
  // Longer loops retire more instructions.
  EXPECT_GT(records[11].instret, records[0].instret);
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(loop_job("det" + std::to_string(i), 200 + i * 30));
  }
  const auto serial = Campaign(board::BoardConfig{}, 1).run(jobs);
  const auto parallel = Campaign(board::BoardConfig{}, 8).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].measured.energy_nj, parallel[i].measured.energy_nj);
    EXPECT_EQ(serial[i].measured.time_s, parallel[i].measured.time_s);
    EXPECT_EQ(serial[i].instret, parallel[i].instret);
    EXPECT_EQ(serial[i].counts, parallel[i].counts);
  }
}

TEST(Campaign, FailingKernelIsIsolated) {
  std::vector<KernelJob> jobs;
  jobs.push_back(loop_job("good", 100));
  KernelJob bad;
  bad.name = "bad";
  bad.program = asmkit::assemble(R"(
_start: .word 0
)",
                                 sim::kTextBase);
  jobs.push_back(bad);
  jobs.push_back(loop_job("also-good", 100));

  const auto records = Campaign(board::BoardConfig{}, 2).run(jobs);
  EXPECT_TRUE(records[0].ok);
  EXPECT_FALSE(records[1].ok);
  EXPECT_NE(records[1].error.find("illegal instruction"), std::string::npos);
  EXPECT_TRUE(records[2].ok);
}

TEST(Campaign, RunawayKernelReportsBudgetFailure) {
  // A kernel that never halts must fail on its job's budget, not hang.
  KernelJob runaway;
  runaway.name = "runaway";
  runaway.program = asmkit::assemble("_start: ba _start\n nop\n",
                                     sim::kTextBase);
  runaway.max_insns = 10'000;
  const auto rec = Campaign(board::BoardConfig{}, 1).run_one(runaway);
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("did not halt (instruction budget)"),
            std::string::npos)
      << rec.error;
}

TEST(Campaign, BusErrorIsReportedAsFailure) {
  KernelJob bad_mem;
  bad_mem.name = "bad-mem";
  bad_mem.program = asmkit::assemble(R"(
_start: set 0x10000000, %g1
        ld [%g1], %l0
        ta 0
)",
                                     sim::kTextBase);
  const auto rec = Campaign(board::BoardConfig{}, 1).run_one(bad_mem);
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("bus error"), std::string::npos);
}

TEST(Campaign, InputsAreWrittenBeforeRun) {
  KernelJob job;
  job.name = "reads-input";
  job.program = asmkit::assemble(R"(
_start: set 0x40800000, %g1
        ld [%g1], %o0
        ta 0
)",
                                 sim::kTextBase);
  job.inputs.emplace_back(sim::kInputBase,
                          std::vector<std::uint8_t>{0x00, 0x00, 0x01, 0x17});
  const auto rec = Campaign(board::BoardConfig{}, 1).run_one(job);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.exit_code, 0x117u);
}

TEST(Campaign, CompiledKernelCountsFeedEstimator) {
  mcc::CompileOptions opts;
  KernelJob job;
  job.name = "compiled";
  job.program = mcc::Compiler(opts).compile({R"(
int main() {
  int sum = 0;
  for (int i = 0; i < 100; i++) sum += i;
  return sum & 0xFF;
}
)"});
  const auto rec = Campaign(board::BoardConfig{}, 1).run_one(job);
  ASSERT_TRUE(rec.ok) << rec.error;
  std::uint64_t total = 0;
  for (const auto c : rec.counts) total += c;
  EXPECT_EQ(total, rec.instret);
  EXPECT_GT(rec.measured.energy_nj, 0.0);
}

}  // namespace
}  // namespace nfp::model
