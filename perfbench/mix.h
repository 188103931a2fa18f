// Seeded kernel mix for the campaign benchmark: the paper's MVC (HEVC
// stand-in) and FSE kernels, each in the float ABI and the soft-float
// "fixed" ABI, built only through the public workload generators.
//
// Seed 0 with the shipped parameters reproduces the kernel set of
// workloads::make_mvc_jobs / make_fse_jobs exactly (names, programs, input
// blobs, order). Any other seed draws new MVC sequences, new FSE images and
// masks, and a new submission order. The job names are the same for every
// seed; they name a kernel's position in the set (config, QP, sequence,
// image, ABI), not its content.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codecs/mvc.h"
#include "nfp/campaign.h"

namespace perfbench {

struct MixParams {
  // Defaults are the shipped kernel set (workloads/kernels.h).
  int mvc_frames = 5;
  int fse_iterations = 48;
  int fse_images = 24;
  // false keeps one of the three sequences per (config, QP), rotating, so
  // every config, QP and sequence still appears: 12 MVC kernels per ABI.
  bool all_sequences = true;
};

// The benchmark's reduced mix: 12 MVC + 8 FSE kernels per ABI (the paper's
// 3:3:2:2 group proportions), FSE at 4 iterations instead of 48.
inline MixParams bench_mix_params() { return {5, 4, 8, false}; }

struct MixJob {
  nfp::model::KernelJob job;
  // Golden inputs, kept so a job's output can be checked after the run.
  bool is_fse = false;
  nfp::codec::EncodedStream stream;  // MVC
  std::vector<double> signal;        // FSE (distorted signal)
  std::vector<int> mask;             // FSE
  int iterations = 0;                // FSE
  double rho = 0.0;                  // FSE
};

// The kernel set in submission order: per ABI (float, then fixed) the MVC
// kernels by config, QP and sequence, then the FSE kernels by image.
std::vector<MixJob> make_mix(std::uint64_t seed, const MixParams& p);

// Bytes of the job's output window the check reads after a run.
std::size_t output_bytes(const MixJob& job);

// Compares output bytes read from the target's output window (starting at
// sim::kOutputBase, output_bytes(job) long) against the host-compiled golden
// decoder / extrapolator. Returns an empty string when they match, else a
// description of the first mismatch.
std::string check_output(const MixJob& job,
                         const std::vector<std::uint8_t>& got);

// Total input bytes written into target RAM by a job.
std::size_t input_bytes(const nfp::model::KernelJob& job);

}  // namespace perfbench
