#include "mix.h"

#include <bit>
#include <cstring>

#include "codecs/sequence_gen.h"
#include "fse/image_gen.h"
#include "sim/memmap.h"
#include "workloads/kernels.h"

namespace perfbench {
namespace {

using nfp::mcc::FloatAbi;

constexpr int kMvcSize = 48;    // MvcKernelParams width/height
constexpr int kFseN = 16;       // the FSE kernel's block size
constexpr double kFseRho = 0.90;
constexpr int kMvcSequences = 3;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Generator seed for one sequence/image: the shipped constant for seed 0,
// otherwise a value drawn from the workload seed.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t shipped,
                         std::uint64_t salt) {
  if (seed == 0) return shipped;
  return splitmix64(splitmix64(seed) ^ (salt * 0xD1B54A32D192ED03ull));
}

const char* abi_name(FloatAbi abi) {
  return abi == FloatAbi::kHard ? "float" : "fixed";
}

struct Streams {
  std::vector<nfp::codec::EncodedStream> streams;
  std::vector<int> seq;  // sequence index behind each stream
};

Streams mvc_streams(std::uint64_t seed, const MixParams& p) {
  const nfp::codec::Config configs[] = {
      nfp::codec::Config::kIntra, nfp::codec::Config::kLowdelay,
      nfp::codec::Config::kLowdelayP, nfp::codec::Config::kRandomaccess};
  const nfp::workloads::MvcKernelParams shipped;
  std::vector<std::vector<nfp::codec::Frame>> sequences;
  for (int seq = 0; seq < kMvcSequences; ++seq) {
    sequences.push_back(nfp::codec::make_sequence(
        kMvcSize, kMvcSize, p.mvc_frames,
        static_cast<nfp::codec::SequenceKind>(seq),
        input_seed(seed, 1000 + seq, seq)));
  }
  std::vector<nfp::codec::EncodedStream> streams;
  std::vector<int> seq_of;
  for (std::size_t ci = 0; ci < std::size(configs); ++ci) {
    for (std::size_t qi = 0; qi < shipped.qps.size(); ++qi) {
      for (int seq = 0; seq < kMvcSequences; ++seq) {
        if (!p.all_sequences &&
            seq != static_cast<int>((ci + qi) % kMvcSequences)) {
          continue;
        }
        streams.push_back(nfp::codec::encode(sequences[seq], kMvcSize,
                                             kMvcSize, shipped.qps[qi],
                                             configs[ci])
                              .stream);
        seq_of.push_back(seq);
      }
    }
  }
  return {std::move(streams), std::move(seq_of)};
}

void append_be64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

std::size_t mvc_frames_bytes(const MixJob& job) {
  return static_cast<std::size_t>(job.stream.width) * job.stream.height *
         job.stream.frames;
}

// The decoder appends its statistics doubles 8-aligned after the frames.
std::size_t mvc_stats_offset(const MixJob& job) {
  return (mvc_frames_bytes(job) + 7u) & ~std::size_t{7};
}

}  // namespace

std::vector<MixJob> make_mix(std::uint64_t seed, const MixParams& p) {
  const auto [streams, seq_of] = mvc_streams(seed, p);
  struct FseData {
    std::vector<double> signal;
    std::vector<int> mask;
  };
  std::vector<FseData> images;
  for (int k = 0; k < p.fse_images; ++k) {
    const std::uint64_t s = input_seed(seed, 42 + k, 100 + k);
    FseData d{nfp::fse::make_image(kFseN, s),
              nfp::fse::make_mask(kFseN, s,
                                  static_cast<nfp::fse::MaskKind>(k % 3))};
    // FSE operates on the distorted signal: missing samples zeroed.
    for (std::size_t i = 0; i < d.signal.size(); ++i) {
      if (d.mask[i]) d.signal[i] = 0.0;
    }
    images.push_back(std::move(d));
  }

  std::vector<MixJob> mix;
  for (const auto abi : {FloatAbi::kHard, FloatAbi::kSoft}) {
    const auto& mvc = nfp::workloads::mvc_program(abi);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      MixJob m;
      m.stream = streams[i];
      m.job.name = std::string("hevc/") +
                   nfp::codec::to_string(m.stream.config) + "/qp" +
                   std::to_string(m.stream.qp) + "/seq" +
                   std::to_string(seq_of[i]) + "/" + abi_name(abi);
      m.job.program = mvc;
      m.job.inputs.emplace_back(nfp::sim::kInputBase,
                                m.stream.to_input_blob());
      mix.push_back(std::move(m));
    }
    const auto& fse = nfp::workloads::fse_program(abi);
    for (int k = 0; k < p.fse_images; ++k) {
      MixJob m;
      m.is_fse = true;
      m.signal = images[k].signal;
      m.mask = images[k].mask;
      m.iterations = p.fse_iterations;
      m.rho = kFseRho;
      m.job.name = "fse/img" + std::to_string(k) + "/" + abi_name(abi);
      m.job.program = fse;
      m.job.inputs.emplace_back(
          nfp::sim::kInputBase,
          nfp::workloads::fse_input_blob(m.signal, m.mask, m.iterations,
                                         m.rho));
      mix.push_back(std::move(m));
    }
  }

  if (seed != 0) {  // seeded Fisher-Yates: a new submission order
    std::uint64_t state = splitmix64(seed ^ 0x5EED0BDEull);
    for (std::size_t i = mix.size(); i > 1; --i) {
      state = splitmix64(state);
      std::swap(mix[i - 1], mix[state % i]);
    }
  }
  return mix;
}

std::size_t output_bytes(const MixJob& job) {
  if (job.is_fse) return kFseN * kFseN * 8;
  return mvc_stats_offset(job) + 8;  // frames, padding, rms_activity
}

std::string check_output(const MixJob& job,
                         const std::vector<std::uint8_t>& got) {
  if (got.size() != output_bytes(job)) return "output window size mismatch";
  std::vector<std::uint8_t> want;
  if (job.is_fse) {
    for (const double v : nfp::workloads::fse_golden(job.signal, job.mask,
                                                      job.iterations,
                                                      job.rho)) {
      append_be64(want, std::bit_cast<std::uint64_t>(v));
    }
    return got == want ? "" : "FSE output differs from the host golden";
  }
  const auto golden = nfp::codec::golden_decode(job.stream);
  if (golden.status != 0) return "golden decoder rejected the stream";
  for (const auto& frame : golden.frames) {
    want.insert(want.end(), frame.begin(), frame.end());
  }
  if (want.size() != mvc_frames_bytes(job) ||
      std::memcmp(got.data(), want.data(), want.size()) != 0) {
    return "decoded frames differ from the golden decoder";
  }
  std::vector<std::uint8_t> stats;
  append_be64(stats, std::bit_cast<std::uint64_t>(golden.rms_activity));
  if (std::memcmp(got.data() + mvc_stats_offset(job), stats.data(), 8) != 0) {
    return "decoder statistics differ from the golden decoder";
  }
  return "";
}

std::size_t input_bytes(const nfp::model::KernelJob& job) {
  std::size_t n = 0;
  for (const auto& [addr, bytes] : job.inputs) n += bytes.size();
  return n;
}

}  // namespace perfbench
