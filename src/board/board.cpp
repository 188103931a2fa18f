#include "board/board.h"

#include <cmath>

#include "board/rng.h"
#include "sim/executor.h"
#include "sim/state_io.h"

namespace nfp::board {

Board::Board(BoardConfig cfg)
    : cfg_(cfg),
      residuals_(cfg_, cost_),
      hooks_(std::make_unique<BoardHooks>(cfg_, cost_, residuals_)) {
  // Block-cost dispatch replays per-op residuals from captured operands, so
  // every block this platform morphs, in every code image it keeps warm,
  // uses the capture handler variants.
  platform_.set_capture(true);
}

void Board::load(const asmkit::Program& program) {
  platform_.load(program);
  hooks_ = std::make_unique<BoardHooks>(cfg_, cost_, residuals_);
}

void Board::step() {
  sim::Executor<BoardHooks> exec(platform_.cpu(), platform_.bus(), *hooks_);
  exec.set_decode_cache(platform_.code_base(), platform_.decode_cache());
  exec.set_block_cache(platform_.block_cache());
  exec.set_dispatch(sim::Dispatch::kStep);
  if (!platform_.cpu().halted) exec.step();
}

sim::RunResult Board::run(std::uint64_t max_insns, sim::Dispatch dispatch) {
  sim::Executor<BoardHooks> exec(platform_.cpu(), platform_.bus(), *hooks_);
  exec.set_decode_cache(platform_.code_base(), platform_.decode_cache());
  exec.set_block_cache(platform_.block_cache());
  exec.set_dispatch(dispatch);
  exec.run(max_insns);
  sim::RunResult result;
  result.halted = platform_.cpu().halted;
  result.instret = platform_.cpu().instret;
  result.exit_code = platform_.cpu().exit_code;
  return result;
}

void Board::save_state(std::ostream& out) const {
  sim::StateWriter w;
  sim::append_platform_chunks(w, platform_);

  w.begin_chunk(sim::kChunkBoardConfig);
  w.put_u8(cfg_.has_fpu ? 1 : 0);
  w.put_u8(cfg_.has_hw_muldiv ? 1 : 0);
  w.put_f64(cfg_.clock_hz);
  w.put_u8(cfg_.enable_variation ? 1 : 0);
  w.put_f64(cfg_.data_energy_amplitude);
  w.put_u8(cfg_.enable_meter_noise ? 1 : 0);
  w.put_f64(cfg_.meter_noise_sigma);
  w.put_f64(cfg_.clock_ticks_per_s);
  w.put_u64(cfg_.seed);
  w.put_u8(cfg_.enable_cache ? 1 : 0);
  w.put_u32(cfg_.cache_lines);
  w.put_u32(cfg_.cache_line_bytes);
  w.put_u8(static_cast<std::uint8_t>(cfg_.fidelity));
  w.end_chunk();

  const BoardHooksState s = hooks_->export_state();
  w.begin_chunk(sim::kChunkBoardHooks);
  w.put_u64(s.cycles);
  w.put_u32(static_cast<std::uint32_t>(s.counts.size()));
  for (const std::uint64_t c : s.counts) w.put_u64(c);
  w.put_f64(s.residual_energy);
  w.put_u64(s.stats.loads);
  w.put_u64(s.stats.stores);
  w.put_u64(s.stats.row_misses);
  w.put_u64(s.stats.cache_hits);
  w.put_u64(s.stats.cache_misses);
  w.put_u64(s.stats.branches_taken);
  w.put_u64(s.stats.branches_untaken);
  w.put_u64(s.stats.stall_cycles);
  w.put_u32(s.prev_a);
  w.put_u32(s.prev_b);
  w.put_u32(s.prev_addr);
  w.put_u32(s.open_row);
  w.put_u32(static_cast<std::uint32_t>(s.tags.size()));
  for (const std::uint32_t t : s.tags) w.put_u32(t);
  w.put_u64(s.activity_lfsr);
  w.put_u64(s.activity);
  w.end_chunk();

  w.finish(out);
}

void Board::restore_state(std::istream& in) {
  using sim::StateError;
  using sim::StateErrorCode;
  auto tags = sim::platform_chunk_tags();
  tags.push_back(sim::kChunkBoardConfig);
  tags.push_back(sim::kChunkBoardHooks);
  const sim::StateReader r(in, tags);

  // Decode phase: nothing on the board mutates until every chunk decoded and
  // validated (all-or-nothing restore; see sim/state_io.h).
  BoardConfig snap_cfg;
  {
    sim::ChunkCursor c(r.payload(sim::kChunkBoardConfig));
    snap_cfg.has_fpu = c.get_u8() != 0;
    snap_cfg.has_hw_muldiv = c.get_u8() != 0;
    snap_cfg.clock_hz = c.get_f64();
    snap_cfg.enable_variation = c.get_u8() != 0;
    snap_cfg.data_energy_amplitude = c.get_f64();
    snap_cfg.enable_meter_noise = c.get_u8() != 0;
    snap_cfg.meter_noise_sigma = c.get_f64();
    snap_cfg.clock_ticks_per_s = c.get_f64();
    snap_cfg.seed = c.get_u64();
    snap_cfg.enable_cache = c.get_u8() != 0;
    snap_cfg.cache_lines = c.get_u32();
    snap_cfg.cache_line_bytes = c.get_u32();
    const std::uint8_t fid = c.get_u8();
    if (fid > static_cast<std::uint8_t>(Fidelity::kCycleStepped)) {
      throw StateError(StateErrorCode::kBadPayload, "fidelity out of range");
    }
    snap_cfg.fidelity = static_cast<Fidelity>(fid);
    c.done();
  }
  if (!(snap_cfg == cfg_)) {
    throw StateError(StateErrorCode::kConfigMismatch,
                     "snapshot was taken under a different board "
                     "configuration");
  }

  BoardHooksState s;
  {
    sim::ChunkCursor c(r.payload(sim::kChunkBoardHooks));
    s.cycles = c.get_u64();
    if (c.get_u32() != s.counts.size()) {
      throw StateError(StateErrorCode::kBadPayload,
                       "retire-count vector has the wrong arity");
    }
    for (std::uint64_t& count : s.counts) count = c.get_u64();
    s.residual_energy = c.get_f64();
    s.stats.loads = c.get_u64();
    s.stats.stores = c.get_u64();
    s.stats.row_misses = c.get_u64();
    s.stats.cache_hits = c.get_u64();
    s.stats.cache_misses = c.get_u64();
    s.stats.branches_taken = c.get_u64();
    s.stats.branches_untaken = c.get_u64();
    s.stats.stall_cycles = c.get_u64();
    s.prev_a = c.get_u32();
    s.prev_b = c.get_u32();
    s.prev_addr = c.get_u32();
    s.open_row = c.get_u32();
    const std::uint32_t ntags = c.get_u32();
    const std::uint32_t want = cfg_.enable_cache ? cfg_.cache_lines : 0;
    if (ntags != want) {
      throw StateError(StateErrorCode::kBadPayload,
                       "cache tag array does not match the configuration");
    }
    s.tags.resize(ntags);
    for (std::uint32_t& t : s.tags) t = c.get_u32();
    s.activity_lfsr = c.get_u64();
    s.activity = c.get_u64();
    c.done();
  }

  sim::apply_platform_chunks(r, platform_);
  hooks_ = std::make_unique<BoardHooks>(cfg_, cost_, residuals_);
  hooks_->import_state(s);
}

Measurement Board::measure(std::string_view tag) const {
  Measurement m;
  m.energy_nj = true_energy_nj();
  m.time_s = true_time_s();
  if (cfg_.enable_meter_noise) {
    SplitMix64 rng(fnv1a(tag, cfg_.seed ^ 0x9E3779B97F4A7C15ull));
    m.energy_nj *= 1.0 + cfg_.meter_noise_sigma * rng.gaussian();
    // clock()-style quantisation: the target timebase has finite resolution.
    const double ticks =
        std::floor(m.time_s * cfg_.clock_ticks_per_s + rng.uniform());
    m.time_s = ticks / cfg_.clock_ticks_per_s;
  }
  return m;
}

}  // namespace nfp::board
