// Versioned snapshot/restore of simulator state (see docs/snapshots.md).
//
// A snapshot is a flat chunked file: an 8-byte header (magic + format
// version) followed by tagged chunks, each carrying its payload size and an
// FNV-1a checksum of the payload, closed by a mandatory end marker. Every
// front end composes its snapshot from the shared platform chunks (CPU
// state, dirty RAM pages, UART stream, the loaded program image) plus its
// own: the counting ISS adds its retire-count vector, the measurement board
// adds its configuration fingerprint and accumulator state (SDRAM open row,
// meter accumulators, switching-activity LFSR).
//
// Restore is strictly two-phase: the whole stream is parsed and validated —
// structure, version, checksums, chunk tags, payload shapes — and decoded
// into locals before a single byte of target state is mutated. Any error
// throws a StateError carrying a structured code and leaves the target
// exactly as it was. Applying a snapshot re-attaches the platform's code
// image for the snapshot's program (sim/platform.h): a warm image keeps its
// morph cache, jit code and block cost profiles, and every word whose
// restored bytes differ from what it decoded is invalidated first; an
// unknown program starts cold. Either way the resumed run retires
// bit-for-bit identically to the uninterrupted run, which the fuzz
// oracle's snapshot leg and the directed resume battery hold in place.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace nfp::sim {

class Platform;

// Current snapshot format version. Bumped on any incompatible layout change;
// readers reject every version but their own (no silent best-effort decode
// of foreign state — see docs/snapshots.md for the policy).
// v2: the board-hooks chunk grew the store and stall-cycle event counters.
inline constexpr std::uint32_t kStateVersion = 2;

constexpr std::uint32_t chunk_tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

// Platform chunks (shared by every snapshot flavour).
inline constexpr std::uint32_t kChunkCpu = chunk_tag('C', 'P', 'U', '0');
inline constexpr std::uint32_t kChunkProgram = chunk_tag('P', 'R', 'O', 'G');
inline constexpr std::uint32_t kChunkRam = chunk_tag('R', 'A', 'M', 'D');
inline constexpr std::uint32_t kChunkUart = chunk_tag('U', 'A', 'R', 'T');
// Front-end chunks.
inline constexpr std::uint32_t kChunkCounts = chunk_tag('C', 'N', 'T', 'S');
inline constexpr std::uint32_t kChunkBoardConfig = chunk_tag('B', 'C', 'F', 'G');
inline constexpr std::uint32_t kChunkBoardHooks = chunk_tag('B', 'R', 'D', 'H');
// End marker: zero-size chunk closing the stream.
inline constexpr std::uint32_t kChunkEnd = chunk_tag('E', 'N', 'D', '!');

enum class StateErrorCode {
  kTruncated,       // stream ends inside a header/payload, or no end marker
  kBadMagic,        // not a snapshot file
  kBadVersion,      // snapshot written by an incompatible format version
  kBadChecksum,     // chunk payload does not match its stored checksum
  kUnknownChunk,    // tag this restore target does not accept
  kDuplicateChunk,  // same tag appears twice
  kTrailingData,    // bytes after the end marker
  kMissingChunk,    // a chunk the target requires is absent
  kBadPayload,      // chunk decoded to an impossible value/shape
  kConfigMismatch,  // snapshot taken under a different board configuration
  kIo,              // underlying stream write failed
};

const char* state_error_code_name(StateErrorCode code);

// Structured restore/save failure. Restore throws before mutating anything,
// so a caught StateError guarantees the target is bit-for-bit untouched.
struct StateError : std::runtime_error {
  StateError(StateErrorCode c, const std::string& what)
      : std::runtime_error("state error (" +
                           std::string(state_error_code_name(c)) +
                           "): " + what),
        code(c) {}
  StateErrorCode code;
};

// Serializer: buffers the whole snapshot in memory (header, chunks, end
// marker) and flushes once in finish(). Integers are little-endian on every
// host; doubles travel as their IEEE-754 bit pattern.
class StateWriter {
 public:
  StateWriter();

  void begin_chunk(std::uint32_t tag);
  void end_chunk();

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t size);
  void put_string(const std::string& s);  // u32 length + bytes

  // Appends the end marker and writes the whole buffer to `out`.
  void finish(std::ostream& out);

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::uint8_t> chunk_;
  std::uint32_t chunk_tag_ = 0;
  bool in_chunk_ = false;
};

// Parsed-and-validated snapshot stream. Construction performs the entire
// structural validation pass: magic, version, per-chunk checksums, the end
// marker, duplicate detection, and the accepted-tag check (each restore
// entry point names exactly the tags it understands; anything else is a
// kUnknownChunk error, never silently skipped).
class StateReader {
 public:
  StateReader(std::istream& in, const std::vector<std::uint32_t>& accepted);

  bool has(std::uint32_t tag) const;
  // Payload of `tag`; throws kMissingChunk when absent.
  const std::vector<std::uint8_t>& payload(std::uint32_t tag) const;

 private:
  struct Chunk {
    std::uint32_t tag = 0;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Chunk> chunks_;
};

// Bounds-checked decoder over one chunk payload; any overrun (or leftover
// bytes at done()) is a kBadPayload error.
class ChunkCursor {
 public:
  explicit ChunkCursor(const std::vector<std::uint8_t>& payload)
      : p_(payload.data()), end_(payload.data() + payload.size()) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_f64();
  void get_bytes(void* dst, std::size_t size);
  std::string get_string();

  // Asserts the payload was consumed exactly.
  void done() const;

 private:
  void need(std::size_t n) const;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// The four tags every platform snapshot carries; front ends append their own
// when constructing a StateReader.
std::vector<std::uint32_t> platform_chunk_tags();

// Serializes the platform: CPU state, the loaded program image (base, entry,
// text split, bytes, symbols), every dirty 4 KiB RAM page, and the UART
// stream. The snapshot is self-contained — restore needs no separate load().
void append_platform_chunks(StateWriter& w, const Platform& p);

// Applies a validated snapshot: decodes everything first, then resets the
// touched RAM, rewrites the dirty pages, reinstates CPU/UART state, rebuilds
// the decode cache from the restored RAM image (so self-modified words stay
// modified), and replaces the block cache — invalidating every morphed
// trace, cost profile, and JIT translation. The new
// cache inherits the old one's operand-capture flag.
void apply_platform_chunks(const StateReader& r, Platform& p);

// Whole-file convenience for a bare platform (functional sim).
void save_state(std::ostream& out, const Platform& p);
void restore_state(std::istream& in, Platform& p);

}  // namespace nfp::sim
