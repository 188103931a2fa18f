// In-memory span recorder for the benchmark's traced run. Spans are taken
// around calls into each nfpkit layer from the benchmark's own code; each
// worker thread owns one Tracer, so recording takes no lock. Spans are
// merged and written out after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  // "<layer>.<call>", or a layer-less parent ("slice")
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  // index into the same Tracer's spans, -1 = root
  std::int64_t job;     // job id, -1 outside jobs
  std::int64_t self_ns = 0;  // filled by Tracer::finish
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  // Opens a span as a child of the innermost open span.
  std::size_t open(const char* name, std::int64_t job) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({name, now_ns(), 0, parent, job});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close() {
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  // Self time: each span's duration minus the durations of its children
  // (spans on one thread nest strictly, so children never overlap).
  void finish() {
    for (Span& s : spans_) s.self_ns = s.end_ns - s.start_ns;
    for (const Span& s : spans_) {
      if (s.parent >= 0) spans_[s.parent].self_ns -= s.end_ns - s.start_ns;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// RAII span: `Scope s(tracer, "iss.run", job);` (no-op on a null tracer).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::int64_t job) : t_(t) {
    if (t_) t_->open(name, job);
  }
  ~Scope() {
    if (t_) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
