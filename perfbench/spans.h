#ifndef MUXWISE_PERFBENCH_SPANS_H_
#define MUXWISE_PERFBENCH_SPANS_H_

// In-memory span recorder for the traced benchmark run. A span covers
// one call from the benchmark into a layer of the simulator; spans are
// kept in memory and only summarised after the timed work is over, so
// recording costs two clock reads and one vector append per span.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace muxwise::perfbench {

/** Host monotonic clock, nanoseconds. */
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /** Index of the enclosing span in SpanLog::spans(), or -1. */
  std::int64_t parent = -1;
  /** Which repetition of the workload the span belongs to. */
  int run = 0;
};

/** Self time and call count of one span name. */
struct LayerTime {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::size_t calls = 0;
};

/**
 * Records nested spans. A disabled log (the untraced runs) records
 * nothing: Scope checks one pointer and never reads the clock.
 */
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log) {
      if (log_ != nullptr) index_ = log_->Open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  void set_run(int run) { run_ = run; }
  const std::vector<Span>& spans() const { return spans_; }

  /**
   * Per-name self time: a span's duration minus the part of it that its
   * direct children cover (children never overlap: one thread).
   */
  std::map<std::string, LayerTime> SelfTimes() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      LayerTime& layer = out[spans_[i].name];
      const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
      layer.total_ns += total;
      layer.self_ns += total - child_ns[i];
      ++layer.calls;
    }
    return out;
  }

 private:
  std::size_t Open(const char* name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.run = run_;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void Close(std::size_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  int run_ = 0;
};

}  // namespace muxwise::perfbench

#endif  // MUXWISE_PERFBENCH_SPANS_H_
