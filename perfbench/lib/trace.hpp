// In-memory span log for the traced run.
//
// Each span is (trace id, span id, parent, name, start, end) on the steady
// clock. Threads append to their own buffer, so recording takes no lock;
// the log is read only after every writer has stopped. Spans of one query
// or one campaign task share a trace id.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t name = 0;    ///< as returned by SpanLog::name_id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog();
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Spans are recorded only while enabled (off by default).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Registers a span name (setup only, before any recording).
  std::uint32_t name_id(const std::string& name);

  /// A fresh span id, unique within this log (thread-local id blocks).
  std::uint64_t next_span_id();

  /// Appends a finished span to the calling thread's buffer.
  void record(const SpanRecord& span);

  /// Every recorded span (writers must have stopped), in start order.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// Drops every recorded span (writers must have stopped).
  void clear();

  /// Writes `spans` as tab-separated lines (trace, span, parent, name,
  /// start_ns, end_ns; times relative to the earliest start).
  void write(const std::string& path, const std::vector<SpanRecord>& spans) const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::uint64_t next_id = 0;
    std::uint64_t id_limit = 0;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::uint64_t generation_;
  std::vector<std::string> names_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> next_block_{1};
};

/// RAII span: its parent and trace id are the calling thread's innermost
/// open ScopedSpan unless a trace id is given. No-op when the log is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint32_t name, std::uint64_t trace_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_ = nullptr;
  SpanRecord span_;
  std::uint64_t saved_span_ = 0;
  std::uint64_t saved_trace_ = 0;
};

/// Silences ScopedSpan on the calling thread while alive and `active`, so
/// a run can trace a sample of its tasks with whole traces kept.
class SpanSilence {
 public:
  explicit SpanSilence(bool active);
  ~SpanSilence();
  SpanSilence(const SpanSilence&) = delete;
  SpanSilence& operator=(const SpanSilence&) = delete;

 private:
  bool saved_;
};

/// Self time: the parent's length minus the part of it its children cover.
/// Children may overlap each other and stick out of the parent; only their
/// union inside [start, end) is subtracted.
std::int64_t self_time_ns(std::int64_t start, std::int64_t end,
                          std::vector<std::pair<std::int64_t, std::int64_t>> children);

}  // namespace perfbench
