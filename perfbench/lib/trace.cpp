#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kIdBlock = 1u << 20;

std::atomic<std::uint64_t> g_generation{1};

// The calling thread's buffer in the most recently used log, and its
// innermost open span (for parent/trace inheritance).
struct ThreadState {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
  std::uint64_t current_span = 0;
  std::uint64_t current_trace = 0;
  bool silent = false;
};
thread_local ThreadState t_state;

}  // namespace

SpanLog::SpanLog() : generation_(g_generation.fetch_add(1)) {}

SpanLog::~SpanLog() = default;

std::uint32_t SpanLog::name_id(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanLog::Buffer& SpanLog::local() {
  if (t_state.generation != generation_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1u << 16);
    t_state.generation = generation_;
    t_state.buffer = buffer.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(t_state.buffer);
}

std::uint64_t SpanLog::next_span_id() {
  Buffer& buffer = local();
  if (buffer.next_id == buffer.id_limit) {
    buffer.next_id = next_block_.fetch_add(1) * kIdBlock;
    buffer.id_limit = buffer.next_id + kIdBlock;
  }
  return buffer.next_id++;
}

void SpanLog::record(const SpanRecord& span) { local().spans.push_back(span); }

std::vector<SpanRecord> SpanLog::collect() const {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.span_id < b.span_id;
  });
  return all;
}

void SpanLog::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) buffer->spans.clear();
}

void SpanLog::write(const std::string& path, const std::vector<SpanRecord>& spans) const {
  std::ofstream out(path);
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& s : spans) origin = std::min(origin, s.start_ns);
  out << "trace_id\tspan_id\tparent\tname\tstart_ns\tend_ns\n";
  for (const auto& s : spans) {
    out << s.trace_id << '\t' << s.span_id << '\t' << s.parent << '\t'
        << names_.at(s.name) << '\t' << (s.start_ns - origin) << '\t'
        << (s.end_ns - origin) << '\n';
  }
}

ScopedSpan::ScopedSpan(SpanLog* log, std::uint32_t name, std::uint64_t trace_id) {
  if (log == nullptr || !log->enabled() || t_state.silent) return;
  log_ = log;
  span_.name = name;
  span_.span_id = log->next_span_id();
  span_.parent = t_state.current_span;
  span_.trace_id = trace_id != 0 ? trace_id : t_state.current_trace;
  saved_span_ = t_state.current_span;
  saved_trace_ = t_state.current_trace;
  t_state.current_span = span_.span_id;
  t_state.current_trace = span_.trace_id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = now_ns();
  t_state.current_span = saved_span_;
  t_state.current_trace = saved_trace_;
  log_->record(span_);
}

SpanSilence::SpanSilence(bool active) : saved_(t_state.silent) {
  t_state.silent = saved_ || active;
}

SpanSilence::~SpanSilence() { t_state.silent = saved_; }

std::int64_t self_time_ns(std::int64_t start, std::int64_t end,
                          std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  if (end <= start) return 0;
  for (auto& child : children) {
    child.first = std::max(child.first, start);
    child.second = std::min(child.second, end);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;
  for (const auto& [lo, hi] : children) {
    if (hi <= lo) continue;
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (end - start) - covered;
}

}  // namespace perfbench
