// Span sources around calls into the DNS layers. The library stays
// untouched: these wrap a dns::DnsServer or dns::DnsTransport and record a
// span per call while the span log is enabled, forwarding unchanged.
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "dns/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// A DnsServer that records a span named `span_name` around every handle()
/// of `inner` and counts the calls while the span log is enabled. The
/// span's trace id comes from `trace_of` when set (0 = inherit the calling
/// thread's open span). While probing, it notes the kernel thread id of the
/// last caller.
class SpannedServer final : public drongo::dns::DnsServer {
 public:
  using TraceOf = std::function<std::uint64_t(const drongo::dns::Message&)>;

  SpannedServer(drongo::dns::DnsServer* inner, SpanLog* log, const std::string& span_name)
      : inner_(inner), log_(log), span_name_(log->name_id(span_name)) {}

  void set_trace_of(TraceOf trace_of) { trace_of_ = std::move(trace_of); }
  void set_probing(bool on) { probing_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] long last_thread() const { return last_thread_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

  drongo::dns::Message handle(const drongo::dns::Message& query,
                              drongo::net::Ipv4Addr source) override {
    if (probing_.load(std::memory_order_relaxed)) {
      last_thread_.store(current_tid(), std::memory_order_relaxed);
    }
    if (!log_->enabled()) return inner_->handle(query, source);
    calls_.fetch_add(1, std::memory_order_relaxed);
    const ScopedSpan span(log_, span_name_, trace_of_ ? trace_of_(query) : 0);
    return inner_->handle(query, source);
  }

 private:
  drongo::dns::DnsServer* inner_;
  SpanLog* log_;
  std::uint32_t span_name_;
  TraceOf trace_of_;
  std::atomic<bool> probing_{false};
  std::atomic<long> last_thread_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// A DnsTransport that records a span named `span_name` around every
/// exchange, nested in the calling thread's open span.
class SpannedTransport final : public drongo::dns::DnsTransport {
 public:
  SpannedTransport(drongo::dns::DnsTransport* inner, SpanLog* log, const std::string& span_name)
      : inner_(inner), log_(log), span_name_(log->name_id(span_name)) {}

  std::vector<std::uint8_t> exchange(drongo::net::Ipv4Addr source,
                                     drongo::net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override {
    const ScopedSpan span(log_, span_name_);
    return inner_->exchange(source, destination, query);
  }

 private:
  drongo::dns::DnsTransport* inner_;
  SpanLog* log_;
  std::uint32_t span_name_;
};

}  // namespace perfbench
