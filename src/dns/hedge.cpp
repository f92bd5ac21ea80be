#include "dns/hedge.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "net/error.hpp"
#include "net/rng.hpp"

namespace drongo::dns {

namespace {

/// An FNV-1a-style hash over (source, destination, query bytes): the same
/// per-exchange stream selector scheme FaultyTransport uses, under a
/// different seed, so a hedge decision is a pure function of what was sent —
/// never of which thread sent it or when. The loop is FNV-1a's, but the
/// offset basis is 1469598103934665603, not FNV-1a's 14695981039346656037
/// (0xCBF29CE484222325); it is kept because the hedge selectors, and so the
/// hedging bench outputs, depend on it.
std::uint64_t exchange_hash(net::Ipv4Addr source, net::Ipv4Addr destination,
                            std::span<const std::uint8_t> query) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (int shift = 24; shift >= 0; shift -= 8) {
    mix(static_cast<std::uint8_t>(source.to_uint() >> shift));
    mix(static_cast<std::uint8_t>(destination.to_uint() >> shift));
  }
  for (std::uint8_t byte : query) mix(byte);
  return h;
}

/// One modelled upstream latency draw: base + jitter, with a tail stall.
double draw_latency_ms(const HedgeConfig& config, net::Rng& rng) {
  double ms = config.base_ms + rng.uniform_real(0.0, config.jitter_ms);
  if (rng.chance(config.slow_prob)) ms += config.slow_ms;
  return ms;
}

double parse_env_double(const char* value, double fallback, const std::string& knob,
                        double lo, double hi, bool lo_exclusive) {
  if (value == nullptr || value[0] == '\0') return fallback;
  const std::string v(value);
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(v, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  const bool in_range =
      used == v.size() && (lo_exclusive ? parsed > lo : parsed >= lo) && parsed <= hi;
  if (!in_range) {
    throw net::InvalidArgument(knob + " must be a number in " +
                               (lo_exclusive ? "(" : "[") + std::to_string(lo) + ", " +
                               std::to_string(hi) + "], got \"" + v + "\"");
  }
  return parsed;
}

std::uint64_t parse_env_count(const char* value, std::uint64_t fallback,
                              const std::string& knob) {
  if (value == nullptr || value[0] == '\0') return fallback;
  const std::string v(value);
  std::size_t used = 0;
  long long parsed = 0;
  try {
    parsed = std::stoll(v, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != v.size() || parsed < 1) {
    throw net::InvalidArgument(knob + " must be an integer >= 1, got \"" + v + "\"");
  }
  return static_cast<std::uint64_t>(parsed);
}

bool parse_env_switch(const char* value, bool fallback, const std::string& knob) {
  if (value == nullptr || value[0] == '\0') return fallback;
  const std::string v(value);
  if (v == "0" || v == "false" || v == "off") return false;
  if (v == "1" || v == "true" || v == "on") return true;
  throw net::InvalidArgument(knob + " must be 0/false/off or 1/true/on, got \"" + v +
                             "\"");
}

}  // namespace

HedgeConfig hedge_config_from_env(HedgeConfig base) {
  base.enabled =
      parse_env_switch(std::getenv("DRONGO_HEDGE_ENABLE"), base.enabled,
                       "DRONGO_HEDGE_ENABLE");
  base.threshold_ms =
      parse_env_double(std::getenv("DRONGO_HEDGE_THRESHOLD_MS"), base.threshold_ms,
                       "DRONGO_HEDGE_THRESHOLD_MS", 0.0, 1e9, /*lo_exclusive=*/false);
  base.quantile = parse_env_double(std::getenv("DRONGO_HEDGE_QUANTILE"), base.quantile,
                                   "DRONGO_HEDGE_QUANTILE", 0.0, 100.0,
                                   /*lo_exclusive=*/true);
  base.min_samples = parse_env_count(std::getenv("DRONGO_HEDGE_MIN_SAMPLES"),
                                     base.min_samples, "DRONGO_HEDGE_MIN_SAMPLES");
  return base;
}

HedgedTransport::HedgedTransport(DnsTransport* inner, HedgeConfig config)
    : inner_(inner), config_(config) {
  if (inner_ == nullptr) throw net::InvalidArgument("null inner DnsTransport");
  if (config_.threshold_ms < 0.0) {
    throw net::InvalidArgument("hedge threshold_ms must be >= 0");
  }
  if (!(config_.quantile > 0.0) || config_.quantile > 100.0) {
    throw net::InvalidArgument("hedge quantile must be in (0, 100]");
  }
  if (config_.min_samples < 1) {
    throw net::InvalidArgument("hedge min_samples must be >= 1");
  }
  if (config_.slow_prob < 0.0 || config_.slow_prob > 1.0) {
    throw net::InvalidArgument("hedge slow_prob must be in [0, 1]");
  }
}

void HedgedTransport::tally(std::atomic<std::uint64_t>& counter, const char* name) {
  counter.fetch_add(1, std::memory_order_relaxed);
  if (registry_ != nullptr) registry_->add(name);
}

double HedgedTransport::current_threshold_ms() const {
  if (config_.threshold_ms > 0.0) return config_.threshold_ms;
  if (latency_.count() < config_.min_samples) {
    return std::numeric_limits<double>::infinity();
  }
  return std::max(config_.min_threshold_ms, latency_.quantile(config_.quantile));
}

std::vector<std::uint8_t> HedgedTransport::exchange(net::Ipv4Addr source,
                                                    net::Ipv4Addr destination,
                                                    std::span<const std::uint8_t> query) {
  if (!config_.enabled) return inner_->exchange(source, destination, query);
  tally(exchanges_, "dns.resolver.hedge.exchanges");

  const std::uint64_t selector = exchange_hash(source, destination, query);
  net::Rng primary_rng = net::Rng::derive(config_.seed, selector, 0);
  double primary_ms = draw_latency_ms(config_, primary_rng);

  std::vector<std::uint8_t> primary_reply;
  std::exception_ptr primary_error;
  try {
    primary_reply = inner_->exchange(source, destination, query);
  } catch (const net::TransientError&) {
    // The caller would have sat out its full timeout on this attempt —
    // exactly the latency a hedge exists to cut short.
    primary_error = std::current_exception();
    primary_ms = config_.timeout_penalty_ms;
  }

  const auto settle = [this](double effective_ms) {
    latency_.observe(effective_ms);
    if (registry_ != nullptr) {
      registry_->observe_ms("dns.resolver.hedge.latency_ms", effective_ms);
    }
  };

  const double threshold_ms = current_threshold_ms();
  if (primary_ms <= threshold_ms || query.size() < 2) {
    settle(primary_ms);
    if (primary_error) std::rethrow_exception(primary_error);
    return primary_reply;
  }

  // The primary is past the threshold: launch the hedge at exactly the
  // threshold mark with a fresh query id, so the inner fabric — which
  // hashes the bytes — gives it an independent fate, like a real duplicate
  // datagram taking fresh network chances.
  tally(fired_, "dns.resolver.hedge.fired");
  std::vector<std::uint8_t> hedged_query(query.begin(), query.end());
  hedged_query[0] ^= 0xA5;
  hedged_query[1] ^= 0x3C;
  net::Rng hedge_rng = net::Rng::derive(config_.seed, selector, 1);
  double hedge_ms = threshold_ms + draw_latency_ms(config_, hedge_rng);

  std::vector<std::uint8_t> hedge_reply;
  bool hedge_failed = false;
  try {
    hedge_reply = inner_->exchange(source, destination, hedged_query);
  } catch (const net::TransientError&) {
    hedge_failed = true;
    hedge_ms = threshold_ms + config_.timeout_penalty_ms;
  }

  const bool primary_failed = primary_error != nullptr;
  if (primary_failed && hedge_failed) {
    tally(both_failed_, "dns.resolver.hedge.both_failed");
    settle(std::min(primary_ms, hedge_ms));
    std::rethrow_exception(primary_error);
  }

  const bool hedge_won = !hedge_failed && (primary_failed || hedge_ms < primary_ms);
  settle(hedge_won ? hedge_ms : primary_ms);
  if (!hedge_won) {
    // The primary answered first after all; the duplicate is abandoned
    // (its answer discarded, its failure — if any — swallowed).
    tally(losses_, "dns.resolver.hedge.losses");
    return primary_reply;
  }
  tally(primary_failed ? rescued_ : wins_,
        primary_failed ? "dns.resolver.hedge.rescued" : "dns.resolver.hedge.wins");
  // The winning hedge carries the rewritten id; patch it back to what the
  // caller sent so its id/0x20 validation sees the transaction it started.
  if (hedge_reply.size() >= 2) {
    hedge_reply[0] = query[0];
    hedge_reply[1] = query[1];
  }
  return hedge_reply;
}

}  // namespace drongo::dns
