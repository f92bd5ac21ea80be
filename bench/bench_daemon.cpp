// Daemon serving bench: what do batching, SO_REUSEPORT listeners and the
// packet cache buy over the same daemon serving one datagram per syscall?
//
// Both arms serve the SAME workload from the SAME resolver configuration
// (sharded cache on, coalescing on, frozen serving time) over real loopback
// sockets, driven by a pipelined load generator that keeps a window of
// queries outstanding and itself batches syscalls (the client must not
// steal the server's core with per-datagram overhead). The generator runs
// on the cores the listeners leave free and spreads its flows over several
// client sockets per listener, so SO_REUSEPORT loads every listener:
//
//   arm A  dns::DaemonServer    one listener, batch 1 (one datagram per
//                               syscall), packet cache off
//   arm B  dns::DaemonServer    SO_REUSEPORT listeners, recvmmsg/sendmmsg
//                               batches, packet cache on
//
// The bench FAILS (exit 1) when arm B falls below DRONGO_DAEMON_MIN_QPS
// (default 50k) or below DRONGO_DAEMON_MIN_SPEEDUP x arm A (default 2x) —
// the gate that keeps the front end honest. Latency (p50/p99 over every
// response) and sustained QPS land in BENCH_daemon.json.
#include <netinet/in.h>
#include <poll.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/render.hpp"
#include "cdn/serving_world.hpp"
#include "dns/daemon_server.hpp"
#include "dns/udp.hpp"
#include "net/clock.hpp"
#include "net/error.hpp"
#include "netio/socket.hpp"
#include "obs/bench_report.hpp"

using namespace drongo;

namespace {

// ---- Environment knobs (fail loudly; see the README knob table) -----------

long parse_env_long(const char* name, const char* value, long fallback, long min_value) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < min_value) {
    throw net::InvalidArgument(std::string(name) + " must be an integer >= " +
                               std::to_string(min_value) + ", got '" + value + "'");
  }
  return parsed;
}

double parse_env_double(const char* name, const char* value, double fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || parsed < 0.0) {
    throw net::InvalidArgument(std::string(name) + " must be a number >= 0, got '" +
                               value + "'");
  }
  return parsed;
}

double parse_min_qps() {
  return parse_env_double("DRONGO_DAEMON_MIN_QPS",
                          std::getenv("DRONGO_DAEMON_MIN_QPS"), 50'000.0);
}

double parse_min_speedup() {
  return parse_env_double("DRONGO_DAEMON_MIN_SPEEDUP",
                          std::getenv("DRONGO_DAEMON_MIN_SPEEDUP"), 2.0);
}

std::size_t parse_daemon_listeners() {
  const long v = parse_env_long("DRONGO_DAEMON_LISTENERS",
                                std::getenv("DRONGO_DAEMON_LISTENERS"), 0, 0);
  if (v > 0) return static_cast<std::size_t>(v);
  // Half the cores, leaving the rest to the load generator.
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

std::size_t parse_daemon_batch() {
  return static_cast<std::size_t>(parse_env_long(
      "DRONGO_DAEMON_BATCH", std::getenv("DRONGO_DAEMON_BATCH"), 64, 1));
}

double parse_bench_seconds() {
  return parse_env_double("DRONGO_DAEMON_BENCH_SECONDS",
                          std::getenv("DRONGO_DAEMON_BENCH_SECONDS"), 1.2);
}

std::size_t parse_window() {
  return static_cast<std::size_t>(parse_env_long(
      "DRONGO_DAEMON_WINDOW", std::getenv("DRONGO_DAEMON_WINDOW"), 128, 1));
}

// ---- World ----------------------------------------------------------------

/// Every arm's resolver: sharded cache and coalescing on, time frozen.
std::unique_ptr<cdn::PublicResolver> make_resolver(cdn::ServingWorld& env) {
  cdn::ServingConfig serving;
  serving.enable_cache = true;
  serving.shards = 8;
  serving.coalesce = true;
  return env.make_resolver(serving);
}

// ---- Load generator -------------------------------------------------------

struct LoadResult {
  std::uint64_t responses = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double percentile(std::vector<double>& sorted_samples, double q) {
  if (sorted_samples.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted_samples.size() - 1);
  const std::size_t index = static_cast<std::size_t>(rank);
  return sorted_samples[std::min(index, sorted_samples.size() - 1)];
}

/// Where the generator runs. The daemon pins listener i to CPU i, so the
/// generator threads take the CPUs after the listeners when there are any
/// (as perfbench does); with no spare CPU one unpinned thread shares them.
struct GeneratorPlan {
  std::size_t threads = 1;
  std::size_t first_cpu = 0;
  bool pin = false;
  std::size_t sockets_per_thread = 2;
};

GeneratorPlan plan_generator(std::size_t listeners) {
  GeneratorPlan plan;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > listeners) {
    plan.threads = hw - listeners;
    plan.first_cpu = listeners;
    plan.pin = true;
  }
  // SO_REUSEPORT hashes each client flow (source port) to one listener, so
  // several sockets per listener spread the load across all of them.
  constexpr std::size_t kSocketsPerListener = 4;
  plan.sockets_per_thread =
      std::max<std::size_t>(2, (kSocketsPerListener * listeners + plan.threads - 1) /
                                   plan.threads);
  return plan;
}

/// What one generator thread saw: its responses and their latencies (ms).
struct ShareResult {
  std::uint64_t responses = 0;
  std::vector<double> samples;
};

/// One generator thread: keeps the window slots [first, first + count)
/// outstanding over its own client sockets (slot first + k rides socket
/// k % socket_count) until `duration` on `watch`. Each slot owns one
/// pre-encoded query whose DNS id IS the slot index, so a response maps back
/// without decoding; every response immediately re-arms its slot. Syscalls
/// are batched with the same UdpBatch machinery the daemon uses.
ShareResult drive_share(const std::vector<std::vector<std::uint8_t>>& queries,
                        std::size_t first, std::size_t count, std::uint16_t port,
                        std::size_t socket_count, std::size_t batch, double duration,
                        const net::Stopwatch& watch) {
  std::vector<dns::UdpSocket> sockets;
  std::vector<pollfd> fds;
  for (std::size_t i = 0; i < socket_count; ++i) {
    sockets.emplace_back(0);  // distinct ephemeral source ports
    fds.push_back({sockets.back().fd(), POLLIN, 0});
  }
  netio::UdpBatch io(batch, 4096);
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(port);
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  ShareResult result;
  result.samples.reserve(1u << 17);
  std::vector<double> sent_at(count, -1.0);
  // Stages slot `first + k` on its socket `fd`; callers flush per socket.
  auto stage_slot = [&](std::size_t k, int fd, double now) {
    if (io.staged() == io.batch_size()) io.flush(fd);
    io.stage(dest, queries[first + k]);
    sent_at[k] = now;
  };
  // Re-arms every slot of socket `s` idle for longer than `stale` seconds.
  auto rearm = [&](std::size_t s, double now, double stale) {
    for (std::size_t k = s; k < count; k += socket_count) {
      if (now - sent_at[k] > stale) stage_slot(k, fds[s].fd, now);
    }
    io.flush(fds[s].fd);
  };
  for (std::size_t s = 0; s < socket_count; ++s) rearm(s, watch.seconds(), -1.0);  // all

  double last_sweep = watch.seconds();
  while (true) {
    const int ready = ::poll(fds.data(), fds.size(), 50);
    const double now = watch.seconds();
    if (now >= duration) break;
    if (now - last_sweep > 0.05) {
      // Re-arm slots whose query or response was dropped.
      for (std::size_t s = 0; s < socket_count; ++s) rearm(s, now, 0.25);
      last_sweep = now;
    }
    if (ready <= 0) continue;
    for (std::size_t s = 0; s < socket_count; ++s) {
      if ((fds[s].revents & POLLIN) == 0) continue;
      const std::size_t received = io.receive(fds[s].fd);
      for (std::size_t i = 0; i < received; ++i) {
        const auto payload = io.payload(i);
        if (payload.size() < 2) continue;
        const std::size_t slot = (static_cast<std::size_t>(payload[0]) << 8) | payload[1];
        if (slot < first || slot >= first + count) continue;
        const std::size_t k = slot - first;
        if (k % socket_count != s || sent_at[k] < 0.0) continue;
        result.samples.push_back((now - sent_at[k]) * 1000.0);
        ++result.responses;
        stage_slot(k, fds[s].fd, now);
      }
      io.flush(fds[s].fd);
    }
  }
  return result;
}

/// Keeps `window` queries outstanding against 127.0.0.1:`port` for
/// `duration` seconds, split across the plan's generator threads.
LoadResult run_load(cdn::ServingWorld& env, std::uint16_t port, double duration, std::size_t window,
                    std::size_t batch, const GeneratorPlan& plan) {
  const auto& names = env.auth->content_names();
  std::vector<std::vector<std::uint8_t>> queries;
  queries.reserve(window);
  for (std::size_t slot = 0; slot < window; ++slot) {
    const auto& name = names[slot % names.size()];
    // A distinct /24 per slot spreads cache entries across scopes/shards.
    const net::Prefix subnet(
        net::Ipv4Addr(20, static_cast<std::uint8_t>(slot >> 8),
                      static_cast<std::uint8_t>(slot & 0xFF), 0),
        24);
    queries.push_back(
        dns::Message::make_query(static_cast<std::uint16_t>(slot), name, subnet)
            .encode());
  }

  const std::size_t threads = std::min(plan.threads, window);
  std::vector<ShareResult> shares(threads);
  const net::Stopwatch watch;
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t first = window * t / threads;
      const std::size_t count = window * (t + 1) / threads - first;
      workers.emplace_back([&, t, first, count] {
        if (plan.pin) netio::pin_thread_to_cpu(static_cast<unsigned>(plan.first_cpu + t));
        shares[t] = drive_share(queries, first, count, port,
                                std::min(plan.sockets_per_thread, count), batch, duration,
                                watch);
      });
    }
    for (auto& worker : workers) worker.join();
  }

  LoadResult result;
  result.seconds = watch.seconds();
  std::vector<double> samples;
  for (auto& share : shares) {
    result.responses += share.responses;
    samples.insert(samples.end(), share.samples.begin(), share.samples.end());
  }
  std::sort(samples.begin(), samples.end());
  result.p50_ms = percentile(samples, 0.50);
  result.p99_ms = percentile(samples, 0.99);
  return result;
}

}  // namespace

int main() {
  const double min_qps = parse_min_qps();
  const double min_speedup = parse_min_speedup();
  const std::size_t listeners = parse_daemon_listeners();
  const std::size_t batch = parse_daemon_batch();
  const double duration = parse_bench_seconds();
  const std::size_t kWindow = parse_window();

  const GeneratorPlan generator = plan_generator(listeners);

  cdn::ServingWorld env(cdn::ServingWorld::graph(2026), 2027);
  std::cout << "Daemon bench: " << listeners << " listener(s), batch " << batch
            << ", " << duration << "s per arm, window " << kWindow << "; generator "
            << generator.threads << " thread(s) x " << generator.sockets_per_thread
            << " socket(s)"
            << (generator.pin ? " from cpu " + std::to_string(generator.first_cpu)
                              : std::string(" sharing the listener cpus"))
            << "...\n\n";

  // Each arm serves a fresh resolver from a UDP-only daemon.
  auto run_arm = [&](dns::DaemonServerConfig config, double seconds,
                     dns::DaemonStats* stats) {
    auto resolver = make_resolver(env);
    config.enable_tcp = false;
    dns::DaemonServer server(resolver.get(), config);
    const LoadResult result =
        run_load(env, server.udp_port(), seconds, kWindow, batch, generator);
    server.stop();
    if (stats != nullptr) *stats = server.stats();
    return result;
  };

  // Arm A: the daemon reduced to the naive shape — one listener thread,
  // one datagram per syscall, no packet cache.
  dns::DaemonServerConfig unbatched_config;
  unbatched_config.listeners = 1;
  unbatched_config.batch = 1;
  unbatched_config.packet_cache_entries = 0;
  const LoadResult unbatched = run_arm(unbatched_config, duration, nullptr);

  // Arm B: the full configuration (batching, listeners, packet cache on).
  dns::DaemonServerConfig full_config;
  full_config.listeners = listeners;
  full_config.batch = batch;
  full_config.pin_threads = listeners > 1;
  dns::DaemonStats daemon_stats;
  const LoadResult daemon = run_arm(full_config, duration, &daemon_stats);

  // Arm B': arm B with the packet cache off — informational, isolating
  // what batching + the event loop buy before the cache kicks in.
  dns::DaemonServerConfig no_pcache_config = full_config;
  no_pcache_config.packet_cache_entries = 0;
  const LoadResult no_pcache = run_arm(no_pcache_config, duration * 0.5, nullptr);

  const double qps_unbatched =
      static_cast<double>(unbatched.responses) / std::max(unbatched.seconds, 1e-9);
  const double qps_daemon =
      static_cast<double>(daemon.responses) / std::max(daemon.seconds, 1e-9);
  const double qps_no_pcache =
      static_cast<double>(no_pcache.responses) / std::max(no_pcache.seconds, 1e-9);
  const double speedup = qps_daemon / std::max(qps_unbatched, 1e-9);
  const std::uint64_t pcache_lookups =
      daemon_stats.pcache_hits + daemon_stats.pcache_misses;
  const double pcache_hit_rate =
      pcache_lookups == 0 ? 0.0
                          : static_cast<double>(daemon_stats.pcache_hits) /
                                static_cast<double>(pcache_lookups);
  const double batch_fill =
      daemon_stats.udp_batches == 0
          ? 0.0
          : static_cast<double>(daemon_stats.udp_queries) /
                static_cast<double>(daemon_stats.udp_batches);

  std::vector<std::vector<std::string>> cells;
  cells.push_back({"unbatched QPS (1 listener, batch 1, no cache)",
                   analysis::fmt(qps_unbatched, 0)});
  cells.push_back({"daemon QPS", analysis::fmt(qps_daemon, 0)});
  cells.push_back({"daemon QPS (packet cache off)", analysis::fmt(qps_no_pcache, 0)});
  cells.push_back({"packet cache hit rate", analysis::fmt(pcache_hit_rate, 3)});
  cells.push_back({"speedup", analysis::fmt(speedup, 2) + "x (need >= " +
                                  analysis::fmt(min_speedup, 2) + "x)"});
  cells.push_back({"daemon p50 latency (ms)", analysis::fmt(daemon.p50_ms, 3)});
  cells.push_back({"daemon p99 latency (ms)", analysis::fmt(daemon.p99_ms, 3)});
  cells.push_back({"recvmmsg batch fill", analysis::fmt(batch_fill, 1)});
  std::cout << analysis::render_table("Daemon serving", {"Metric", "Value"}, cells);

  obs::BenchReport report("daemon");
  report.set_number("qps", qps_daemon);
  report.set_number("qps_unbatched", qps_unbatched);
  report.set_number("speedup", speedup);
  report.set_number("p50_ms", daemon.p50_ms);
  report.set_number("p99_ms", daemon.p99_ms);
  report.set_integer("listeners", static_cast<std::int64_t>(listeners));
  report.set_integer("batch", static_cast<std::int64_t>(batch));
  report.set_integer("queries", static_cast<std::int64_t>(daemon.responses));
  report.set_number("duration_seconds", daemon.seconds);
  report.set_number("qps_packet_cache_off", qps_no_pcache);
  report.set_number("packet_cache_hit_rate", pcache_hit_rate);
  report.set_number("batch_fill", batch_fill);
  report.set_integer("udp_batches", static_cast<std::int64_t>(daemon_stats.udp_batches));
  report.set_number("min_qps", min_qps);
  report.set_number("min_speedup", min_speedup);
  const std::string out = report.default_path();
  report.write_file(out);
  std::cout << "\nwrote " << out << "\n";

  bool failed = false;
  if (qps_daemon < min_qps) {
    std::cout << "FAIL: daemon sustained only " << analysis::fmt(qps_daemon, 0)
              << " QPS (< " << analysis::fmt(min_qps, 0) << ")\n";
    failed = true;
  }
  if (speedup < min_speedup) {
    std::cout << "FAIL: daemon is only " << analysis::fmt(speedup, 2)
              << "x the unbatched arm (< " << analysis::fmt(min_speedup, 2)
              << "x)\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
