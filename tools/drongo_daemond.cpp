// drongo_daemond: the socket-facing DNS daemon as a standalone process.
//
// Wraps dns::DaemonServer (src/dns/daemon_server.hpp) around one of two
// backends and runs until SIGTERM/SIGINT (graceful drain) or an optional
// wall-clock bound:
//
//   - DRONGO_DAEMON_ZONEFILE set: a dns::StaticZoneServer over the parsed
//     master file — a plain authoritative you can point `dig` at.
//   - otherwise: the built-in demo world — a seeded AS topology with a
//     google_like CDN behind cdn::PublicResolver (sharded cache,
//     coalescing, the full serving path), the same backend the daemon
//     bench drives.
//
// Every knob is a DRONGO_DAEMON_* environment variable and every knob
// fails loudly on garbage — a typo'd value must never silently run a
// different server. The bound ports are printed on stdout (`udp port N` /
// `tcp port N`) so scripts and tests can discover ephemeral binds, and the
// final `dns.server.*` counter snapshot is printed at exit.
#include <signal.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "cdn/serving_world.hpp"
#include "dns/daemon_server.hpp"
#include "dns/zonefile.hpp"
#include "net/error.hpp"
#include "obs/metrics.hpp"

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

bool parse_env_bool(const char* name, const char* value, bool fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  const std::string v(value);
  if (v == "0" || v == "false") return false;
  if (v == "1" || v == "true") return true;
  throw net::InvalidArgument(std::string(name) + " must be 0/1/true/false, got '" +
                             value + "'");
}

std::uint16_t parse_port(const char* name, const char* value) {
  return static_cast<std::uint16_t>(parse_env_long(name, value, 0, 0));
}

std::string parse_env_path(const char* value) {
  return value == nullptr ? std::string() : std::string(value);
}

dns::DaemonServerConfig config_from_env() {
  dns::DaemonServerConfig config;
  config.udp_port = parse_port("DRONGO_DAEMON_PORT", std::getenv("DRONGO_DAEMON_PORT"));
  config.tcp_port =
      parse_port("DRONGO_DAEMON_TCP_PORT", std::getenv("DRONGO_DAEMON_TCP_PORT"));
  const long listeners = parse_env_long("DRONGO_DAEMON_LISTENERS",
                                        std::getenv("DRONGO_DAEMON_LISTENERS"), 0, 0);
  if (listeners > 0) {
    config.listeners = static_cast<std::size_t>(listeners);
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    config.listeners = hw == 0 ? 1 : hw;
  }
  config.batch = static_cast<std::size_t>(
      parse_env_long("DRONGO_DAEMON_BATCH", std::getenv("DRONGO_DAEMON_BATCH"), 64, 1));
  config.enable_tcp =
      parse_env_bool("DRONGO_DAEMON_TCP", std::getenv("DRONGO_DAEMON_TCP"), true);
  config.pin_threads =
      parse_env_bool("DRONGO_DAEMON_PIN", std::getenv("DRONGO_DAEMON_PIN"), false);
  config.dual_stack = parse_env_bool("DRONGO_DAEMON_DUAL_STACK",
                                     std::getenv("DRONGO_DAEMON_DUAL_STACK"), false);
  config.packet_cache_entries = static_cast<std::size_t>(parse_env_long(
      "DRONGO_DAEMON_PCACHE", std::getenv("DRONGO_DAEMON_PCACHE"), 8192, 0));
  config.packet_cache_ttl_ms = static_cast<std::uint32_t>(parse_env_long(
      "DRONGO_DAEMON_PCACHE_TTL_MS", std::getenv("DRONGO_DAEMON_PCACHE_TTL_MS"), 1000, 1));
  return config;
}

// ---- Backends --------------------------------------------------------------

std::unique_ptr<dns::StaticZoneServer> load_zone(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw net::InvalidArgument("DRONGO_DAEMON_ZONEFILE: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto zone = dns::parse_zone_text(text.str(), dns::DnsName());
  return std::make_unique<dns::StaticZoneServer>(std::move(zone));
}

int run() {
  const auto config = config_from_env();
  const std::string zonefile = parse_env_path(std::getenv("DRONGO_DAEMON_ZONEFILE"));
  const long duration_ms = parse_env_long("DRONGO_DAEMON_DURATION_MS",
                                          std::getenv("DRONGO_DAEMON_DURATION_MS"), 0, 0);
  const std::size_t shards = static_cast<std::size_t>(parse_env_long(
      "DRONGO_DAEMON_SHARDS", std::getenv("DRONGO_DAEMON_SHARDS"), 8, 1));
  const bool coalesce =
      parse_env_bool("DRONGO_DAEMON_COALESCE", std::getenv("DRONGO_DAEMON_COALESCE"), true);

  // Block the shutdown signals BEFORE the daemon spawns listener threads so
  // every thread inherits the mask and sigwait() below is the only consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    throw net::Error("pthread_sigmask failed");
  }

  // The demo world is the daemon bench's: same seeds, same addresses, so
  // `drongo_daemond` with no zone file serves ECS-tailored answers.
  std::unique_ptr<cdn::ServingWorld> demo;
  std::unique_ptr<cdn::PublicResolver> resolver;
  std::unique_ptr<dns::StaticZoneServer> zone_server;
  dns::DnsServer* handler = nullptr;
  if (!zonefile.empty()) {
    zone_server = load_zone(zonefile);
    handler = zone_server.get();
    std::cout << "drongo_daemond: serving zone file " << zonefile << " ("
              << zone_server->zone().records.size() << " records)\n";
  } else {
    demo = std::make_unique<cdn::ServingWorld>(cdn::ServingWorld::graph(2026), 2027);
    cdn::ServingConfig serving;
    serving.enable_cache = true;
    serving.shards = shards;
    serving.coalesce = coalesce;
    resolver = demo->make_resolver(serving);
    handler = resolver.get();
    std::cout << "drongo_daemond: serving demo CDN world (zone "
              << demo->provider->profile().zone << ")\n";
  }

  obs::Registry registry;
  dns::DaemonServer daemon(handler, config, net::Ipv4Addr(127, 0, 0, 1), &registry);
  std::cout << "udp port " << daemon.udp_port() << "\n";
  std::cout << "tcp port " << daemon.tcp_port() << "\n";
  std::cout << "listeners " << config.listeners << " batch " << config.batch
            << " pcache " << config.packet_cache_entries << " dual_stack "
            << (config.dual_stack ? 1 : 0) << std::endl;

  // Wait for SIGTERM/SIGINT — or, with DRONGO_DAEMON_DURATION_MS, for the
  // clock (smoke tests set it so the daemon exits without a supervisor).
  if (duration_ms > 0) {
    timespec deadline{duration_ms / 1000, (duration_ms % 1000) * 1'000'000};
    const int sig = sigtimedwait(&mask, nullptr, &deadline);
    if (sig > 0) std::cout << "drongo_daemond: signal " << sig << ", draining\n";
  } else {
    int sig = 0;
    sigwait(&mask, &sig);
    std::cout << "drongo_daemond: signal " << sig << ", draining\n";
  }
  daemon.stop();

  const auto stats = daemon.stats();
#define DRONGO_DAEMOND_PRINT_FIELD(field) \
  std::cout << "dns.server." #field " " << stats.field << "\n";
  DRONGO_OBS_DNS_SERVER_COUNTERS(DRONGO_DAEMOND_PRINT_FIELD)
#undef DRONGO_DAEMOND_PRINT_FIELD
  std::cout << "served " << daemon.served() << std::endl;
  return 0;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::cerr << "drongo_daemond: " << e.what() << "\n";
    return 1;
  }
}
