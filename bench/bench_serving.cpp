// Serving-path bench: does singleflight coalescing actually collapse a
// thundering herd?
//
// W waves of T clients ask for the same hot name with the same ECS subnet,
// each wave starting from an expired cache (a hot name's TTL lapsing is
// exactly when the herd stampedes). Upstream exchanges are counted with
// coalescing off, then on; the ratio is the headline `coalesce_factor` and
// the bench FAILS (exit 1) below 2x.
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/render.hpp"
#include "cdn/serving_world.hpp"
#include "obs/bench_report.hpp"

using namespace drongo;

namespace {

constexpr int kThreads = 8;
constexpr int kWaves = 12;

/// Transport decorator adding real wall time to every upstream exchange, so
/// a wave's misses genuinely overlap (the in-memory fabric alone is too
/// fast to ever produce a herd).
class SlowTransport : public dns::DnsTransport {
 public:
  explicit SlowTransport(dns::DnsTransport* inner) : inner_(inner) {}

  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return inner_->exchange(source, destination, query);
  }

 private:
  dns::DnsTransport* inner_;
};

/// W waves x T threads of one hot (qname, subnet); every wave starts past
/// the previous answers' TTL. Returns upstream exchange count.
std::uint64_t run_herd(cdn::ServingWorld& env, net::Ipv4Addr client, bool coalesce) {
  cdn::ServingConfig serving;
  serving.enable_cache = true;
  serving.shards = 8;
  serving.coalesce = coalesce;
  SlowTransport slow(&env.network);
  auto resolver = env.make_resolver(serving, &slow);
  const auto hot =
      dns::DnsName::must_parse("img." + env.provider->profile().zone);
  const auto query = dns::Message::make_query(7, hot, net::Prefix(client, 24));

  for (int wave = 0; wave < kWaves; ++wave) {
    // One simulated hour per wave: far past any answer TTL, so every wave
    // sees a cold cache and the whole wave's queries miss together.
    resolver->set_time_ms(static_cast<std::uint64_t>(wave) * 3'600'000ull);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        (void)resolver->handle(query, client);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  return resolver->upstream_queries();
}

}  // namespace

int main() {
  cdn::ServingWorld env(cdn::ServingWorld::graph(2026), 2027);
  const net::Ipv4Addr client = env.add_stub_client();
  std::cout << "Serving-path bench: " << kThreads << " clients, " << kWaves
            << " cold-cache waves on one hot name...\n\n";

  const std::uint64_t upstream_uncoalesced = run_herd(env, client, /*coalesce=*/false);
  const std::uint64_t upstream_coalesced = run_herd(env, client, /*coalesce=*/true);
  const double factor = static_cast<double>(upstream_uncoalesced) /
                        static_cast<double>(std::max<std::uint64_t>(upstream_coalesced, 1));

  std::vector<std::vector<std::string>> cells;
  cells.push_back({"upstream exchanges, coalescing off",
                   std::to_string(upstream_uncoalesced)});
  cells.push_back({"upstream exchanges, coalescing on",
                   std::to_string(upstream_coalesced)});
  cells.push_back({"coalesce factor", analysis::fmt(factor, 2) + "x (need >= 2x)"});
  std::cout << analysis::render_table("Serving path", {"Metric", "Value"}, cells);

  obs::BenchReport report("serving");
  report.set_integer("threads", kThreads);
  report.set_integer("waves", kWaves);
  report.set_integer("upstream_uncoalesced",
                     static_cast<std::int64_t>(upstream_uncoalesced));
  report.set_integer("upstream_coalesced",
                     static_cast<std::int64_t>(upstream_coalesced));
  report.set_number("coalesce_factor", factor);
  const std::string out = report.default_path();
  report.write_file(out);
  std::cout << "\nwrote " << out << "\n";

  if (factor < 2.0) {
    std::cout << "FAIL: coalescing cut upstream exchanges by only "
              << analysis::fmt(factor, 2) << "x (< 2x)\n";
    return 1;
  }
  return 0;
}
