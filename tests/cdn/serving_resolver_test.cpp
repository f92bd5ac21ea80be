// PublicResolver serving path: sharded scoped cache, negative caching, and
// singleflight coalescing under concurrent identical queries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "cdn/serving_world.hpp"
#include "dns/stub_resolver.hpp"
#include "obs/metrics.hpp"

namespace drongo {
namespace {

/// Transport decorator that makes every upstream exchange take real wall
/// time, widening the window in which concurrent misses pile onto one
/// flight — the situation coalescing exists for.
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

class ServingResolverFixture : public ::testing::Test {
 protected:
  ServingResolverFixture()
      : env_(cdn::ServingWorld::graph(331), 332),
        slow_(&env_.network),
        client_(env_.add_stub_client()) {}

  /// Builds the resolver under test and registers it on the fabric; `slow`
  /// routes its upstream exchanges through the wall-clock delay decorator.
  cdn::PublicResolver& make_resolver(const cdn::ServingConfig& serving,
                                     bool slow = false) {
    resolver_ = env_.make_resolver(serving, slow ? &slow_ : nullptr);
    env_.network.register_server(env_.resolver_address, resolver_.get());
    return *resolver_;
  }

  dns::DnsName content_name() const {
    return dns::DnsName::must_parse("img." + env_.provider->profile().zone);
  }

  cdn::ServingWorld env_;
  SlowTransport slow_;
  net::Ipv4Addr client_;
  std::unique_ptr<cdn::PublicResolver> resolver_;
};

TEST_F(ServingResolverFixture, ShardedCacheStillRespectsEcsScope) {
  cdn::ServingConfig serving;
  serving.enable_cache = true;
  serving.shards = 4;
  serving.coalesce = true;
  auto& resolver = make_resolver(serving);
  resolver.set_time_ms(0);
  dns::StubResolver stub(&env_.network, client_, env_.resolver_address, 5);

  const auto own = stub.resolve_with_own_subnet(content_name());
  ASSERT_TRUE(own.ok());
  const auto after_first = resolver.upstream_queries();
  EXPECT_GE(after_first, 1u);

  // Same subnet again: served from cache, no new upstream work.
  const auto own_again = stub.resolve_with_own_subnet(content_name());
  ASSERT_TRUE(own_again.ok());
  EXPECT_EQ(resolver.upstream_queries(), after_first);
  EXPECT_EQ(own_again.addresses, own.addresses);

  // A faraway assimilated subnet must not reuse the scoped entry.
  const auto foreign = net::Prefix(
      net::Ipv4Addr(env_.world->block_of(9).network().to_uint() | (40u << 8)), 24);
  const auto assimilated = stub.resolve(content_name(), foreign);
  ASSERT_TRUE(assimilated.ok());
  EXPECT_GT(resolver.upstream_queries(), after_first);
}

TEST_F(ServingResolverFixture, NegativeAnswersAreCached) {
  cdn::ServingConfig serving;
  serving.enable_cache = true;
  serving.shards = 4;
  auto& resolver = make_resolver(serving);
  resolver.set_time_ms(0);
  dns::StubResolver stub(&env_.network, client_, env_.resolver_address, 5);
  const auto missing =
      dns::DnsName::must_parse("no-such-label." + env_.provider->profile().zone);

  const auto first = stub.resolve(missing);
  EXPECT_TRUE(first.name_error());
  const auto after_first = resolver.upstream_queries();

  // Second query is answered from the negative cache: still NXDOMAIN, no
  // upstream exchange.
  const auto second = stub.resolve(missing);
  EXPECT_TRUE(second.name_error());
  EXPECT_EQ(resolver.upstream_queries(), after_first);
  EXPECT_GE(resolver.cache_stats().negative_hits, 1u);
  EXPECT_GE(resolver.cache_stats().negative_inserts, 1u);

  // Past the negative TTL the resolver asks upstream again.
  resolver.set_time_ms(serving.negative_ttl_seconds * 1000ull);
  const auto third = stub.resolve(missing);
  EXPECT_TRUE(third.name_error());
  EXPECT_GT(resolver.upstream_queries(), after_first);
}

TEST_F(ServingResolverFixture, NegativeCachingCanBeDisabled) {
  cdn::ServingConfig serving;
  serving.enable_cache = true;
  serving.negative_cache = false;
  auto& resolver = make_resolver(serving);
  resolver.set_time_ms(0);
  dns::StubResolver stub(&env_.network, client_, env_.resolver_address, 5);
  const auto missing =
      dns::DnsName::must_parse("no-such-label." + env_.provider->profile().zone);

  EXPECT_TRUE(stub.resolve(missing).name_error());
  const auto after_first = resolver.upstream_queries();
  EXPECT_TRUE(stub.resolve(missing).name_error());
  EXPECT_GT(resolver.upstream_queries(), after_first);
}

TEST_F(ServingResolverFixture, ConcurrentIdenticalQueriesCoalesce) {
  cdn::ServingConfig serving;
  serving.enable_cache = true;
  serving.shards = 8;
  serving.coalesce = true;
  auto& resolver = make_resolver(serving, /*slow=*/true);
  resolver.set_time_ms(0);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> answered{0};
  const auto query =
      dns::Message::make_query(77, content_name(), net::Prefix(client_, 24));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const auto response = resolver.handle(query, client_);
      if (response.header.rcode == dns::Rcode::kNoError &&
          !response.answer_addresses().empty()) {
        answered.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(answered.load(), kThreads);
  // Without coalescing every thread misses the cold cache and goes
  // upstream (kThreads exchanges, CNAME hops aside). With it, concurrent
  // misses share a flight: strictly fewer upstream queries than clients.
  EXPECT_LT(resolver.upstream_queries(), static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(resolver.cache_stats().coalesced, 1u);
  EXPECT_GE(resolver.cache_stats().coalesce_leaders, 1u);
}

TEST_F(ServingResolverFixture, ServingMetricsReachTheRegistry) {
  obs::Registry registry;
  cdn::ServingConfig serving;
  serving.enable_cache = true;
  serving.shards = 4;
  auto& resolver = make_resolver(serving);
  resolver.set_registry(&registry);
  resolver.set_time_ms(0);
  dns::StubResolver stub(&env_.network, client_, env_.resolver_address, 5);

  ASSERT_TRUE(stub.resolve_with_own_subnet(content_name()).ok());
  ASSERT_TRUE(stub.resolve_with_own_subnet(content_name()).ok());

  const auto snapshot = registry.snapshot();
  EXPECT_GE(snapshot.counters.at("dns.cache.misses"), 1u);
  EXPECT_GE(snapshot.counters.at("dns.cache.hits"), 1u);
  EXPECT_GE(snapshot.counters.at("dns.cache.inserts"), 1u);
  EXPECT_GE(snapshot.counters.at("cdn.resolver.upstream_queries"), 1u);
}

}  // namespace
}  // namespace drongo
