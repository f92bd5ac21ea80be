// CdnProvider mapping semantics: persistence, granularity, generics,
// load balancing, anycast.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "cdn/deploy.hpp"
#include "net/error.hpp"
#include "net/rng.hpp"
#include "provider_oracle.hpp"
#include "topology/as_gen.hpp"

namespace drongo::cdn {
namespace {

class ProviderFixture : public ::testing::Test {
 protected:
  ProviderFixture() {
    topology::AsGenConfig as_config;
    as_config.tier1_count = 4;
    as_config.tier2_count = 8;
    as_config.stub_count = 30;
    as_config.seed = 11;
    auto graph = topology::generate_as_graph(as_config);
    net::Rng rng(12);
    plan_ = plan_cdn(graph, google_like(), rng);
    anycast_plan_ = plan_cdn(graph, cdnetworks_like(), rng);
    world_ = std::make_unique<topology::World>(std::move(graph));
    provider_ = std::make_unique<CdnProvider>(deploy_cdn(*world_, plan_));
    anycast_ = std::make_unique<CdnProvider>(deploy_cdn(*world_, anycast_plan_));
    for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
      if (world_->graph().node(v).tier == topology::AsTier::kStub) {
        client_ = world_->add_host(v, topology::HostKind::kClient);
        break;
      }
    }
  }

  CdnPlan plan_;
  CdnPlan anycast_plan_;
  std::unique_ptr<topology::World> world_;
  std::unique_ptr<CdnProvider> provider_;
  std::unique_ptr<CdnProvider> anycast_;
  net::Ipv4Addr client_;
};

TEST_F(ProviderFixture, DeploymentMatchesProfile) {
  EXPECT_EQ(provider_->clusters().size(),
            static_cast<std::size_t>(provider_->profile().cluster_count));
  for (const auto& cluster : provider_->clusters()) {
    EXPECT_EQ(cluster.replicas.size(),
              static_cast<std::size_t>(provider_->profile().replicas_per_cluster));
    for (auto replica : cluster.replicas) {
      EXPECT_TRUE(world_->is_host(replica));
      EXPECT_EQ(world_->host(replica).as_index, provider_->as_index());
    }
  }
  EXPECT_TRUE(provider_->vips().empty());
  EXPECT_EQ(anycast_->vips().size(),
            static_cast<std::size_t>(anycast_->profile().anycast_vips));
}

TEST_F(ProviderFixture, SelectReturnsRequestedSetSize) {
  const net::Prefix subnet(client_, 24);
  const auto set = provider_->select_replicas(subnet);
  EXPECT_EQ(set.size(), static_cast<std::size_t>(provider_->profile().replica_set_size));
}

TEST_F(ProviderFixture, MappingIsPersistentAcrossQueries) {
  const net::Prefix subnet(client_, 24);
  const int first = provider_->mapped_cluster(subnet);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(provider_->mapped_cluster(subnet), first);
  }
}

TEST_F(ProviderFixture, MappingKeyHonorsGranularity) {
  CdnProfile coarse = provider_->profile();
  EXPECT_EQ(provider_->mapping_key(net::Prefix::must_parse("20.1.36.0/24")).length(),
            coarse.mapping_granularity);
  // A /16 query subnet is not narrowed.
  EXPECT_EQ(provider_->mapping_key(net::Prefix::must_parse("20.1.0.0/16")).length(), 16);
}

TEST_F(ProviderFixture, EyeballSubnetsAreMappedMoreOftenThanRouterSubnets) {
  int eyeball_mapped = 0;
  int eyeball_total = 0;
  int router_mapped = 0;
  int router_total = 0;
  for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
    const auto block = world_->block_of(v);
    const net::Prefix router24(block.network(), 24);  // pop 0 core router /24
    if (world_->subnet_kind(router24) == topology::SubnetKind::kRouter) {
      ++router_total;
      if (provider_->is_mapped(router24)) ++router_mapped;
    }
    const net::Prefix host24(net::Ipv4Addr(block.network().to_uint() | (40u << 8)), 24);
    if (world_->subnet_kind(host24) == topology::SubnetKind::kHost) {
      ++eyeball_total;
      if (provider_->is_mapped(host24)) ++eyeball_mapped;
    }
  }
  ASSERT_GT(router_total, 10);
  ASSERT_GT(eyeball_total, 10);
  const double eyeball_rate = double(eyeball_mapped) / eyeball_total;
  const double router_rate = double(router_mapped) / router_total;
  EXPECT_GT(eyeball_rate, 0.85);
  EXPECT_GT(eyeball_rate, router_rate);
}

TEST_F(ProviderFixture, UnknownSpaceGetsGenericAnswers) {
  const auto subnet = net::Prefix::must_parse("192.168.1.0/24");
  EXPECT_FALSE(provider_->is_mapped(subnet));
  EXPECT_EQ(provider_->mapped_cluster(subnet), -1);
  // Generic answers still return replicas (never an error)...
  const auto set = provider_->select_replicas(subnet);
  EXPECT_FALSE(set.empty());
  // ...and rotate across queries (unstable, per the paper's [47] citation).
  std::set<net::Ipv4Addr> seen;
  for (int i = 0; i < 30; ++i) {
    for (auto addr : provider_->select_replicas(subnet)) seen.insert(addr);
  }
  EXPECT_GT(seen.size(), provider_->profile().replica_set_size * 2u);
}

TEST_F(ProviderFixture, LoadBalancingRotatesFirstReplica) {
  const net::Prefix subnet(client_, 24);
  std::set<net::Ipv4Addr> firsts;
  for (int i = 0; i < 30; ++i) {
    firsts.insert(provider_->select_replicas(subnet).front());
  }
  // The first replica varies across queries (rotation), so a client that
  // cherry-picked could beat the CDN's balancing — Drongo must not.
  EXPECT_GT(firsts.size(), 1u);
}

TEST_F(ProviderFixture, AnycastReturnsVips) {
  const net::Prefix subnet(client_, 24);
  const auto set = anycast_->select_replicas(subnet);
  ASSERT_FALSE(set.empty());
  for (auto addr : set) {
    EXPECT_TRUE(world_->is_anycast(addr));
  }
}

TEST_F(ProviderFixture, AnycastLatencyIsSubnetInsensitive) {
  // Whatever VIP any subnet is given, the measured latency from the client
  // is near the best front: max/min across many subnets stays small
  // relative to unicast spread.
  std::vector<double> rtts;
  for (int i = 0; i < 8; ++i) {
    const net::Prefix subnet(net::Ipv4Addr(world_->block_of(5).network().to_uint() |
                                           ((40u + i) << 8)),
                             24);
    const auto set = anycast_->select_replicas(subnet);
    rtts.push_back(world_->rtt_base_ms(client_, set.front()));
  }
  const auto [lo, hi] = std::minmax_element(rtts.begin(), rtts.end());
  EXPECT_LT(*hi / *lo, 3.0);
}

TEST_F(ProviderFixture, ConstructorValidation) {
  EXPECT_THROW(CdnProvider(google_like(), nullptr, 0, {CdnCluster{}}, {}),
               net::InvalidArgument);
  EXPECT_THROW(CdnProvider(google_like(), world_.get(), 0, {}, {}),
               net::InvalidArgument);
  CdnProfile anycast_profile = cdnetworks_like();
  EXPECT_THROW(CdnProvider(anycast_profile, world_.get(), 0, {CdnCluster{}}, {}),
               net::InvalidArgument);
}

TEST_F(ProviderFixture, ConstructorRejectsMoreClustersThanTheTableEncodes) {
  CdnProfile profile = google_like();
  EXPECT_THROW(CdnProvider(profile, world_.get(), 0,
                           std::vector<CdnCluster>(CdnProvider::kMaxClusters + 1), {}),
               net::InvalidArgument);
  const CdnProvider widest(profile, world_.get(), 0,
                           std::vector<CdnCluster>(CdnProvider::kMaxClusters), {});
  EXPECT_EQ(widest.clusters().size(), 4094u);
}

// ---- Mapping table vs the table-less reference ----------------------------

/// One ECS query: the subnet the CDN tailors to and the query id.
struct MappingQuery {
  net::Prefix subnet;
  std::uint64_t nonce = 0;
};

class MappingTableFixture : public ::testing::Test {
 protected:
  MappingTableFixture() {
    topology::AsGenConfig as_config;
    as_config.tier1_count = 4;
    as_config.tier2_count = 8;
    as_config.stub_count = 30;
    as_config.seed = 23;
    auto graph = topology::generate_as_graph(as_config);
    net::Rng rng(24);
    CdnProfile coarse = cubecdn_like();
    coarse.name = "Coarse";
    coarse.mapping_granularity = 20;
    coarse.seed = 707;
    const std::vector<CdnPlan> plans = {plan_cdn(graph, cloudfront_like(), rng),
                                        plan_cdn(graph, coarse, rng),
                                        plan_cdn(graph, cdnetworks_like(), rng)};
    world_ = std::make_unique<topology::World>(std::move(graph));
    for (const auto& plan : plans) {
      providers_.push_back(std::make_unique<CdnProvider>(deploy_cdn(*world_, plan)));
    }
    // A populated world: host /24s whose representative exists, so the
    // CDN's routed measurement (not only geography) shapes the ranking.
    for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
      for (int i = 0; i < 4; ++i) world_->add_host(v, topology::HostKind::kClient);
    }
  }

  /// Seeded queries over /16, /20 and /24 ECS lengths: every AS block of
  /// the plan (router, host and unallocated /24s) plus space outside it.
  [[nodiscard]] std::vector<MappingQuery> draw_queries(std::uint64_t seed,
                                                       std::size_t count) const {
    net::Rng rng = net::Rng::derive(seed, 0xCD17);
    constexpr int kLengths[] = {16, 20, 24};
    std::vector<MappingQuery> queries;
    queries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t address = 0;
      if (rng.chance(0.05)) {
        address = static_cast<std::uint32_t>(rng.next_u64());
      } else {
        const auto block = world_->block_of(rng.index(world_->graph().node_count()));
        address = block.network().to_uint() | static_cast<std::uint32_t>(rng.uniform(1u << 16));
      }
      queries.push_back({net::Prefix(net::Ipv4Addr(address), kLengths[rng.index(3)]),
                         rng.next_u64()});
    }
    return queries;
  }

  std::unique_ptr<topology::World> world_;
  std::vector<std::unique_ptr<CdnProvider>> providers_;
};

TEST_F(MappingTableFixture, AnswersMatchTheReferenceThroughEvictions) {
  const auto queries = draw_queries(1, 20'000);
  for (const auto& provider : providers_) {
    SCOPED_TRACE(provider->profile().name);
    const provider_oracle::ReferenceProvider reference(*provider, *world_);
    std::set<net::Prefix> keys;
    std::size_t mapped = 0;
    std::size_t unmapped = 0;
    for (const auto& q : queries) {
      keys.insert(provider->mapping_key(q.subnet));
      const int cluster = reference.mapped_cluster(q.subnet);
      (cluster < 0 ? unmapped : mapped) += 1;
      ASSERT_EQ(provider->mapped_cluster(q.subnet), cluster) << q.subnet.to_string();
      ASSERT_EQ(provider->select_replicas(q.subnet, q.nonce),
                reference.select_replicas(q.subnet, q.nonce))
          << q.subnet.to_string() << " nonce " << q.nonce;
    }
    if (!provider->profile().anycast) {
      EXPECT_GT(mapped, 5'000u);
      EXPECT_GT(unmapped, 1'000u);
    }
    // More /24 keys than slots: the early keys' slots have been overwritten.
    if (provider->profile().mapping_granularity == 24) {
      EXPECT_GT(keys.size(), 4'096u);
    }
    for (std::size_t i = 0; i < 3'000; ++i) {
      const auto& q = queries[i];
      ASSERT_EQ(provider->select_replicas(q.subnet, q.nonce + 1),
                reference.select_replicas(q.subnet, q.nonce + 1))
          << "re-query of " << q.subnet.to_string();
    }
  }
}

TEST_F(MappingTableFixture, CounterRotationMatchesTheReference) {
  const auto queries = draw_queries(2, 6'000);
  for (const auto& provider : providers_) {
    SCOPED_TRACE(provider->profile().name);
    const provider_oracle::ReferenceProvider reference(*provider, *world_);
    for (const auto& q : queries) {
      const std::uint64_t rotation = provider->query_count();
      ASSERT_EQ(provider->select_replicas(q.subnet),
                reference.select_with_rotation(q.subnet, rotation))
          << q.subnet.to_string();
    }
  }
}

TEST_F(MappingTableFixture, HostsAddedAfterAQueryAreSeen) {
  // Setup may keep growing the world after a provider has answered; the
  // table must not keep serving a /24 as it looked before its host existed.
  CdnProvider& provider = *providers_[0];
  const provider_oracle::ReferenceProvider reference(provider, *world_);
  std::size_t changed = 0;
  for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
    // Hosts are allocated in order, so the next one lands in the first host
    // /24 of the block that has none yet.
    net::Prefix next;
    for (std::uint32_t third = 32; third < 256 && next.length() == 0; ++third) {
      const net::Ipv4Addr probe(world_->block_of(v).network().to_uint() | (third << 8) | 10u);
      if (!world_->is_host(probe)) next = net::Prefix(probe, 24);
    }
    ASSERT_EQ(next.length(), 24);
    const int before = reference.mapped_cluster(next);
    ASSERT_EQ(provider.select_replicas(next, v), reference.select_replicas(next, v));
    ASSERT_EQ(world_->add_host(v, topology::HostKind::kClient).to_uint() & ~0xFFu,
              next.network().to_uint());
    if (reference.mapped_cluster(next) != before) ++changed;
    for (std::uint64_t nonce = 0; nonce < 40; ++nonce) {
      ASSERT_EQ(provider.select_replicas(next, nonce), reference.select_replicas(next, nonce))
          << next.to_string();
    }
  }
  EXPECT_GT(changed, 0u);
}

TEST_F(MappingTableFixture, ConcurrentQueriesMatchTheReference) {
  // Four threads walk the same queries from different starting points, so
  // they race on the same slots (misses, overwrites, torn-free reads).
  const auto queries = draw_queries(3, 8'000);
  for (std::size_t p = 0; p < 2; ++p) {  // the two unicast providers
    const auto& provider = providers_[p];
    SCOPED_TRACE(provider->profile().name);
    const provider_oracle::ReferenceProvider reference(*provider, *world_);
    std::vector<std::vector<net::Ipv4Addr>> expected;
    expected.reserve(queries.size());
    for (const auto& q : queries) expected.push_back(reference.select_replicas(q.subnet, q.nonce));

    constexpr std::size_t kThreads = 4;
    std::vector<std::size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t k = (i + t * queries.size() / kThreads) % queries.size();
          const auto& q = queries[k];
          if (provider->select_replicas(q.subnet, q.nonce) != expected[k]) ++mismatches[t];
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

TEST(ProfileTest, PaperProvidersAreTheSix) {
  const auto profiles = paper_providers();
  ASSERT_EQ(profiles.size(), 6u);
  EXPECT_EQ(profiles[0].name, "Google");
  EXPECT_EQ(profiles[1].name, "CloudFront");
  EXPECT_EQ(profiles[2].name, "Alibaba");
  EXPECT_EQ(profiles[3].name, "CDNetworks");
  EXPECT_EQ(profiles[4].name, "ChinaNetCtr");
  EXPECT_EQ(profiles[5].name, "CubeCDN");
  EXPECT_TRUE(profiles[3].anycast);
  for (const auto& p : profiles) {
    EXPECT_FALSE(p.zone.empty());
    EXPECT_GT(p.cluster_count, 0);
    EXPECT_FALSE(p.ecs_restricted) << p.name << " must support unrestricted ECS";
  }
  EXPECT_TRUE(akamai_like_restricted().ecs_restricted);
}

}  // namespace
}  // namespace drongo::cdn
