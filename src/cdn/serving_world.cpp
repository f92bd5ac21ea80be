#include "cdn/serving_world.hpp"

#include "cdn/deploy.hpp"
#include "net/error.hpp"

namespace drongo::cdn {

ServingWorld::ServingWorld(topology::AsGenConfig as_config, std::uint64_t plan_seed) {
  auto graph = topology::generate_as_graph(as_config);
  net::Rng rng(plan_seed);
  const auto plan = plan_cdn(graph, google_like(), rng);
  world = std::make_unique<topology::World>(std::move(graph));
  provider = std::make_unique<CdnProvider>(deploy_cdn(*world, plan));
  auth = std::make_unique<CdnAuthoritative>(provider.get());
  auth_address = world->add_host(provider->as_index(), topology::HostKind::kServer, 0);
  network.register_server(auth_address, auth.get());

  std::size_t t1 = 0;
  for (std::size_t v = 0; v < world->graph().node_count(); ++v) {
    if (world->graph().node(v).tier == topology::AsTier::kTier1) {
      t1 = v;
      break;
    }
  }
  resolver_address = world->add_host(t1, topology::HostKind::kServer, 0);
}

topology::AsGenConfig ServingWorld::graph(std::uint64_t seed) {
  topology::AsGenConfig config;
  config.tier1_count = 4;
  config.tier2_count = 8;
  config.stub_count = 30;
  config.seed = seed;
  return config;
}

net::Ipv4Addr ServingWorld::add_stub_client() {
  for (std::size_t v = 0; v < world->graph().node_count(); ++v) {
    if (world->graph().node(v).tier == topology::AsTier::kStub) {
      return world->add_host(v, topology::HostKind::kClient);
    }
  }
  throw net::InvalidArgument("serving world has no stub AS");
}

std::unique_ptr<PublicResolver> ServingWorld::make_resolver(const ServingConfig& serving,
                                                            dns::DnsTransport* upstream) {
  auto resolver = std::make_unique<PublicResolver>(
      upstream != nullptr ? upstream : &network, resolver_address, serving);
  resolver->register_zone(dns::DnsName::must_parse(provider->profile().zone),
                          auth_address);
  // Frozen before any socket traffic: set_time_ms is setup-phase only and
  // must never race concurrent handle() calls from listener threads.
  resolver->set_time_ms(0);
  return resolver;
}

}  // namespace drongo::cdn
