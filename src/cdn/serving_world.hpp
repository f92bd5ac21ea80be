// The one-CDN serving world that drongo_daemond's demo mode, the serving
// benches and the serving tests share.
#pragma once

#include <cstdint>
#include <memory>

#include "cdn/authoritative.hpp"
#include "cdn/provider.hpp"
#include "cdn/resolver.hpp"
#include "dns/inmemory.hpp"
#include "topology/as_gen.hpp"

namespace drongo::cdn {

/// One google_like CDN in a seeded world: its authoritative is registered
/// on the in-memory DNS fabric, and a host for a public resolver sits in
/// the first tier-1 AS. Hosts are added in a fixed order (authoritative,
/// resolver, then any add_stub_client), so one config and seed always give
/// the same addresses. Resolvers from make_resolver point at `network`, so
/// the world must outlive them.
struct ServingWorld {
  ServingWorld(topology::AsGenConfig as_config, std::uint64_t plan_seed);

  /// The 42-AS graph (4 tier-1, 8 tier-2, 30 stubs) seeded with `seed`.
  static topology::AsGenConfig graph(std::uint64_t seed);

  /// Adds a client host in the first stub AS and returns its address.
  net::Ipv4Addr add_stub_client();

  /// A resolver at resolver_address, forwarding over `upstream` (the
  /// fabric when null), with the CDN's zone registered and its serving
  /// clock frozen at 0. It is not registered on the fabric.
  std::unique_ptr<PublicResolver> make_resolver(const ServingConfig& serving,
                                                dns::DnsTransport* upstream = nullptr);

  std::unique_ptr<topology::World> world;
  std::unique_ptr<CdnProvider> provider;
  std::unique_ptr<CdnAuthoritative> auth;
  dns::InMemoryDnsNetwork network;
  net::Ipv4Addr auth_address;
  net::Ipv4Addr resolver_address;
};

}  // namespace drongo::cdn
