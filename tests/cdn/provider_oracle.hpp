// Reference model for the CDN mapping table's differential tests: the
// table-less replica selection CdnProvider used before it cached each key's
// (persistent cluster, spill runner-up) pair. Every query re-derives the
// whole mapping from the profile, the clusters and the world.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "cdn/provider.hpp"
#include "net/error.hpp"
#include "topology/world.hpp"

namespace drongo::cdn::provider_oracle {

inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

inline std::uint64_t hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix(a * 0x9E3779B97F4A7C15ULL ^ mix(b) ^ mix(c * 0xFF51AFD7ED558CCDULL + 1));
}

inline double hash01(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

inline double hash_normal(std::uint64_t h) {
  const double u1 = hash01(mix(h)) + 1e-12;
  const double u2 = hash01(mix(h ^ 0xDEADBEEFCAFEF00DULL));
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// The reference provider: reads only the provider's configuration
/// (profile, clusters, VIPs) and recomputes every answer from scratch.
class ReferenceProvider {
 public:
  ReferenceProvider(const CdnProvider& provider, topology::World& world)
      : profile_(provider.profile()),
        clusters_(provider.clusters()),
        vips_(provider.vips()),
        world_(world) {}

  [[nodiscard]] net::Prefix mapping_key(const net::Prefix& subnet) const {
    return subnet.truncated(std::min(profile_.mapping_granularity, subnet.length()));
  }

  [[nodiscard]] bool is_mapped(const net::Prefix& subnet) const {
    const net::Prefix key = mapping_key(subnet);
    const net::Prefix probe(key.network(), 24);
    const auto location = world_.subnet_location(probe);
    if (!location) return false;
    const bool eyeball = world_.subnet_kind(probe) == topology::SubnetKind::kHost;
    const double base = eyeball ? profile_.mapped_fraction_eyeball : profile_.mapped_fraction;
    double nearest_ms = 1e18;
    for (const auto& c : clusters_) {
      nearest_ms = std::min(nearest_ms, topology::propagation_ms(*location, c.location));
    }
    double factor = 1.0;
    if (nearest_ms > 40.0) factor = eyeball ? 0.97 : 0.7;
    if (nearest_ms > 90.0) factor = eyeball ? 0.93 : 0.45;
    return hash01(hash3(profile_.seed, key.network().to_uint(), 0xA11CE)) < base * factor;
  }

  [[nodiscard]] int mapped_cluster(const net::Prefix& subnet) const {
    if (!is_mapped(subnet)) return -1;
    const net::Prefix key = mapping_key(subnet);
    const auto location = world_.subnet_location(net::Prefix(key.network(), 24));
    if (!location) return -1;
    const auto ranked = ranked_clusters(*location, key);
    std::size_t choice = 0;
    const std::uint64_t h = hash3(profile_.seed, key.network().to_uint(), 0xE44);
    if (hash01(h) < profile_.mapping_error_rate) {
      std::size_t displacement = 1;
      std::uint64_t g = mix(h);
      while (hash01(g) < 0.5 && displacement + 1 < ranked.size()) {
        ++displacement;
        g = mix(g);
      }
      choice = std::min(displacement, ranked.size() - 1);
    }
    return static_cast<int>(ranked[choice]);
  }

  [[nodiscard]] std::vector<net::Ipv4Addr> select_replicas(const net::Prefix& subnet,
                                                           std::uint64_t nonce) const {
    return select_with_rotation(subnet, mix(nonce ^ profile_.seed));
  }

  [[nodiscard]] std::vector<net::Ipv4Addr> select_with_rotation(
      const net::Prefix& ecs_subnet, std::uint64_t rotation) const {
    const net::Prefix key = mapping_key(ecs_subnet);
    if (profile_.anycast) {
      const std::size_t n = vips_.size();
      const std::size_t start =
          static_cast<std::size_t>(hash3(profile_.seed, key.network().to_uint(), 0xCA)) % n;
      const auto want = static_cast<std::size_t>(
          std::min<int>(profile_.replica_set_size, static_cast<int>(n)));
      std::vector<net::Ipv4Addr> out;
      for (std::size_t k = 0; k < want; ++k) {
        out.push_back(vips_[(start + k + rotation % 2) % n]);
      }
      return out;
    }
    const int persistent = mapped_cluster(ecs_subnet);
    if (persistent < 0) {
      const std::uint64_t h = hash3(profile_.seed, key.network().to_uint(), rotation);
      double total = 0.0;
      for (const auto& c : clusters_) total += c.weight;
      double x = hash01(h) * total;
      std::size_t pick = 0;
      for (std::size_t i = 0; i < clusters_.size(); ++i) {
        x -= clusters_[i].weight;
        if (x <= 0.0) {
          pick = i;
          break;
        }
      }
      return replica_set_from(clusters_[pick], rotation);
    }
    std::size_t serve = static_cast<std::size_t>(persistent);
    const std::uint64_t spill_h =
        hash3(profile_.seed ^ 0x5B1LL, key.network().to_uint(), rotation);
    if (hash01(spill_h) < profile_.lb_spill_prob && clusters_.size() > 1) {
      const auto location = world_.subnet_location(net::Prefix(key.network(), 24));
      if (location) {
        const auto ranked = ranked_clusters(*location, key);
        serve = ranked[0] == serve ? ranked[1] : ranked[0];
      }
    }
    return replica_set_from(clusters_[serve], rotation);
  }

 private:
  [[nodiscard]] double estimate_ms(const topology::GeoPoint& subnet_location,
                                   std::size_t cluster_index, const net::Prefix& key) const {
    const CdnCluster& c = clusters_[cluster_index];
    const double geo_rtt = 2.0 * topology::propagation_ms(subnet_location, c.location) + 2.0;
    double blended = geo_rtt;
    if (profile_.routing_awareness > 0.0 && !c.replicas.empty()) {
      const net::Prefix probe(key.network(), 24);
      const std::uint32_t rep_suffix =
          world_.subnet_kind(probe) == topology::SubnetKind::kHost ? 10u : 1u;
      const net::Ipv4Addr representative(probe.network().to_uint() | rep_suffix);
      try {
        const double measured = world_.rtt_base_ms(c.replicas.front(), representative);
        blended = profile_.routing_awareness * measured +
                  (1.0 - profile_.routing_awareness) * geo_rtt;
      } catch (const net::Error&) {
        // Unmeasurable subnet: pure geography.
      }
    }
    const double noise = std::exp(profile_.mapping_noise_sigma *
                                  hash_normal(hash3(profile_.seed, key.network().to_uint(),
                                                    cluster_index + 17)));
    return blended * noise;
  }

  [[nodiscard]] std::vector<std::size_t> ranked_clusters(
      const topology::GeoPoint& subnet_location, const net::Prefix& key) const {
    std::vector<std::pair<double, std::size_t>> scored;
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      scored.emplace_back(estimate_ms(subnet_location, i, key), i);
    }
    std::sort(scored.begin(), scored.end());
    std::vector<std::size_t> ranked;
    for (const auto& [ms, i] : scored) ranked.push_back(i);
    return ranked;
  }

  [[nodiscard]] std::vector<net::Ipv4Addr> replica_set_from(const CdnCluster& cluster,
                                                            std::uint64_t rotation) const {
    const std::size_t n = cluster.replicas.size();
    const auto want = static_cast<std::size_t>(
        std::min<int>(profile_.replica_set_size, static_cast<int>(n)));
    std::vector<net::Ipv4Addr> out;
    for (std::size_t k = 0; k < want; ++k) out.push_back(cluster.replicas[(rotation + k) % n]);
    return out;
  }

  const CdnProfile& profile_;
  const std::vector<CdnCluster>& clusters_;
  const std::vector<net::Ipv4Addr>& vips_;
  topology::World& world_;
};

}  // namespace drongo::cdn::provider_oracle
