// CdnProvider: the ECS-driven replica mapping service of one CDN.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/profile.hpp"
#include "net/prefix.hpp"
#include "topology/world.hpp"

namespace drongo::cdn {

/// One replica cluster: a PoP of the CDN's AS plus the replica hosts there.
struct CdnCluster {
  int pop_index = 0;
  int metro_index = 0;
  topology::GeoPoint location;
  std::vector<net::Ipv4Addr> replicas;
  /// Relative capacity; generic (unmapped) answers rotate over the
  /// highest-capacity clusters.
  double weight = 1.0;
};

/// The replica-selection brain of one simulated CDN.
///
/// Mapping model (the mechanisms §2.1/§3.2 of the paper attribute bad
/// choices to):
///  - Subnets are keyed at `mapping_granularity` bits: everything inside
///    one key shares a mapping (coarse measurement).
///  - Each mapped key has a PERSISTENT cluster choice: the cluster with the
///    lowest CDN-estimated latency, where the estimate is geographic
///    distance distorted by deterministic per-(key,cluster) lognormal noise
///    (imperfect measurement), and with probability `mapping_error_rate`
///    the choice is displaced down the ranking (stale data / traffic
///    engineering). Persistence is what makes valley-prone subnets stable
///    over days (Fig. 5b).
///  - Keys the CDN never measured (`mapped_fraction`, biased toward the
///    provider's build-out regions) receive GENERIC answers rotating over
///    the largest clusters — unstable across queries (Fig. 5a).
///  - Per query, load balancing spills to the runner-up cluster with
///    probability `lb_spill_prob`, and the returned replica list is
///    rotated so the first replica varies (why Drongo must respect the
///    given order rather than cherry-pick).
///  - In anycast mode every returned address is a VIP whose measured
///    latency is that of the nearest front, so DNS-level choice barely
///    matters (CDNetworks' shallow valleys, Fig. 6).
///
/// Serving reads each key's (persistent cluster, spill runner-up) pair from
/// a fixed direct-mapped table instead of re-ranking every cluster per
/// query — the table a real CDN computes per address partition and then
/// serves from. The pair is a pure function of the profile seed, the world
/// and the key, so a racing or evicted slot only costs a recompute and the
/// answers are exactly those of the direct computation (`mapped_cluster`).
class CdnProvider {
 public:
  /// Cluster indices (plus one) are packed into 12-bit table fields.
  static constexpr std::size_t kMaxClusters = 4094;

  /// `world` is borrowed. `vips` must be non-empty iff profile.anycast.
  /// Throws net::InvalidArgument beyond kMaxClusters clusters.
  CdnProvider(CdnProfile profile, topology::World* world, std::size_t as_index,
              std::vector<CdnCluster> clusters, std::vector<net::Ipv4Addr> vips);

  CdnProvider(CdnProvider&&) noexcept = default;
  CdnProvider& operator=(CdnProvider&&) noexcept = default;
  CdnProvider(const CdnProvider&) = delete;
  CdnProvider& operator=(const CdnProvider&) = delete;

  [[nodiscard]] const CdnProfile& profile() const { return profile_; }
  [[nodiscard]] const std::vector<CdnCluster>& clusters() const { return clusters_; }
  [[nodiscard]] std::size_t as_index() const { return as_index_; }
  [[nodiscard]] const std::vector<net::Ipv4Addr>& vips() const { return vips_; }

  /// The replica set the CDN recommends to `ecs_subnet`, in serving order.
  /// Advances the load-balancing rotation (deliberately stateful, like a
  /// real authoritative). Not thread-safe; campaign code uses the nonce
  /// overload below instead.
  std::vector<net::Ipv4Addr> select_replicas(const net::Prefix& ecs_subnet);

  /// Same selection model, but the load-balancing rotation is derived from
  /// `nonce` (the DNS query id) instead of a shared counter. Queries still
  /// see per-query rotation — ids are drawn from the querying stub's RNG —
  /// but the answer is a pure function of (subnet, nonce), independent of
  /// global query order. This is what makes N-thread campaigns byte-
  /// identical to serial runs. Const and safe to call concurrently.
  [[nodiscard]] std::vector<net::Ipv4Addr> select_replicas(const net::Prefix& ecs_subnet,
                                                           std::uint64_t nonce) const;

  /// The mapping key for a subnet (truncated to granularity).
  [[nodiscard]] net::Prefix mapping_key(const net::Prefix& subnet) const;

  /// Whether the CDN has measured (mapped) this subnet.
  [[nodiscard]] bool is_mapped(const net::Prefix& subnet) const;

  /// The persistent cluster index for a mapped subnet, pre-load-balancing;
  /// -1 for unmapped subnets. Computed directly (never from the serving
  /// table): the reference the table is checked against.
  [[nodiscard]] int mapped_cluster(const net::Prefix& subnet) const;

  /// Queries served (load-balancing rotation position).
  [[nodiscard]] std::uint64_t query_count() const { return query_counter_; }

 private:
  /// CDN-internal latency estimate from a subnet location to a cluster:
  /// geography distorted by persistent noise. Ignores routing inflation —
  /// the gap between this estimate and real routed RTT is one of the two
  /// valley sources.
  [[nodiscard]] double estimate_ms(const topology::GeoPoint& subnet_location,
                                   std::size_t cluster_index,
                                   const net::Prefix& key) const;

  /// Clusters ranked by estimate for this key (mapped subnets only).
  [[nodiscard]] std::vector<std::size_t> ranked_clusters(
      const topology::GeoPoint& subnet_location, const net::Prefix& key) const;

  /// What serving needs to know about one mapping key.
  struct Mapping {
    int persistent = -1;  ///< mapped_cluster(); -1 when unmapped
    int spill = -1;       ///< load-balancing runner-up; -1 if none
  };

  /// The key's Mapping from one ranking, without the table.
  [[nodiscard]] Mapping compute_mapping(const net::Prefix& subnet) const;

  /// compute_mapping(key) through the serving table: one relaxed load on a
  /// hit, one recompute and relaxed store on a miss. `key` must already be
  /// a mapping_key().
  [[nodiscard]] Mapping cached_mapping(const net::Prefix& key) const;

  std::vector<net::Ipv4Addr> replica_set_from(const CdnCluster& cluster,
                                              std::uint64_t rotation) const;

  /// Shared selection body: both overloads reduce to this once a rotation
  /// position is fixed.
  [[nodiscard]] std::vector<net::Ipv4Addr> select_with_rotation(
      const net::Prefix& ecs_subnet, std::uint64_t rotation) const;

  CdnProfile profile_;
  topology::World* world_;
  std::size_t as_index_;
  std::vector<CdnCluster> clusters_;
  std::vector<net::Ipv4Addr> vips_;
  std::uint64_t query_counter_ = 0;

  /// 4096 words, 32 KiB per provider however many subnets query it. Each
  /// word is bit 63 valid | bits 56..61 key length | bits 24..55 key
  /// network | bits 12..23 spill+1 | bits 0..11 persistent+1; a slot is
  /// overwritten by whichever key hashed to it last.
  static constexpr std::size_t kTableSlots = 4096;
  struct MappingTable {
    /// World::revision() the slots were filled against; a world that has
    /// grown since (setup-phase add_host) empties the table.
    std::atomic<std::size_t> world_revision{0};
    std::array<std::atomic<std::uint64_t>, kTableSlots> slots{};
  };
  std::unique_ptr<MappingTable> table_ = std::make_unique<MappingTable>();
};

}  // namespace drongo::cdn
