// DnsCache scope-matching and lifecycle semantics.
//
// Two of these are regression tests for real bugs the serving-path PR
// fixed: (1) lookup returned the FIRST map-order entry whose scope
// contained the client, so a scope-zero answer shadowed a /24-tailored one
// (RFC 7871 §7.3.1 wants the most specific match); (2) lookup skipped
// expired entries but never erased them, so size() and eviction pressure
// counted dead entries forever.
#include "dns/cache.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace drongo::dns {
namespace {

const DnsName kName = DnsName::must_parse("img.cdn.sim");

net::Prefix P(const std::string& text) { return net::Prefix::must_parse(text); }

TEST(DnsCacheScopeTest, LongestMatchingScopeWinsOverScopeZero) {
  DnsCache cache;
  // A scope-zero answer (sorts first in the map) and a /24-tailored answer
  // coexist for the same qname. A client inside the /24 must get the
  // tailored entry, never the scope-zero one.
  cache.insert(kName, P("0.0.0.0/0"), {net::Ipv4Addr(9, 9, 9, 9)}, 60, 0);
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(7, 7, 7, 7)}, 60, 0);

  const auto tailored = cache.lookup(kName, P("10.1.2.0/24"), 10);
  ASSERT_TRUE(tailored.has_value());
  EXPECT_EQ(tailored->scope, P("10.1.2.0/24"));
  EXPECT_EQ(tailored->addresses.front(), net::Ipv4Addr(7, 7, 7, 7));

  // A client outside the tailored /24 still gets the scope-zero answer.
  const auto generic = cache.lookup(kName, P("10.9.9.0/24"), 10);
  ASSERT_TRUE(generic.has_value());
  EXPECT_EQ(generic->addresses.front(), net::Ipv4Addr(9, 9, 9, 9));
}

TEST(DnsCacheScopeTest, LongestMatchIndependentOfInsertionOrder) {
  DnsCache cache;
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(7, 7, 7, 7)}, 60, 0);
  cache.insert(kName, P("0.0.0.0/0"), {net::Ipv4Addr(9, 9, 9, 9)}, 60, 0);
  const auto hit = cache.lookup(kName, P("10.1.2.0/24"), 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->addresses.front(), net::Ipv4Addr(7, 7, 7, 7));
}

TEST(DnsCacheScopeTest, NestedScopesResolveToMostSpecific) {
  DnsCache cache;
  cache.insert(kName, P("10.0.0.0/8"), {net::Ipv4Addr(1, 0, 0, 8)}, 60, 0);
  cache.insert(kName, P("10.1.0.0/16"), {net::Ipv4Addr(1, 0, 0, 16)}, 60, 0);
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(1, 0, 0, 24)}, 60, 0);

  const auto in24 = cache.lookup(kName, P("10.1.2.0/24"), 1);
  ASSERT_TRUE(in24.has_value());
  EXPECT_EQ(in24->addresses.front(), net::Ipv4Addr(1, 0, 0, 24));

  const auto in16 = cache.lookup(kName, P("10.1.77.0/24"), 1);
  ASSERT_TRUE(in16.has_value());
  EXPECT_EQ(in16->addresses.front(), net::Ipv4Addr(1, 0, 0, 16));

  const auto in8 = cache.lookup(kName, P("10.200.0.0/24"), 1);
  ASSERT_TRUE(in8.has_value());
  EXPECT_EQ(in8->addresses.front(), net::Ipv4Addr(1, 0, 0, 8));

  EXPECT_FALSE(cache.lookup(kName, P("11.0.0.0/24"), 1).has_value());
}

TEST(DnsCacheScopeTest, ScopesServeOnlyTheirOwnFamily) {
  DnsCache cache;
  // A v6 scope — even ::/0, which "contains" every v6 client — must never
  // answer a v4 subnet, and vice versa (RFC 7871 scopes are per-family).
  cache.insert(kName, net::IpPrefix::must_parse("::/0"), {net::Ipv4Addr(6, 6, 6, 6)},
               60, 0);
  EXPECT_FALSE(cache.lookup(kName, P("10.1.2.0/24"), 1).has_value());
  cache.insert(kName, P("0.0.0.0/0"), {net::Ipv4Addr(4, 4, 4, 4)}, 60, 0);
  const auto v4 = cache.lookup(kName, P("10.1.2.0/24"), 1);
  ASSERT_TRUE(v4.has_value());
  EXPECT_EQ(v4->addresses.front(), net::Ipv4Addr(4, 4, 4, 4));
  const auto v6 = cache.lookup(kName, net::IpPrefix::must_parse("2001:db8::/56"), 1);
  ASSERT_TRUE(v6.has_value());
  EXPECT_EQ(v6->addresses.front(), net::Ipv4Addr(6, 6, 6, 6));
}

TEST(DnsCacheScopeTest, V6ScopesNestLikeV4Ones) {
  DnsCache cache;
  const auto wide = net::IpPrefix::must_parse("2001:db8::/32");
  const auto site = net::IpPrefix::must_parse("2001:db8:1401:200::/56");
  cache.insert(kName, wide, {net::Ipv4Addr(1, 0, 0, 32)}, 60, 0);
  cache.insert(kName, site, {net::Ipv4Addr(1, 0, 0, 56)}, 60, 0);

  const auto tailored =
      cache.lookup(kName, net::IpPrefix::must_parse("2001:db8:1401:200::/64"), 1);
  ASSERT_TRUE(tailored.has_value());
  EXPECT_EQ(tailored->addresses.front(), net::Ipv4Addr(1, 0, 0, 56));

  const auto generic =
      cache.lookup(kName, net::IpPrefix::must_parse("2001:db8:9999::/56"), 1);
  ASSERT_TRUE(generic.has_value());
  EXPECT_EQ(generic->addresses.front(), net::Ipv4Addr(1, 0, 0, 32));
}

TEST(DnsCacheScopeTest, V6ScopeLongerThanClientSourceNeverServes) {
  DnsCache cache;
  // Same §7.3.1 rule as v4 at v6 widths: an answer tailored to a /56 may
  // not be reused for a client announcing only a /48.
  cache.insert(kName, net::IpPrefix::must_parse("2001:db8:1401:200::/56"),
               {net::Ipv4Addr(1, 0, 0, 56)}, 60, 0);
  EXPECT_FALSE(
      cache.lookup(kName, net::IpPrefix::must_parse("2001:db8:1401::/48"), 1)
          .has_value());
  EXPECT_TRUE(
      cache.lookup(kName, net::IpPrefix::must_parse("2001:db8:1401:200::/64"), 1)
          .has_value());
}

TEST(DnsCacheStatsTest, ForeignFamilyDropsAreCounted) {
  obs::Registry registry;
  DnsCache cache;
  cache.set_registry(&registry);
  cache.note_foreign_family_drop();
  cache.note_foreign_family_drop();
  EXPECT_EQ(cache.stats().foreign_family_drops, 2u);
  EXPECT_EQ(registry.snapshot().counters.at("dns.cache.foreign_family_drops"), 2u);
}

TEST(DnsCacheLifecycleTest, ExpiryBoundaryMisses) {
  DnsCache cache;
  cache.insert(kName, P("0.0.0.0/0"), {net::Ipv4Addr(1, 1, 1, 1)}, 30, /*now_ms=*/0);
  EXPECT_TRUE(cache.lookup(kName, P("9.9.9.0/24"), 29'999).has_value());
  // expiry_ms == now_ms is already dead, not "one last hit".
  EXPECT_FALSE(cache.lookup(kName, P("9.9.9.0/24"), 30'000).has_value());
}

TEST(DnsCacheLifecycleTest, TtlZeroIsNeverServed) {
  DnsCache cache;
  cache.insert(kName, P("0.0.0.0/0"), {net::Ipv4Addr(1, 1, 1, 1)}, 0, /*now_ms=*/5000);
  EXPECT_FALSE(cache.lookup(kName, P("9.9.9.0/24"), 5000).has_value());
  EXPECT_EQ(cache.size(), 0u);  // erased by the scan, not lingering
}

TEST(DnsCacheLifecycleTest, LookupErasesExpiredEntriesInPassing) {
  DnsCache cache;
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(1, 1, 1, 1)}, 10, 0);
  cache.insert(kName, P("0.0.0.0/0"), {net::Ipv4Addr(2, 2, 2, 2)}, 1000, 0);
  ASSERT_EQ(cache.size(), 2u);
  // Past the /24 entry's TTL, any lookup scanning the name must erase the
  // dead entry — size() counts live entries only, without an explicit
  // purge() call.
  const auto hit = cache.lookup(kName, P("10.1.2.0/24"), 20'000);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->addresses.front(), net::Ipv4Addr(2, 2, 2, 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().expired, 1u);
}

TEST(DnsCacheLifecycleTest, EvictionIsLeastRecentlyUsed) {
  DnsCache cache(/*max_entries=*/3);
  const auto n1 = DnsName::must_parse("n1.x");
  const auto n2 = DnsName::must_parse("n2.x");
  const auto n3 = DnsName::must_parse("n3.x");
  const auto n4 = DnsName::must_parse("n4.x");
  cache.insert(n1, P("0.0.0.0/0"), {net::Ipv4Addr(1, 1, 1, 1)}, 1000, 0);
  cache.insert(n2, P("0.0.0.0/0"), {net::Ipv4Addr(2, 2, 2, 2)}, 1000, 0);
  cache.insert(n3, P("0.0.0.0/0"), {net::Ipv4Addr(3, 3, 3, 3)}, 1000, 0);
  // Touch n1: it becomes most-recent, so the LRU victim is n2.
  ASSERT_TRUE(cache.lookup(n1, P("9.9.9.0/24"), 1).has_value());
  cache.insert(n4, P("0.0.0.0/0"), {net::Ipv4Addr(4, 4, 4, 4)}, 1000, 1);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.lookup(n1, P("9.9.9.0/24"), 2).has_value());
  EXPECT_FALSE(cache.lookup(n2, P("9.9.9.0/24"), 2).has_value());
  EXPECT_TRUE(cache.lookup(n3, P("9.9.9.0/24"), 2).has_value());
  EXPECT_TRUE(cache.lookup(n4, P("9.9.9.0/24"), 2).has_value());
}

TEST(DnsCacheLifecycleTest, EvictionPrefersDroppingExpiredFirst) {
  DnsCache cache(/*max_entries=*/2);
  cache.insert(DnsName::must_parse("a.x"), P("0.0.0.0/0"), {net::Ipv4Addr(1, 1, 1, 1)},
               1, 0);  // expires at 1000
  cache.insert(DnsName::must_parse("b.x"), P("0.0.0.0/0"), {net::Ipv4Addr(2, 2, 2, 2)},
               1000, 0);
  // At insert time the expired entry is purged; the live one survives.
  cache.insert(DnsName::must_parse("c.x"), P("0.0.0.0/0"), {net::Ipv4Addr(3, 3, 3, 3)},
               1000, 2000);
  EXPECT_TRUE(cache.lookup(DnsName::must_parse("b.x"), P("9.9.9.0/24"), 2001).has_value());
  EXPECT_TRUE(cache.lookup(DnsName::must_parse("c.x"), P("9.9.9.0/24"), 2001).has_value());
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(DnsCacheLifecycleTest, ReinsertRefreshesInsteadOfDuplicating) {
  DnsCache cache;
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(1, 1, 1, 1)}, 30, 0);
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(5, 5, 5, 5)}, 30, 10'000);
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(kName, P("10.1.2.0/24"), 35'000);
  ASSERT_TRUE(hit.has_value());  // refreshed TTL outlives the first insert's
  EXPECT_EQ(hit->addresses.front(), net::Ipv4Addr(5, 5, 5, 5));
}

// --- Expiry index: purge() pops dead entries in expiry order ---------------

TEST(DnsCacheExpiryIndexTest, LengthenedRefreshSurvivesPurgeAtOldExpiry) {
  DnsCache cache;
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(1, 1, 1, 1)}, 10, 0);
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(2, 2, 2, 2)}, 30, 5'000);
  cache.purge(10'000);  // the first insert's expiry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().expired, 0u);
  const auto hit = cache.lookup(kName, P("10.1.2.0/24"), 34'999);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->addresses.front(), net::Ipv4Addr(2, 2, 2, 2));
}

TEST(DnsCacheExpiryIndexTest, ShortenedRefreshDiesAtNewExpiry) {
  DnsCache cache;
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(1, 1, 1, 1)}, 30, 0);
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(2, 2, 2, 2)}, 5, 1'000);
  cache.purge(5'999);
  EXPECT_EQ(cache.size(), 1u);
  cache.purge(6'000);  // expiry_ms == now is dead
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().expired, 1u);
  EXPECT_FALSE(cache.lookup(kName, P("10.1.2.0/24"), 6'000).has_value());
}

TEST(DnsCacheExpiryIndexTest, LookupErasedEntryIsNotPurgedAgain) {
  DnsCache cache;
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(1, 1, 1, 1)}, 1, 0);
  cache.insert(DnsName::must_parse("other.x"), P("0.0.0.0/0"),
               {net::Ipv4Addr(2, 2, 2, 2)}, 2, 0);
  // The lookup passes over the dead /24 and erases it...
  EXPECT_FALSE(cache.lookup(kName, P("10.1.2.0/24"), 1'500).has_value());
  EXPECT_EQ(cache.stats().expired, 1u);
  EXPECT_EQ(cache.size(), 1u);
  // ...so a purge past both expiries counts only the other entry.
  cache.purge(3'000);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().expired, 2u);
  EXPECT_EQ(cache.stats().lpm.erases, 2u);
}

TEST(DnsCacheExpiryIndexTest, PurgeAcrossQnamesKeepsSurvivorsLruOrder) {
  DnsCache cache(/*max_entries=*/5);
  const auto a = DnsName::must_parse("a.x");
  const auto b = DnsName::must_parse("b.x");
  const auto c = DnsName::must_parse("c.x");
  const auto d = DnsName::must_parse("d.x");
  cache.insert(c, P("10.1.2.0/24"), {net::Ipv4Addr(3, 3, 3, 3)}, 10, 0);  // 10'000
  cache.insert(a, P("0.0.0.0/0"), {net::Ipv4Addr(1, 1, 1, 1)}, 10, 0);    // 10'000
  cache.insert(a, P("10.0.0.0/8"), {net::Ipv4Addr(1, 0, 0, 0)}, 1, 0);    // 1'000
  cache.insert(b, P("0.0.0.0/0"), {net::Ipv4Addr(2, 2, 2, 2)}, 1, 0);     // 1'000
  cache.insert(d, P("0.0.0.0/0"), {net::Ipv4Addr(4, 4, 4, 4)}, 5, 0);     // 5'000
  // Touch c: recency (oldest first) is now a/0, a/8, b, d, c — not the
  // insertion order.
  ASSERT_TRUE(cache.lookup(c, P("10.1.2.0/24"), 1).has_value());

  cache.purge(5'000);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().expired, 3u);
  EXPECT_EQ(cache.stats().lpm.erases, 3u);

  // Refill to capacity with later-expiring entries, then overflow twice:
  // the survivors must leave in their recency order, a/0 before c.
  for (const char* name : {"e.x", "f.x", "g.x"}) {
    cache.insert(DnsName::must_parse(name), P("0.0.0.0/0"), {net::Ipv4Addr(5, 5, 5, 5)},
                 100, 5'001);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(DnsName::must_parse("h.x"), P("0.0.0.0/0"), {net::Ipv4Addr(6, 6, 6, 6)},
               100, 5'001);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(a, P("10.9.9.0/24"), 5'002).has_value());
  cache.insert(DnsName::must_parse("i.x"), P("0.0.0.0/0"), {net::Ipv4Addr(7, 7, 7, 7)},
               100, 5'002);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.lookup(c, P("10.1.2.0/24"), 5'003).has_value());
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.stats().expired, 3u);
}

TEST(DnsCacheNegativeTest, NegativeEntriesRoundTrip) {
  DnsCache cache;
  cache.insert_negative(kName, P("0.0.0.0/0"), Rcode::kNxDomain, 30, 0);
  const auto hit = cache.lookup(kName, P("9.9.9.0/24"), 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative);
  EXPECT_EQ(hit->rcode, Rcode::kNxDomain);
  EXPECT_TRUE(hit->addresses.empty());
  EXPECT_EQ(cache.stats().negative_hits, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // Negative entries expire like positive ones.
  EXPECT_FALSE(cache.lookup(kName, P("9.9.9.0/24"), 30'000).has_value());
}

TEST(DnsCacheNegativeTest, TailoredPositiveBeatsScopeZeroNegative) {
  DnsCache cache;
  cache.insert_negative(kName, P("0.0.0.0/0"), Rcode::kNxDomain, 60, 0);
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(7, 7, 7, 7)}, 60, 0);
  const auto inside = cache.lookup(kName, P("10.1.2.0/24"), 1);
  ASSERT_TRUE(inside.has_value());
  EXPECT_FALSE(inside->negative);
  const auto outside = cache.lookup(kName, P("10.9.9.0/24"), 1);
  ASSERT_TRUE(outside.has_value());
  EXPECT_TRUE(outside->negative);
}

TEST(DnsCacheCanonicalTest, MixedCaseQnamesShareOneEntry) {
  DnsCache cache;
  // DNS names are case-insensitive (RFC 1035): an answer cached under a
  // mixed-case spelling must serve (and refresh) the lowercase spelling.
  cache.insert(DnsName::must_parse("Img.CDN.Sim"), P("0.0.0.0/0"),
               {net::Ipv4Addr(1, 1, 1, 1)}, 60, 0);
  EXPECT_EQ(cache.size(), 1u);
  const auto lower = cache.lookup(DnsName::must_parse("img.cdn.sim"),
                                  P("9.9.9.0/24"), 1);
  ASSERT_TRUE(lower.has_value());
  EXPECT_EQ(lower->addresses.front(), net::Ipv4Addr(1, 1, 1, 1));
  const auto upper = cache.lookup(DnsName::must_parse("IMG.CDN.SIM"),
                                  P("9.9.9.0/24"), 1);
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(cache.stats().misses, 0u);
  // Re-inserting under yet another casing refreshes instead of duplicating.
  cache.insert(DnsName::must_parse("iMg.cDn.siM"), P("0.0.0.0/0"),
               {net::Ipv4Addr(2, 2, 2, 2)}, 60, 10);
  EXPECT_EQ(cache.size(), 1u);
  const auto refreshed = cache.lookup(kName, P("9.9.9.0/24"), 11);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_EQ(refreshed->addresses.front(), net::Ipv4Addr(2, 2, 2, 2));
}

TEST(DnsCacheLpmTest, LpmCountersTrackTheRadixIndex) {
  obs::Registry registry;
  DnsCache cache;
  cache.set_registry(&registry);
  cache.insert(kName, P("10.0.0.0/8"), {net::Ipv4Addr(1, 1, 1, 1)}, 60, 0);
  cache.insert(kName, P("10.1.2.0/24"), {net::Ipv4Addr(2, 2, 2, 2)}, 60, 0);
  EXPECT_EQ(cache.stats().lpm.inserts, 2u);
  ASSERT_TRUE(cache.lookup(kName, P("10.1.2.0/24"), 1).has_value());
  EXPECT_EQ(cache.stats().lpm.lookups, 1u);
  // The descent touched at least the two chain nodes, and node visits are
  // bounded by the trie depth — not the entry count.
  EXPECT_GE(cache.stats().lpm.node_visits, 2u);
  EXPECT_LE(cache.stats().lpm.node_visits, 33u);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("dns.lpm.inserts"), 2u);
  EXPECT_EQ(snapshot.counters.at("dns.lpm.lookups"), 1u);
  EXPECT_EQ(snapshot.counters.at("dns.lpm.node_visits"),
            cache.stats().lpm.node_visits);
}

TEST(DnsCacheStatsTest, CountersMirrorIntoRegistry) {
  obs::Registry registry;
  DnsCache cache;
  cache.set_registry(&registry);
  cache.insert(kName, P("0.0.0.0/0"), {net::Ipv4Addr(1, 1, 1, 1)}, 30, 0);
  EXPECT_TRUE(cache.lookup(kName, P("9.9.9.0/24"), 1).has_value());
  EXPECT_FALSE(cache.lookup(DnsName::must_parse("other.x"), P("9.9.9.0/24"), 1)
                   .has_value());
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("dns.cache.inserts"), 1u);
  EXPECT_EQ(snapshot.counters.at("dns.cache.hits"), 1u);
  EXPECT_EQ(snapshot.counters.at("dns.cache.misses"), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace drongo::dns
