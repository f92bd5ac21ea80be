#include "dns/cache.hpp"

#include <iterator>
#include <utility>

namespace drongo::dns {

void DnsCache::bump(std::uint64_t CacheStats::* field, const char* name) {
  ++(stats_.*field);
  if (registry_ != nullptr) registry_->add(obs::counter_name("dns.cache.", name));
}

void DnsCache::bump_lpm(std::uint64_t LpmStats::* field, const char* name,
                        std::uint64_t delta) {
  stats_.lpm.*field += delta;
  if (registry_ != nullptr && delta != 0) {
    registry_->add(obs::counter_name("dns.lpm.", name), delta);
  }
}

/// Bumps `field` and mirrors it into the registry under the same name.
#define DRONGO_CACHE_BUMP(field) bump(&CacheStats::field, #field)
#define DRONGO_LPM_BUMP(field, ...) bump_lpm(&LpmStats::field, #field, ##__VA_ARGS__)

void DnsCache::erase_entry(NameMap::iterator trie, LruList::iterator lru_position) {
  trie->second.erase(lru_position->key.second);
  DRONGO_LPM_BUMP(erases);
  if (trie->second.empty()) names_.erase(trie);
  by_expiry_.erase(lru_position->expiry_position);
  lru_.erase(lru_position);
  --size_;
}

std::optional<DnsCache::Entry> DnsCache::lookup(const std::string& canonical_qname,
                                                const net::IpPrefix& client_subnet,
                                                std::uint64_t now_ms) {
  const auto nit = names_.find(canonical_qname);
  if (nit == names_.end()) {
    DRONGO_CACHE_BUMP(misses);
    return std::nullopt;
  }
  // One radix descent along the client subnet's bit path yields every cached
  // scope containing it, most specific first — the RFC 7871 §7.3.1 candidate
  // order, so the first live entry is the answer and a scope-zero answer can
  // never shadow a tailored one. Dead entries on the path are erased in
  // passing so they stop counting toward size() and eviction pressure.
  std::uint64_t visited = 0;
  const auto chain =
      nit->second.match_chain(client_subnet.network(), client_subnet.length(), &visited);
  DRONGO_LPM_BUMP(lookups);
  DRONGO_LPM_BUMP(node_visits, visited);
  for (const auto& match : chain) {
    if (match.value->entry.expiry_ms <= now_ms) {
      DRONGO_CACHE_BUMP(expired);
      // When this empties the trie, no chain entry is left to visit.
      erase_entry(nit, match.value->lru_position);
      continue;
    }
    lru_.splice(lru_.begin(), lru_, match.value->lru_position);
    if (match.value->entry.negative) {
      DRONGO_CACHE_BUMP(negative_hits);
    } else {
      DRONGO_CACHE_BUMP(hits);
    }
    return match.value->entry;
  }
  DRONGO_CACHE_BUMP(misses);
  return std::nullopt;
}

void DnsCache::store(Key key, Entry entry, std::uint64_t now_ms) {
  if (const auto nit = names_.find(key.first); nit != names_.end()) {
    if (Stored* existing = nit->second.find(key.second); existing != nullptr) {
      // Refresh in place: newer answer wins, recency bumps, and the entry
      // moves to its new expiry in the index.
      LruNode& node = *existing->lru_position;
      auto index_node = by_expiry_.extract(node.expiry_position);
      index_node.key() = entry.expiry_ms;
      node.expiry_position = by_expiry_.insert(std::move(index_node));
      existing->entry = std::move(entry);
      lru_.splice(lru_.begin(), lru_, existing->lru_position);
      return;
    }
  }
  if (size_ >= max_entries_) purge(now_ms);
  while (size_ >= max_entries_ && !lru_.empty()) {
    // Still full after dropping the dead: evict the least recently used.
    DRONGO_CACHE_BUMP(evictions);
    const auto victim = std::prev(lru_.end());
    erase_entry(names_.find(victim->key.first), victim);
  }
  // (Re-)resolve the trie only now: purge/evict above may have erased this
  // qname's (momentarily empty) trie from the map.
  ScopeTrie& trie = names_[key.first];
  LruNode& node = lru_.emplace_front(LruNode{std::move(key), {}});
  // Expiries mostly arrive in ascending order, so hint at the back.
  node.expiry_position =
      by_expiry_.emplace_hint(by_expiry_.end(), entry.expiry_ms, &node.key);
  trie.insert(node.key.second, Stored{std::move(entry), lru_.begin()});
  DRONGO_LPM_BUMP(inserts);
  ++size_;
}

void DnsCache::insert(std::string canonical_qname, const net::IpPrefix& scope,
                      std::vector<net::Ipv4Addr> addresses, std::uint32_t ttl_seconds,
                      std::uint64_t now_ms) {
  Entry e;
  e.addresses = std::move(addresses);
  e.scope = scope;
  e.expiry_ms = now_ms + std::uint64_t{ttl_seconds} * 1000;
  DRONGO_CACHE_BUMP(inserts);
  store({std::move(canonical_qname), scope}, std::move(e), now_ms);
}

void DnsCache::insert_negative(std::string canonical_qname, const net::IpPrefix& scope,
                               Rcode rcode, std::uint32_t ttl_seconds,
                               std::uint64_t now_ms) {
  Entry e;
  e.scope = scope;
  e.expiry_ms = now_ms + std::uint64_t{ttl_seconds} * 1000;
  e.negative = true;
  e.rcode = rcode;
  DRONGO_CACHE_BUMP(negative_inserts);
  store({std::move(canonical_qname), scope}, std::move(e), now_ms);
}

void DnsCache::note_foreign_family_drop() {
  DRONGO_CACHE_BUMP(foreign_family_drops);
}

void DnsCache::purge(std::uint64_t now_ms) {
  while (!by_expiry_.empty() && by_expiry_.begin()->first <= now_ms) {
    const Key& key = *by_expiry_.begin()->second;
    const auto nit = names_.find(key.first);
    DRONGO_CACHE_BUMP(expired);
    erase_entry(nit, nit->second.find(key.second)->lru_position);
  }
}

#undef DRONGO_LPM_BUMP
#undef DRONGO_CACHE_BUMP

}  // namespace drongo::dns
