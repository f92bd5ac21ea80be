// Small string helpers shared across libraries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace drongo::net {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// ASCII case fold of one byte: 'A'..'Z' become 'a'..'z', every other byte
/// (including 0x80-0xFF) is unchanged. This is exactly std::tolower in the
/// "C" locale, without the locale lookup, so it can run inside comparisons.
constexpr char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII lowercase copy (DNS names compare case-insensitively).
std::string to_lower(std::string_view text);

/// True when `name` equals `suffix` or ends with "." + suffix, compared
/// case-insensitively. This is the "same domain" test used by the hop filter:
/// e.g. "r1.isp.example" is under suffix "isp.example".
bool domain_has_suffix(std::string_view name, std::string_view suffix);

/// Registrable-domain heuristic: last two labels of a dotted name
/// ("r7.core.att.net" -> "att.net"). Used to compare hop vs client "domain"
/// per the paper's hop filter; our simulated reverse-DNS names have
/// two-label operator domains, so the heuristic is exact here.
std::string registrable_domain(std::string_view name);

/// Deterministic lock-stripe hash for string keys (unlike std::hash, stable
/// across runs and platforms). The loop is FNV-1a's, but the offset basis
/// is 1469598103934665603, not FNV-1a's 14695981039346656037
/// (0xCBF29CE484222325); it is kept because shard and stripe assignment
/// depend on it.
inline std::uint64_t stripe_hash(std::string_view key) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace drongo::net
