// Reference model for the DNS name codec's differential tests: the
// std::map suffix compressor the codec used before its flat offset table,
// plus seeded generators of names whose suffixes repeat in mixed case.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name.hpp"
#include "net/bytes.hpp"
#include "net/rng.hpp"

namespace drongo::dns::codec_oracle {

/// Lowercased dotted suffix -> offset where it was first written in place.
using OracleOffsets = std::map<std::string, std::uint16_t, std::less<>>;

/// The reference compressor: probes the map with every suffix of the
/// lowercased dotted form, longest first; records each suffix it writes in
/// place at an offset below 0x4000.
inline void encode_name(const DnsName& name, net::ByteWriter& writer,
                        OracleOffsets& offsets) {
  const auto& labels = name.labels();
  std::string canonical;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) canonical.push_back('.');
    for (const char c : labels[i]) {
      canonical.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  std::size_t suffix_start = 0;
  for (const auto& label : labels) {
    const std::string_view suffix = std::string_view(canonical).substr(suffix_start);
    if (auto it = offsets.find(suffix); it != offsets.end()) {
      writer.write_u16(static_cast<std::uint16_t>(0xC000 | it->second));
      return;
    }
    if (writer.size() < 0x4000) {
      offsets.emplace(std::string(suffix), static_cast<std::uint16_t>(writer.size()));
    }
    writer.write_u8(static_cast<std::uint8_t>(label.size()));
    writer.write_string(label);
    suffix_start += label.size() + 1;
  }
  writer.write_u8(0);
}

/// Label bytes: both cases, digits and hyphen. No '.', which the dotted
/// reference form could not tell apart from a label boundary.
inline constexpr std::string_view kLabelAlphabet =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";

/// A pool of distinct label stems, 1-63 bytes long (most of them short), so
/// names drawn from it share suffixes.
inline std::vector<std::string> label_pool(net::Rng& rng, std::size_t size) {
  std::vector<std::string> pool;
  while (pool.size() < size) {
    const std::size_t len = rng.chance(0.2) ? 1 + rng.index(63) : 1 + rng.index(8);
    std::string label;
    for (std::size_t i = 0; i < len; ++i) {
      label.push_back(kLabelAlphabet[rng.index(kLabelAlphabet.size())]);
    }
    pool.push_back(std::move(label));
  }
  return pool;
}

/// Flips the case of each letter with probability 1/2.
inline std::string recase(net::Rng& rng, std::string label) {
  for (char& c : label) {
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 && rng.chance(0.5)) {
      c = static_cast<char>(c ^ 0x20);
    }
  }
  return label;
}

/// A name of 1-5 pool labels in random case, kept within 255 wire bytes.
/// Its last labels come from the pool's front half, so TLD- and zone-like
/// suffixes recur across names.
inline DnsName random_name(net::Rng& rng, const std::vector<std::string>& pool) {
  const std::size_t count = 1 + rng.index(5);
  std::vector<std::string> labels;
  std::size_t wire = 1;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t depth_from_end = count - i;
    const std::size_t range = depth_from_end <= 2 ? std::max<std::size_t>(pool.size() / 8, 1)
                                                  : pool.size();
    std::string label = recase(rng, pool[rng.index(range)]);
    if (wire + 1 + label.size() > 255) break;
    wire += 1 + label.size();
    labels.push_back(std::move(label));
  }
  return DnsName(std::move(labels));
}

}  // namespace drongo::dns::codec_oracle
