// DNS domain names: presentation format, wire format, compression.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/bytes.hpp"

namespace drongo::dns {

/// Compression state threaded through one message encode: the buffer
/// offsets at which a name suffix was written in place, in write order
/// (only offsets below 0x4000, the reach of a compression pointer). The
/// table holds no name text: encode() recognises a suffix by walking the
/// bytes already written at each offset. It belongs to one ByteWriter and
/// must not outlive or be shared across writers.
using NameOffsets = std::vector<std::uint16_t>;

/// A DNS domain name: an ordered sequence of labels.
///
/// Invariants (enforced at construction): each label is 1..63 bytes, total
/// encoded length <= 255 bytes. Comparison and hashing are case-insensitive
/// per RFC 1035 §2.3.3; the original case is preserved for display.
class DnsName {
 public:
  /// The root name (zero labels).
  DnsName() = default;

  /// Builds from explicit labels. Throws ParseError on invariant violations.
  explicit DnsName(std::vector<std::string> labels);

  /// Parses presentation format ("www.example.com", trailing dot optional,
  /// "." is the root). Returns nullopt on malformed input (empty label,
  /// label > 63 bytes, name > 255 bytes).
  static std::optional<DnsName> parse(std::string_view text);

  /// Like parse() but throws ParseError.
  static DnsName must_parse(std::string_view text);

  /// Decodes a wire-format name starting at the reader's cursor, following
  /// compression pointers (RFC 1035 §4.1.4). The cursor advances past the
  /// in-place portion only. Throws ParseError on pointer loops, forward
  /// pointers, or truncation.
  static DnsName decode(net::ByteReader& reader);

  /// Encodes in wire format, compressing against names already written:
  /// each suffix, longest first, is compared (ASCII case-insensitively,
  /// following pointers) with the names written at the offsets `offsets`
  /// recorded before this name began, and the first match in record order
  /// becomes a pointer. Every suffix written in place at an offset < 0x4000
  /// is appended to `offsets`. Allocates nothing beyond the writer's and the
  /// table's own growth. Pass nullptr to disable compression.
  void encode(net::ByteWriter& writer, NameOffsets* offsets = nullptr) const;

  [[nodiscard]] const std::vector<std::string>& labels() const { return labels_; }
  [[nodiscard]] bool is_root() const { return labels_.empty(); }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }

  /// Encoded wire length in bytes (without compression).
  [[nodiscard]] std::size_t wire_length() const;

  /// Presentation format; the root renders as ".".
  [[nodiscard]] std::string to_string() const;

  /// True when this name equals `other` or is a subdomain of it
  /// (case-insensitive). Every name is under the root.
  [[nodiscard]] bool is_subdomain_of(const DnsName& other) const;

  /// The name with the first label removed ("www.example.com" ->
  /// "example.com"). Throws InvalidArgument on the root.
  [[nodiscard]] DnsName parent() const;

  /// Case-insensitive equality (ASCII A-Z fold only).
  friend bool operator==(const DnsName& a, const DnsName& b);
  /// Label by label from the leftmost: folded labels compare as unsigned
  /// bytes with a proper prefix first (std::string::compare order), then
  /// the name with fewer labels is first. Every std::map<DnsName, ...>
  /// iterates in this order.
  friend std::strong_ordering operator<=>(const DnsName& a, const DnsName& b);

  /// Lowercased dotted form used as a canonical map key; the root is ".".
  [[nodiscard]] std::string canonical() const;

 private:
  void check_invariants() const;

  std::vector<std::string> labels_;
};

}  // namespace drongo::dns

template <>
struct std::hash<drongo::dns::DnsName> {
  std::size_t operator()(const drongo::dns::DnsName& n) const noexcept {
    return std::hash<std::string>{}(n.canonical());
  }
};
