#include "dns/name.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <string_view>

#include "net/error.hpp"
#include "net/strings.hpp"

namespace drongo::dns {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
constexpr std::uint8_t kPointerTag = 0xC0;
// A name of at most 255 wire bytes holds at most 127 labels of >= 1 byte.
constexpr std::size_t kMaxLabels = (kMaxName - 1) / 2;

bool label_iequal(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (net::ascii_lower(a[i]) != net::ascii_lower(b[i])) return false;
  }
  return true;
}

// Folded labels as unsigned bytes, a proper prefix first: the order
// std::string::compare gives the two lowercased copies.
std::strong_ordering label_compare(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto ca = static_cast<unsigned char>(net::ascii_lower(a[i]));
    const auto cb = static_cast<unsigned char>(net::ascii_lower(b[i]));
    if (ca != cb) return ca <=> cb;
  }
  return a.size() <=> b.size();
}

// Follows compression pointers from `at` to the next length byte written in
// place.
std::size_t skip_pointers(std::span<const std::uint8_t> wire, std::size_t at) {
  while ((wire[at] & kPointerTag) == kPointerTag) {
    at = (static_cast<std::size_t>(wire[at] & 0x3F) << 8) | wire[at + 1];
  }
  return at;
}

// True when the complete name this encoder wrote at `at` spells `labels`
// (ASCII case-insensitively). `wire` is trusted encoder output: every
// pointer in it targets an earlier recorded offset, so the walk ends.
bool wire_spells(std::span<const std::uint8_t> wire, std::size_t at,
                 std::span<const std::string> labels) {
  for (const std::string& label : labels) {
    at = skip_pointers(wire, at);
    const std::size_t len = wire[at];
    if (len != label.size()) return false;
    const std::string_view written(
        reinterpret_cast<const char*>(wire.data() + at + 1), len);
    if (!label_iequal(written, label)) return false;
    at += 1 + len;
  }
  return wire[skip_pointers(wire, at)] == 0;
}
}  // namespace

DnsName::DnsName(std::vector<std::string> labels) : labels_(std::move(labels)) {
  check_invariants();
}

void DnsName::check_invariants() const {
  std::size_t total = 1;  // terminating root byte
  for (const auto& label : labels_) {
    if (label.empty() || label.size() > kMaxLabel) {
      throw net::ParseError("DNS label '" + label + "' has bad length " +
                            std::to_string(label.size()));
    }
    total += 1 + label.size();
  }
  if (total > kMaxName) {
    throw net::ParseError("DNS name exceeds 255 bytes");
  }
}

std::optional<DnsName> DnsName::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DnsName();
  if (text.back() == '.') text.remove_suffix(1);
  std::vector<std::string> labels = net::split(text, '.');
  std::size_t total = 1;
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabel) return std::nullopt;
    total += 1 + label.size();
  }
  if (total > kMaxName) return std::nullopt;
  return DnsName(std::move(labels));
}

DnsName DnsName::must_parse(std::string_view text) {
  auto name = parse(text);
  if (!name) throw net::ParseError("bad DNS name '" + std::string(text) + "'");
  return *name;
}

DnsName DnsName::decode(net::ByteReader& reader) {
  // The walk notes where each label's bytes sit; the labels are copied out
  // afterwards into a vector sized once.
  std::array<std::size_t, kMaxLabels> starts;
  std::array<std::uint8_t, kMaxLabels> lengths;
  std::size_t count = 0;
  std::size_t total = 1;
  // After the first pointer the cursor must not move; we continue decoding at
  // the pointer target via a secondary reader over the same buffer.
  bool jumped = false;
  net::ByteReader indirect(reader.buffer());
  net::ByteReader* r = &reader;
  int pointer_hops = 0;

  for (;;) {
    const std::uint8_t len = r->read_u8();
    if ((len & kPointerTag) == kPointerTag) {
      const std::uint8_t low = r->read_u8();
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | low;
      // A pointer must reference earlier bytes; forward or self pointers can
      // only loop. Also cap total hops against crafted ping-pong chains.
      const std::size_t here = (r == &reader) ? reader.position() : indirect.position();
      if (target >= here) {
        throw net::ParseError("DNS compression pointer does not point backward");
      }
      if (++pointer_hops > 64) {
        throw net::ParseError("DNS compression pointer chain too long");
      }
      if (!jumped) {
        jumped = true;
        r = &indirect;
      }
      r->seek(target);
      continue;
    }
    if ((len & kPointerTag) != 0) {
      throw net::ParseError("reserved DNS label type");
    }
    if (len == 0) break;
    total += 1 + len;
    if (total > kMaxName) throw net::ParseError("decoded DNS name exceeds 255 bytes");
    starts[count] = r->position();
    lengths[count] = len;
    ++count;
    r->skip(len);
  }
  const auto wire = reader.buffer();
  std::vector<std::string> labels;
  labels.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    labels.emplace_back(reinterpret_cast<const char*>(wire.data() + starts[i]),
                        lengths[i]);
  }
  return DnsName(std::move(labels));
}

void DnsName::encode(net::ByteWriter& writer, NameOffsets* offsets) const {
  // Only entries recorded before this name began are candidates: the ones
  // it records itself sit over its own half-written labels, and no suffix
  // of a name can equal another of its suffixes anyway.
  const std::size_t known = offsets != nullptr ? offsets->size() : 0;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (offsets != nullptr) {
      const std::span<const std::string> suffix(labels_.begin() + static_cast<std::ptrdiff_t>(i),
                                                labels_.end());
      for (std::size_t k = 0; k < known; ++k) {
        const std::uint16_t at = (*offsets)[k];
        if (wire_spells(writer.bytes(), at, suffix)) {
          writer.write_u16(static_cast<std::uint16_t>(0xC000 | at));
          return;
        }
      }
      if (writer.size() < 0x4000) {
        offsets->push_back(static_cast<std::uint16_t>(writer.size()));
      }
    }
    writer.write_u8(static_cast<std::uint8_t>(labels_[i].size()));
    writer.write_string(labels_[i]);
  }
  writer.write_u8(0);
}

std::size_t DnsName::wire_length() const {
  std::size_t total = 1;
  for (const auto& label : labels_) total += 1 + label.size();
  return total;
}

std::string DnsName::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (const auto& label : labels_) {
    if (!out.empty()) out.push_back('.');
    out += label;
  }
  return out;
}

std::string DnsName::canonical() const {
  if (labels_.empty()) return ".";
  std::string out;
  out.reserve(wire_length() - 2);  // no leading length byte, no root byte
  for (const auto& label : labels_) {
    if (!out.empty()) out.push_back('.');
    for (const char c : label) out.push_back(net::ascii_lower(c));
  }
  return out;
}

bool DnsName::is_subdomain_of(const DnsName& other) const {
  if (other.labels_.size() > labels_.size()) return false;
  auto mine = labels_.rbegin();
  for (auto theirs = other.labels_.rbegin(); theirs != other.labels_.rend();
       ++theirs, ++mine) {
    if (!label_iequal(*mine, *theirs)) return false;
  }
  return true;
}

DnsName DnsName::parent() const {
  if (labels_.empty()) {
    throw net::InvalidArgument("root name has no parent");
  }
  return DnsName(std::vector<std::string>(labels_.begin() + 1, labels_.end()));
}

bool operator==(const DnsName& a, const DnsName& b) {
  return std::equal(a.labels_.begin(), a.labels_.end(), b.labels_.begin(),
                    b.labels_.end(), [](const std::string& x, const std::string& y) {
                      return label_iequal(x, y);
                    });
}

std::strong_ordering operator<=>(const DnsName& a, const DnsName& b) {
  const auto n = std::min(a.labels_.size(), b.labels_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (auto cmp = label_compare(a.labels_[i], b.labels_[i]); cmp != 0) return cmp;
  }
  return a.labels_.size() <=> b.labels_.size();
}

}  // namespace drongo::dns
