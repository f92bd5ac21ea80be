#include "dns/name.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "codec_oracle.hpp"
#include "net/error.hpp"
#include "net/strings.hpp"

namespace drongo::dns {
namespace {

TEST(DnsNameTest, ParsePresentation) {
  auto name = DnsName::parse("www.example.com");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->label_count(), 3u);
  EXPECT_EQ(name->to_string(), "www.example.com");
}

TEST(DnsNameTest, TrailingDotIsOptional) {
  EXPECT_EQ(DnsName::must_parse("example.com."), DnsName::must_parse("example.com"));
}

TEST(DnsNameTest, RootName) {
  auto root = DnsName::parse(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
  EXPECT_EQ(root->wire_length(), 1u);
}

TEST(DnsNameTest, RejectsMalformed) {
  EXPECT_FALSE(DnsName::parse("").has_value());
  EXPECT_FALSE(DnsName::parse("a..b").has_value());
  EXPECT_FALSE(DnsName::parse(std::string(64, 'x') + ".com").has_value());  // label > 63
  // Total name > 255 bytes.
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcde.";
  long_name += "com";
  EXPECT_FALSE(DnsName::parse(long_name).has_value());
}

TEST(DnsNameTest, MaxLabelLengthAccepted) {
  const std::string label(63, 'a');
  EXPECT_TRUE(DnsName::parse(label + ".com").has_value());
}

TEST(DnsNameTest, CaseInsensitiveEqualityAndHash) {
  const DnsName a = DnsName::must_parse("WWW.Example.COM");
  const DnsName b = DnsName::must_parse("www.example.com");
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<DnsName>{}(a), std::hash<DnsName>{}(b));
  // Original case preserved for display.
  EXPECT_EQ(a.to_string(), "WWW.Example.COM");
}

TEST(DnsNameTest, WireRoundTripWithoutCompression) {
  const DnsName name = DnsName::must_parse("img.googlecdn.sim");
  net::ByteWriter w;
  name.encode(w, nullptr);
  EXPECT_EQ(w.size(), name.wire_length());

  const auto bytes = w.take();
  net::ByteReader r(bytes);
  EXPECT_EQ(DnsName::decode(r), name);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(DnsNameTest, CompressionReusesSuffixes) {
  NameOffsets offsets;
  net::ByteWriter w;
  DnsName::must_parse("www.example.com").encode(w, &offsets);
  const std::size_t first = w.size();
  DnsName::must_parse("mail.example.com").encode(w, &offsets);
  // The second name writes "mail" (5 bytes) plus a 2-byte pointer.
  EXPECT_EQ(w.size() - first, 5u + 2u);

  // Both decode correctly from the shared buffer.
  const auto bytes = w.bytes();
  net::ByteReader r(bytes);
  EXPECT_EQ(DnsName::decode(r).to_string(), "www.example.com");
  EXPECT_EQ(DnsName::decode(r).to_string(), "mail.example.com");
}

TEST(DnsNameTest, CompressionIsCaseInsensitive) {
  NameOffsets offsets;
  net::ByteWriter w;
  DnsName::must_parse("a.EXAMPLE.com").encode(w, &offsets);
  const std::size_t first = w.size();
  DnsName::must_parse("b.example.COM").encode(w, &offsets);
  EXPECT_EQ(w.size() - first, 2u + 2u);  // "b" + pointer
}

TEST(DnsNameTest, DecodeRejectsForwardPointer) {
  // Pointer to offset 4 from offset 0 — forward, must be rejected.
  const std::uint8_t wire[] = {0xC0, 0x04, 0x00, 0x00, 0x01, 'x', 0x00};
  net::ByteReader r(wire);
  EXPECT_THROW(DnsName::decode(r), net::ParseError);
}

TEST(DnsNameTest, DecodeRejectsSelfPointerLoop) {
  // Name at offset 2 pointing to itself.
  const std::uint8_t wire[] = {0x00, 0x00, 0xC0, 0x02};
  net::ByteReader r(wire);
  r.seek(2);
  EXPECT_THROW(DnsName::decode(r), net::ParseError);
}

TEST(DnsNameTest, DecodeRejectsTruncatedLabel) {
  const std::uint8_t wire[] = {5, 'a', 'b'};  // label claims 5 bytes, has 2
  net::ByteReader r(wire);
  // Truncation surfaces as a bounds violation (both are net::Error).
  EXPECT_THROW(DnsName::decode(r), net::Error);
}

TEST(DnsNameTest, DecodeRejectsReservedLabelType) {
  const std::uint8_t wire[] = {0x80, 'a', 0x00};  // 10xxxxxx is reserved
  net::ByteReader r(wire);
  EXPECT_THROW(DnsName::decode(r), net::ParseError);
}

TEST(DnsNameTest, SubdomainRelation) {
  const DnsName zone = DnsName::must_parse("cdn.example");
  EXPECT_TRUE(DnsName::must_parse("img.cdn.example").is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(DnsName()));  // everything under root
  EXPECT_FALSE(DnsName::must_parse("cdn.other").is_subdomain_of(zone));
  EXPECT_FALSE(DnsName::must_parse("xcdn.example").is_subdomain_of(zone));
  EXPECT_TRUE(DnsName::must_parse("IMG.CDN.Example").is_subdomain_of(zone));
}

TEST(DnsNameTest, ParentStripsFirstLabel) {
  EXPECT_EQ(DnsName::must_parse("a.b.c").parent().to_string(), "b.c");
  EXPECT_THROW(DnsName().parent(), net::InvalidArgument);
}

TEST(DnsNameTest, OrderingIsCaseInsensitiveLexicographic) {
  EXPECT_LT(DnsName::must_parse("aaa.com"), DnsName::must_parse("bbb.com"));
  EXPECT_EQ(DnsName::must_parse("AAA.com") <=> DnsName::must_parse("aaa.COM"),
            std::strong_ordering::equal);
  EXPECT_LT(DnsName::must_parse("a.com"), DnsName::must_parse("a.com.extra"));
}

class NameRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(NameRoundTrip, PresentationWireAndBack) {
  const DnsName name = DnsName::must_parse(GetParam());
  net::ByteWriter w;
  name.encode(w);
  const auto bytes = w.take();
  net::ByteReader r(bytes);
  EXPECT_EQ(DnsName::decode(r), name);
  EXPECT_EQ(DnsName::must_parse(name.to_string()), name);
}

INSTANTIATE_TEST_SUITE_P(Various, NameRoundTrip,
                         ::testing::Values("a", "a.b", "img.static.cdn.example.com",
                                           "xn--idn.example", "123.456.test",
                                           "UPPER.lower.MiXeD"));

// --- Differential: flat offset table vs the std::map reference compressor ---

// Encodes `names` through both compressors into one buffer each, with a
// few filler bytes between names (the fixed RR fields a message puts
// there), and expects identical bytes.
void expect_same_wire(const std::vector<DnsName>& names, net::Rng& rng) {
  net::ByteWriter got;
  net::ByteWriter want;
  NameOffsets offsets;
  codec_oracle::OracleOffsets oracle;
  for (const DnsName& name : names) {
    name.encode(got, &offsets);
    codec_oracle::encode_name(name, want, oracle);
    const std::size_t filler = rng.index(12);
    for (std::size_t i = 0; i < filler; ++i) {
      const auto byte = static_cast<std::uint8_t>(rng.uniform(256));
      got.write_u8(byte);
      want.write_u8(byte);
    }
  }
  ASSERT_EQ(got.bytes(), want.bytes());
  // The table records exactly the offsets the map did, in write order.
  std::vector<std::uint16_t> recorded;
  for (const auto& [suffix, at] : oracle) recorded.push_back(at);
  std::sort(recorded.begin(), recorded.end());
  EXPECT_EQ(offsets, recorded);
}

TEST(NameCompressionOracle, MixedCaseSharedSuffixesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    net::Rng rng = net::Rng::derive(0xC0DEC, seed);
    const auto pool = codec_oracle::label_pool(rng, 24);
    std::vector<DnsName> names;
    const std::size_t count = 1 + rng.index(30);
    for (std::size_t i = 0; i < count; ++i) {
      names.push_back(codec_oracle::random_name(rng, pool));
    }
    SCOPED_TRACE(seed);
    expect_same_wire(names, rng);
  }
}

TEST(NameCompressionOracle, EveryLabelLengthMatchesReference) {
  net::Rng rng = net::Rng::derive(0xC0DEC, 1000);
  std::vector<DnsName> names;
  for (std::size_t len = 1; len <= 63; ++len) {
    std::string label;
    for (std::size_t i = 0; i < len; ++i) {
      label.push_back(codec_oracle::kLabelAlphabet[rng.index(26 * 2)]);
    }
    // The bare label, then the same label under two parents in other case.
    names.push_back(DnsName({label}));
    names.push_back(DnsName({"X", codec_oracle::recase(rng, label)}));
    names.push_back(DnsName({codec_oracle::recase(rng, label), "Tail"}));
    names.push_back(DnsName({"y", codec_oracle::recase(rng, label), "tail"}));
  }
  expect_same_wire(names, rng);
}

TEST(NameCompressionOracle, NamesPastTheFirst16KiBMatchReference) {
  net::Rng rng = net::Rng::derive(0xC0DEC, 2000);
  const auto pool = codec_oracle::label_pool(rng, 200);
  std::vector<DnsName> names;
  std::size_t bound = 0;
  while (bound < 0x4000 * 2) {  // ~32 KiB: a third of the names start past 0x4000
    names.push_back(codec_oracle::random_name(rng, pool));
    bound += names.back().wire_length() + 11;
  }
  expect_same_wire(names, rng);
}

TEST(NameCompressionOracle, SuffixWrittenPast0x4000IsNotRecorded) {
  NameOffsets offsets;
  net::ByteWriter w;
  DnsName::must_parse("early.example").encode(w, &offsets);
  while (w.size() < 0x4000) w.write_u8(0);
  const std::size_t late = w.size();
  DnsName::must_parse("a.late.EXAMPLE").encode(w, &offsets);
  // "a" and "late" are written in place, "example" points back to offset 6.
  const std::vector<std::uint8_t> first_late = {1, 'a', 4, 'l', 'a', 't', 'e', 0xC0, 6};
  EXPECT_TRUE(std::equal(first_late.begin(), first_late.end(), w.bytes().begin() + late));
  EXPECT_EQ(offsets, (NameOffsets{0, 6}));  // nothing at or past 0x4000

  // "late.example" was not recorded, so it is written in place again.
  const std::size_t again = w.size();
  DnsName::must_parse("B.Late.example").encode(w, &offsets);
  const std::vector<std::uint8_t> second_late = {1, 'B', 4, 'L', 'a', 't', 'e', 0xC0, 6};
  EXPECT_TRUE(std::equal(second_late.begin(), second_late.end(), w.bytes().begin() + again));
  EXPECT_EQ(w.size(), again + second_late.size());

  const auto bytes = w.bytes();
  net::ByteReader r(bytes);
  r.seek(late);
  // The pointer target keeps the case it was first written in.
  EXPECT_EQ(DnsName::decode(r).to_string(), "a.late.example");
  EXPECT_EQ(DnsName::decode(r).to_string(), "B.Late.example");
}

TEST(NameCompressionOracle, LabelBoundariesAreKept) {
  // One label "a.b" is not the two labels "a", "b": the dotted-string map
  // conflated them; the wire comparison does not.
  NameOffsets offsets;
  net::ByteWriter w;
  DnsName({"a", "b"}).encode(w, &offsets);
  const std::size_t second = w.size();
  DnsName({"a.b"}).encode(w, &offsets);
  EXPECT_EQ(w.size() - second, 5u);  // written in place, no pointer
  const auto bytes = w.bytes();
  net::ByteReader r(bytes);
  r.seek(second);
  EXPECT_EQ(DnsName::decode(r).labels(), (std::vector<std::string>{"a.b"}));
}

// --- Ordering: in-place folding vs net::to_lower copies ---------------------

std::strong_ordering reference_order(const DnsName& a, const DnsName& b) {
  const auto n = std::min(a.label_count(), b.label_count());
  for (std::size_t i = 0; i < n; ++i) {
    const int cmp = net::to_lower(a.labels()[i]).compare(net::to_lower(b.labels()[i]));
    if (cmp != 0) return cmp < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  return a.label_count() <=> b.label_count();
}

bool reference_subdomain(const DnsName& name, const DnsName& zone) {
  if (zone.label_count() > name.label_count()) return false;
  const std::size_t skip = name.label_count() - zone.label_count();
  for (std::size_t i = 0; i < zone.label_count(); ++i) {
    if (net::to_lower(name.labels()[skip + i]) != net::to_lower(zone.labels()[i])) return false;
  }
  return true;
}

// Letters around the case boundary, '@' just below 'A', the bytes between
// 'Z' and 'a' ([ \ ] ^ _ `), '{' just above 'z', and high bytes.
constexpr std::string_view kOrderAlphabet = "aAbByYzZ@[\\]^_`{\x80\xC3\xE9\xFF" "0-";

DnsName random_order_name(net::Rng& rng) {
  std::vector<std::string> labels(1 + rng.index(3));
  for (auto& label : labels) {
    label.resize(1 + rng.index(3));
    for (char& c : label) c = kOrderAlphabet[rng.index(kOrderAlphabet.size())];
  }
  return DnsName(std::move(labels));
}

TEST(DnsNameOrderOracle, ComparisonsMatchToLowerReference) {
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    net::Rng rng = net::Rng::derive(0x0DE5, seed);
    const DnsName a = random_order_name(rng);
    DnsName b = random_order_name(rng);
    if (rng.chance(0.3)) {
      // A re-cased copy of a, or of one of its suffixes: equal names and
      // zones of a.
      std::vector<std::string> labels(a.labels().begin() + static_cast<std::ptrdiff_t>(
                                                             rng.index(a.label_count())),
                                      a.labels().end());
      for (auto& label : labels) label = codec_oracle::recase(rng, label);
      b = DnsName(std::move(labels));
    }
    SCOPED_TRACE(a.to_string() + " vs " + b.to_string());
    EXPECT_EQ(a <=> b, reference_order(a, b));
    EXPECT_EQ(b <=> a, reference_order(b, a));
    EXPECT_EQ(a == b, reference_order(a, b) == std::strong_ordering::equal);
    EXPECT_EQ(a.is_subdomain_of(b), reference_subdomain(a, b));
    EXPECT_EQ(b.is_subdomain_of(a), reference_subdomain(b, a));
    EXPECT_EQ(a.canonical(), net::to_lower(a.to_string()));
    if (a == b) {
      EXPECT_EQ(std::hash<DnsName>{}(a), std::hash<DnsName>{}(b));
    }
  }
}

TEST(DnsNameOrderOracle, MapIterationOrderIsPinned) {
  // Folded bytes compare unsigned: '[' 0x5B < '_' 0x5F < '`' 0x60 < 'a'
  // < 'z' (from "Z") < 0xE9, and a proper prefix sorts first.
  std::map<DnsName, int> zones;
  for (const char* text : {"Z", "\xE9", "a", "`", "_", "[", "ab", "A.b"}) {
    zones.emplace(DnsName({std::string(text)}), 0);
  }
  zones.emplace(DnsName({"A", "b"}), 0);
  std::vector<std::string> order;
  for (const auto& [name, unused] : zones) order.push_back(name.to_string());
  EXPECT_EQ(order, (std::vector<std::string>{"[", "_", "`", "a", "A.b", "A.b", "ab", "Z",
                                              "\xE9"}));
}

TEST(DnsNameTest, CanonicalIsOnePassLowercase) {
  EXPECT_EQ(DnsName().canonical(), ".");
  EXPECT_EQ(DnsName::must_parse("WWW.Example.COM").canonical(), "www.example.com");
  EXPECT_EQ(DnsName({"\xC3\x89T\xE9"}).canonical(), "\xC3\x89t\xE9");
}

}  // namespace
}  // namespace drongo::dns
