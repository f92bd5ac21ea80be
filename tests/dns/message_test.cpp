#include "dns/message.hpp"

#include <gtest/gtest.h>

#include <span>
#include <type_traits>
#include <variant>

#include "codec_oracle.hpp"
#include "net/error.hpp"

namespace drongo::dns {
namespace {

TEST(MessageTest, QueryBuilderSetsEcs) {
  const auto query = Message::make_query(0x1234, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("20.1.36.0/24"));
  EXPECT_EQ(query.header.id, 0x1234);
  EXPECT_FALSE(query.header.qr);
  EXPECT_TRUE(query.header.rd);
  ASSERT_EQ(query.questions.size(), 1u);
  EXPECT_EQ(query.questions[0].type, RrType::kA);
  ASSERT_TRUE(query.client_subnet().has_value());
  EXPECT_EQ(query.client_subnet()->source_prefix().to_string(), "20.1.36.0/24");
}

TEST(MessageTest, QueryWithoutEcsHasEdnsButNoOption) {
  const auto query = Message::make_query(7, DnsName::must_parse("a.b"));
  ASSERT_TRUE(query.edns.has_value());
  EXPECT_FALSE(query.client_subnet().has_value());
}

TEST(MessageTest, WireRoundTripFullMessage) {
  auto query = Message::make_query(42, DnsName::must_parse("img.cdn.sim"),
                                   net::Prefix::must_parse("198.51.100.0/24"));
  auto response = Message::make_response(query, Rcode::kNoError, /*ecs_scope=*/20);
  response.answers.push_back(
      ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 8, 84, 10), 30));
  response.answers.push_back(
      ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 8, 85, 10), 30));
  response.authority.push_back(ResourceRecord::ns(DnsName::must_parse("cdn.sim"),
                                                  DnsName::must_parse("ns1.cdn.sim")));

  const auto wire = response.encode();
  const auto decoded = Message::decode(wire);

  EXPECT_EQ(decoded.header.id, 42);
  EXPECT_TRUE(decoded.header.qr);
  EXPECT_TRUE(decoded.header.aa);
  EXPECT_EQ(decoded.header.rcode, Rcode::kNoError);
  ASSERT_EQ(decoded.questions.size(), 1u);
  ASSERT_EQ(decoded.answers.size(), 2u);
  ASSERT_EQ(decoded.authority.size(), 1u);
  ASSERT_TRUE(decoded.edns.has_value());
  ASSERT_TRUE(decoded.client_subnet().has_value());
  EXPECT_EQ(decoded.client_subnet()->scope_prefix_length, 20);
  EXPECT_EQ(decoded.client_subnet()->source_prefix_length, 24);
}

TEST(MessageTest, OptRecordIsLiftedNotListed) {
  const auto query = Message::make_query(1, DnsName::must_parse("x.y"),
                                         net::Prefix::must_parse("10.0.0.0/24"));
  const auto wire = query.encode();
  // Wire carries ARCOUNT = 1 (the OPT record)...
  EXPECT_EQ(wire[11], 1);
  // ...but the decoded message exposes it as `edns`, not `additional`.
  const auto decoded = Message::decode(wire);
  EXPECT_TRUE(decoded.additional.empty());
  EXPECT_TRUE(decoded.edns.has_value());
}

TEST(MessageTest, AnswerAddressesPreservesServerOrder) {
  Message m;
  const auto name = DnsName::must_parse("a.b");
  m.answers.push_back(ResourceRecord::a(name, net::Ipv4Addr(1, 1, 1, 3)));
  m.answers.push_back(ResourceRecord::a(name, net::Ipv4Addr(1, 1, 1, 1)));
  m.answers.push_back(ResourceRecord::cname(name, DnsName::must_parse("c.d")));
  m.answers.push_back(ResourceRecord::a(name, net::Ipv4Addr(1, 1, 1, 2)));
  const auto addrs = m.answer_addresses();
  ASSERT_EQ(addrs.size(), 3u);
  EXPECT_EQ(addrs[0], net::Ipv4Addr(1, 1, 1, 3));  // order kept, CNAME skipped
  EXPECT_EQ(addrs[1], net::Ipv4Addr(1, 1, 1, 1));
  EXPECT_EQ(addrs[2], net::Ipv4Addr(1, 1, 1, 2));
}

TEST(MessageTest, ResponseEchoesQuestionAndEcsWithScope) {
  const auto query = Message::make_query(9, DnsName::must_parse("q.r"),
                                         net::Prefix::must_parse("20.5.40.0/24"));
  const auto response = Message::make_response(query, Rcode::kNxDomain, 24);
  EXPECT_TRUE(response.header.qr);
  EXPECT_EQ(response.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(response.questions, query.questions);
  ASSERT_TRUE(response.client_subnet().has_value());
  EXPECT_EQ(response.client_subnet()->scope_prefix_length, 24);
}

TEST(MessageTest, SetAndClearClientSubnet) {
  Message m;
  EXPECT_FALSE(m.client_subnet().has_value());
  m.set_client_subnet(ClientSubnet::for_subnet(net::Prefix::must_parse("20.0.36.0/24")));
  ASSERT_TRUE(m.client_subnet().has_value());
  m.clear_client_subnet();
  EXPECT_FALSE(m.client_subnet().has_value());
  EXPECT_TRUE(m.edns.has_value());  // EDNS block survives
}

TEST(MessageTest, DecodeRejectsTwoOptRecords) {
  auto query = Message::make_query(1, DnsName::must_parse("x.y"),
                                   net::Prefix::must_parse("10.0.0.0/24"));
  auto wire = query.encode();
  // Duplicate the OPT record bytes by re-encoding with an extra additional
  // OPT: craft by patching ARCOUNT and appending a minimal OPT record.
  wire[11] = 2;
  const std::uint8_t opt[] = {0x00, 0x00, 0x29, 0x04, 0xD0, 0, 0, 0, 0, 0x00, 0x00};
  wire.insert(wire.end(), std::begin(opt), std::end(opt));
  EXPECT_THROW(Message::decode(wire), net::ParseError);
}

TEST(MessageTest, DecodeRejectsNonRootOpt) {
  auto query = Message::make_query(1, DnsName::must_parse("x.y"));
  auto wire = query.encode();
  // The OPT owner is the root (one zero byte) right after the question.
  // Find the OPT: last 11 bytes of our encoding (root + fixed OPT header).
  const std::size_t opt_at = wire.size() - 11;
  ASSERT_EQ(wire[opt_at], 0x00);
  ASSERT_EQ(wire[opt_at + 1], 0x00);
  ASSERT_EQ(wire[opt_at + 2], 0x29);
  // Rewrite owner as a pointer to the question name (offset 12) instead of
  // root: replace 1 byte with 2 — rebuild the tail.
  std::vector<std::uint8_t> patched(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(opt_at));
  patched.push_back(0xC0);
  patched.push_back(12);
  patched.insert(patched.end(), wire.begin() + static_cast<std::ptrdiff_t>(opt_at) + 1, wire.end());
  EXPECT_THROW(Message::decode(patched), net::ParseError);
}

TEST(MessageTest, DecodeRejectsTruncatedHeader) {
  const std::uint8_t tiny[] = {0x00, 0x01, 0x00};
  EXPECT_THROW(Message::decode(tiny), net::Error);
}

TEST(MessageTest, EmptyMessageRoundTrips) {
  Message m;
  const auto decoded = Message::decode(m.encode());
  EXPECT_EQ(decoded.questions.size(), 0u);
  EXPECT_EQ(decoded.answers.size(), 0u);
  EXPECT_FALSE(decoded.edns.has_value());
}

TEST(MessageTest, OtherEdnsOptionsSurviveRoundTrip) {
  Message m = Message::make_query(5, DnsName::must_parse("x.y"),
                                  net::Prefix::must_parse("10.0.0.0/24"));
  m.edns->other_options.push_back({10 /* COOKIE */, {1, 2, 3, 4, 5, 6, 7, 8}});
  const auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.edns.has_value());
  ASSERT_EQ(decoded.edns->other_options.size(), 1u);
  EXPECT_EQ(decoded.edns->other_options[0].code, 10);
  EXPECT_EQ(decoded.edns->other_options[0].payload.size(), 8u);
  EXPECT_TRUE(decoded.client_subnet().has_value());
}

TEST(MessageTest, FlagsRoundTripExactly) {
  Message m;
  m.header.id = 0xBEEF;
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = true;
  m.header.rd = false;
  m.header.ra = true;
  m.header.rcode = Rcode::kRefused;
  const auto decoded = Message::decode(m.encode());
  EXPECT_EQ(decoded.header, m.header);
}

// --- Wire goldens and the differential message encoder ---------------------

// A response with a two-step CNAME chain, a mixed-case question, an SOA in
// authority and an ECS option: bytes captured from the std::map compressor.
Message golden_response() {
  auto query = Message::make_query(0xBEEF, DnsName::must_parse("WWW.Shop.Example"),
                                   net::Prefix::must_parse("198.51.100.0/24"));
  auto response = Message::make_response(query, Rcode::kNoError, 20);
  response.answers.push_back(ResourceRecord::cname(
      DnsName::must_parse("www.shop.example"), DnsName::must_parse("shop.example.edge.cdn.sim"),
      300));
  response.answers.push_back(ResourceRecord::cname(
      DnsName::must_parse("shop.example.edge.cdn.sim"), DnsName::must_parse("e7.edge.CDN.sim"),
      60));
  response.answers.push_back(ResourceRecord::a(DnsName::must_parse("e7.edge.cdn.sim"),
                                               net::Ipv4Addr(21, 8, 84, 10), 30));
  SoaRdata soa;
  soa.mname = DnsName::must_parse("ns1.cdn.sim");
  soa.rname = DnsName::must_parse("hostmaster.cdn.sim");
  soa.serial = 2017;
  response.authority.push_back(ResourceRecord::soa(DnsName::must_parse("cdn.sim"), soa, 3600));
  return response;
}

TEST(MessageWireGolden, CnameChainSoaAndEcsResponse) {
  const std::vector<std::uint8_t> golden = {
    0xBE, 0xEF, 0x85, 0x80, 0x00, 0x01, 0x00, 0x03, 0x00, 0x01, 0x00, 0x01,
    0x03, 0x57, 0x57, 0x57, 0x04, 0x53, 0x68, 0x6F, 0x70, 0x07, 0x45, 0x78,
    0x61, 0x6D, 0x70, 0x6C, 0x65, 0x00, 0x00, 0x01, 0x00, 0x01, 0xC0, 0x0C,
    0x00, 0x05, 0x00, 0x01, 0x00, 0x00, 0x01, 0x2C, 0x00, 0x1B, 0x04, 0x73,
    0x68, 0x6F, 0x70, 0x07, 0x65, 0x78, 0x61, 0x6D, 0x70, 0x6C, 0x65, 0x04,
    0x65, 0x64, 0x67, 0x65, 0x03, 0x63, 0x64, 0x6E, 0x03, 0x73, 0x69, 0x6D,
    0x00, 0xC0, 0x2E, 0x00, 0x05, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3C, 0x00,
    0x05, 0x02, 0x65, 0x37, 0xC0, 0x3B, 0xC0, 0x55, 0x00, 0x01, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x1E, 0x00, 0x04, 0x15, 0x08, 0x54, 0x0A, 0xC0, 0x40,
    0x00, 0x06, 0x00, 0x01, 0x00, 0x00, 0x0E, 0x10, 0x00, 0x27, 0x03, 0x6E,
    0x73, 0x31, 0xC0, 0x40, 0x0A, 0x68, 0x6F, 0x73, 0x74, 0x6D, 0x61, 0x73,
    0x74, 0x65, 0x72, 0xC0, 0x40, 0x00, 0x00, 0x07, 0xE1, 0x00, 0x00, 0x0E,
    0x10, 0x00, 0x00, 0x02, 0x58, 0x00, 0x01, 0x51, 0x80, 0x00, 0x00, 0x00,
    0x3C, 0x00, 0x00, 0x29, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0B,
    0x00, 0x08, 0x00, 0x07, 0x00, 0x01, 0x18, 0x14, 0xC6, 0x33, 0x64};
  const Message response = golden_response();
  EXPECT_EQ(response.encode(), golden);
  EXPECT_EQ(Message::decode(golden).answers, response.answers);
  EXPECT_EQ(Message::decode(golden).authority, response.authority);
}

// The message layout written with the reference compressor. The header and
// the OPT record hold no compressible name, so they are copied from the
// codec's own output.
std::vector<std::uint8_t> oracle_encode(const Message& m) {
  const std::vector<std::uint8_t> real = m.encode();
  net::ByteWriter w;
  codec_oracle::OracleOffsets offsets;
  w.write_bytes(std::span(real).first(12));
  for (const auto& q : m.questions) {
    codec_oracle::encode_name(q.name, w, offsets);
    w.write_u16(static_cast<std::uint16_t>(q.type));
    w.write_u16(static_cast<std::uint16_t>(q.klass));
  }
  const auto write_rr = [&](const ResourceRecord& rr) {
    codec_oracle::encode_name(rr.name, w, offsets);
    w.write_u16(static_cast<std::uint16_t>(rr.type));
    w.write_u16(static_cast<std::uint16_t>(rr.klass));
    w.write_u32(rr.ttl);
    const std::size_t rdlength_at = w.size();
    w.write_u16(0);
    std::visit(
        [&](const auto& data) {
          using T = std::decay_t<decltype(data)>;
          if constexpr (std::is_same_v<T, ARdata>) {
            w.write_u32(data.address.to_uint());
          } else if constexpr (std::is_same_v<T, CnameRdata>) {
            codec_oracle::encode_name(data.target, w, offsets);
          } else if constexpr (std::is_same_v<T, NsRdata>) {
            codec_oracle::encode_name(data.nameserver, w, offsets);
          } else if constexpr (std::is_same_v<T, PtrRdata>) {
            codec_oracle::encode_name(data.name, w, offsets);
          } else if constexpr (std::is_same_v<T, SoaRdata>) {
            codec_oracle::encode_name(data.mname, w, offsets);
            codec_oracle::encode_name(data.rname, w, offsets);
            for (const std::uint32_t v :
                 {data.serial, data.refresh, data.retry, data.expire, data.minimum}) {
              w.write_u32(v);
            }
          } else if constexpr (std::is_same_v<T, TxtRdata>) {
            for (const auto& text : data.strings) {
              w.write_u8(static_cast<std::uint8_t>(text.size()));
              w.write_string(text);
            }
          } else {
            w.write_bytes(data.bytes);
          }
        },
        rr.rdata);
    w.patch_u16(rdlength_at, static_cast<std::uint16_t>(w.size() - rdlength_at - 2));
  };
  for (const auto& rr : m.answers) write_rr(rr);
  for (const auto& rr : m.authority) write_rr(rr);
  for (const auto& rr : m.additional) write_rr(rr);
  if (m.edns) {
    Message opt_only;
    opt_only.edns = m.edns;
    const std::vector<std::uint8_t> opt = opt_only.encode();
    w.write_bytes(std::span(opt).subspan(12));
  }
  return w.take();
}

ResourceRecord random_record(net::Rng& rng, const std::vector<std::string>& pool) {
  const DnsName owner = codec_oracle::random_name(rng, pool);
  const auto ttl = static_cast<std::uint32_t>(rng.uniform(86400));
  switch (rng.uniform(6)) {
    case 0:
      return ResourceRecord::a(owner, net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                               ttl);
    case 1:
      return ResourceRecord::cname(owner, codec_oracle::random_name(rng, pool), ttl);
    case 2:
      return ResourceRecord::ptr(owner, codec_oracle::random_name(rng, pool), ttl);
    case 3:
      return ResourceRecord::ns(owner, codec_oracle::random_name(rng, pool), ttl);
    case 4: {
      SoaRdata soa;
      soa.mname = codec_oracle::random_name(rng, pool);
      soa.rname = codec_oracle::random_name(rng, pool);
      soa.serial = static_cast<std::uint32_t>(rng.next_u64());
      return ResourceRecord::soa(owner, soa, ttl);
    }
    default:
      return ResourceRecord::txt(owner, {std::string(rng.index(30), 't')}, ttl);
  }
}

Message random_message(net::Rng& rng, const std::vector<std::string>& pool,
                       std::size_t answers) {
  Message m;
  m.header.id = static_cast<std::uint16_t>(rng.uniform(0x10000));
  m.header.qr = true;
  m.questions.push_back({codec_oracle::random_name(rng, pool), RrType::kA, RrClass::kIn});
  for (std::size_t i = 0; i < answers; ++i) m.answers.push_back(random_record(rng, pool));
  for (std::size_t i = rng.index(3); i > 0; --i) m.authority.push_back(random_record(rng, pool));
  for (std::size_t i = rng.index(3); i > 0; --i) m.additional.push_back(random_record(rng, pool));
  if (rng.chance(0.7)) {
    m.edns = Edns{};
    m.edns->client_subnet = ClientSubnet::for_subnet(
        net::Prefix(net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), 24));
  }
  return m;
}

TEST(MessageWireOracle, RandomMessagesMatchReferenceCompressor) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    net::Rng rng = net::Rng::derive(0x3E55A6E, seed);
    const auto pool = codec_oracle::label_pool(rng, 16);
    const Message m = random_message(rng, pool, rng.index(8));
    SCOPED_TRACE(seed);
    const auto wire = m.encode();
    ASSERT_EQ(wire, oracle_encode(m));
    const Message back = Message::decode(wire);
    EXPECT_EQ(back.questions, m.questions);
    EXPECT_EQ(back.answers, m.answers);
    EXPECT_EQ(back.authority, m.authority);
    EXPECT_EQ(back.additional, m.additional);
  }
}

TEST(MessageWireOracle, MessagePast16KiBMatchesReferenceCompressor) {
  net::Rng rng = net::Rng::derive(0x3E55A6E, 10000);
  const auto pool = codec_oracle::label_pool(rng, 120);
  const Message m = random_message(rng, pool, 700);
  const auto wire = m.encode();
  ASSERT_GT(wire.size(), 0x4000u + 0x1000u);  // names start well past 0x4000
  ASSERT_EQ(wire, oracle_encode(m));
  const Message back = Message::decode(wire);
  EXPECT_EQ(back.answers, m.answers);
  EXPECT_EQ(back.authority, m.authority);
}

}  // namespace
}  // namespace drongo::dns
