// Reply checks for the serving workloads.
#pragma once

#include <cstdint>
#include <span>

#include "dns/message.hpp"
#include "net/prefix.hpp"

namespace perfbench {

namespace dns = drongo::dns;
namespace net = drongo::net;

/// What a reply to one generated query must echo.
struct Expectation {
  std::uint16_t id = 0;
  dns::DnsName qname;
  net::Prefix subnet;  ///< the ECS source the query announced
};

enum class Verdict : std::uint8_t {
  kOk,
  kUndecodable,
  kNotResponse,
  kWrongId,
  kWrongQuestion,
  kNotNoError,
  kNoEcs,
  kWrongEcsSource,
  kScopeTooLong,
};

const char* to_string(Verdict verdict);

/// Checks a decoded reply: QR set, id, the echoed question (qname, A, IN),
/// NOERROR, an ECS option echoing the source prefix, and an ECS scope no
/// longer than that source.
Verdict validate_reply(const dns::Message& reply, const Expectation& expected);

/// Decodes `wire` into `decoded` and validates it.
Verdict validate_wire(std::span<const std::uint8_t> wire, const Expectation& expected,
                      dns::Message& decoded);

/// True when two replies carry the same answer: rcode, ECS scope, and the
/// A addresses in answer order.
bool same_answer(const dns::Message& a, const dns::Message& b);

}  // namespace perfbench
