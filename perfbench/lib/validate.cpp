#include "validate.hpp"

#include "net/error.hpp"

namespace perfbench {

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kUndecodable: return "undecodable";
    case Verdict::kNotResponse: return "not a response";
    case Verdict::kWrongId: return "wrong id";
    case Verdict::kWrongQuestion: return "wrong question";
    case Verdict::kNotNoError: return "rcode not NOERROR";
    case Verdict::kNoEcs: return "no ECS option";
    case Verdict::kWrongEcsSource: return "ECS source not echoed";
    case Verdict::kScopeTooLong: return "ECS scope longer than source";
  }
  return "?";
}

Verdict validate_reply(const dns::Message& reply, const Expectation& expected) {
  if (!reply.header.qr) return Verdict::kNotResponse;
  if (reply.header.id != expected.id) return Verdict::kWrongId;
  if (reply.questions.size() != 1 || reply.questions[0].name != expected.qname ||
      reply.questions[0].type != dns::RrType::kA ||
      reply.questions[0].klass != dns::RrClass::kIn) {
    return Verdict::kWrongQuestion;
  }
  if (reply.header.rcode != dns::Rcode::kNoError) return Verdict::kNotNoError;
  if (!reply.edns || !reply.edns->client_subnet) return Verdict::kNoEcs;
  const dns::ClientSubnet& ecs = *reply.edns->client_subnet;
  if (ecs.family != 1 || ecs.source_prefix_length != expected.subnet.length() ||
      ecs.source_prefix() != net::IpPrefix(expected.subnet)) {
    return Verdict::kWrongEcsSource;
  }
  if (ecs.scope_prefix_length > ecs.source_prefix_length) return Verdict::kScopeTooLong;
  return Verdict::kOk;
}

Verdict validate_wire(std::span<const std::uint8_t> wire, const Expectation& expected,
                      dns::Message& decoded) {
  try {
    decoded = dns::Message::decode(wire);
  } catch (const net::Error&) {
    return Verdict::kUndecodable;
  }
  return validate_reply(decoded, expected);
}

bool same_answer(const dns::Message& a, const dns::Message& b) {
  if (a.header.rcode != b.header.rcode) return false;
  const int scope_a = a.edns && a.edns->client_subnet
                          ? a.edns->client_subnet->scope_prefix_length
                          : -1;
  const int scope_b = b.edns && b.edns->client_subnet
                          ? b.edns->client_subnet->scope_prefix_length
                          : -1;
  return scope_a == scope_b && a.answer_addresses() == b.answer_addresses();
}

}  // namespace perfbench
