// Self-tests for the benchmark's own machinery: the percentile rule, the
// max-rate search, self-time arithmetic, span nesting and the reply
// validator. Every check of the benchmark must be able to fail, so the
// validator is fed corrupted replies here. Exits 1 on the first failure.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "validate.hpp"

using namespace perfbench;
using namespace drongo;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));  // unsorted
  return v;
}

void test_percentile_rule() {
  // 1000 samples 1..1000: p99 has exactly 10 samples beyond it.
  auto p = percentile(ramp(1000), 0.99);
  check(p.value == 990.0 && p.reported_p == 0.99 && p.samples == 1000, "p99 of 1000");
  // 500 samples: p99 would leave 5 beyond; the rule falls back to p98.
  p = percentile(ramp(500), 0.99);
  check(p.value == 490.0 && std::abs(p.reported_p - 0.98) < 1e-12 && p.samples == 500,
        "p99 of 500 reports p98");
  // Median needs no fallback.
  p = percentile(ramp(500), 0.50);
  check(p.value == 250.0 && p.reported_p == 0.5, "p50 of 500");
  // Ten or fewer samples: nothing has 10 beyond it; the minimum is reported.
  p = percentile(ramp(8), 0.99);
  check(p.value == 1.0 && p.samples == 8, "tiny sample reports its minimum");
  p = percentile({}, 0.99);
  check(p.samples == 0 && p.value == 0.0, "empty input");
  check(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
}

void test_max_rate_search() {
  // Synthetic latency curve: p99 = 0.2 ms + 0.8 ms * (rate / 120k)^4, so the
  // 1 ms limit is crossed at exactly 120k/s.
  const auto passes = [](double rate) {
    const double p99 = 0.2 + 0.8 * std::pow(rate / 120'000.0, 4.0);
    return p99 <= 1.0;
  };
  auto r = search_max_rate(passes, 10'000.0, 1e7);
  check(r.rate <= 120'000.0 && r.rate >= 120'000.0 / 1.03,
        "search lands within 3% below the knee, got " + std::to_string(r.rate));
  check(r.probes < 20, "search is bounded");
  r = search_max_rate(passes, 10'000.0, 1e7, 1.5, 0.03, 5);
  check(r.probes == 5 && r.rate > 0.0 && r.rate <= 120'000.0, "probe budget is honoured");
  // Start above the knee: the search walks down.
  r = search_max_rate(passes, 500'000.0, 1e7);
  check(r.rate <= 120'000.0 && r.rate >= 120'000.0 / 1.03, "search from above");
  // Nothing passes: 0. Everything passes: the ceiling.
  check(search_max_rate([](double) { return false; }, 1000.0, 1e6).rate == 0.0,
        "never passes");
  check(search_max_rate([](double) { return true; }, 1000.0, 50'000.0).rate == 50'000.0,
        "always passes");
}

void test_self_time() {
  // Parent [0, 100). Children overlap each other and stick out of it:
  // covered = [0,5) + [10,50) + [90,100) = 55.
  check(self_time_ns(0, 100, {{10, 30}, {20, 50}, {90, 120}, {-5, 5}}) == 45,
        "self time with overlapping children");
  check(self_time_ns(0, 100, {}) == 100, "no children");
  check(self_time_ns(0, 100, {{0, 100}, {10, 20}}) == 0, "fully covered");
  check(self_time_ns(0, 100, {{200, 300}}) == 100, "child outside the parent");
}

void test_span_nesting() {
  SpanLog log;
  const auto outer = log.name_id("outer");
  const auto inner = log.name_id("inner");
  { const ScopedSpan ignored(&log, outer, 7); }  // disabled: nothing recorded
  check(log.collect().empty(), "disabled log records nothing");
  log.set_enabled(true);
  {
    const ScopedSpan a(&log, outer, 42);
    const ScopedSpan b(&log, inner);
  }
  const auto spans = log.collect();
  check(spans.size() == 2, "two spans");
  if (spans.size() == 2) {
    const auto& o = spans[0].name == outer ? spans[0] : spans[1];
    const auto& i = spans[0].name == inner ? spans[0] : spans[1];
    check(o.parent == 0 && i.parent == o.span_id, "inner span's parent is the outer span");
    check(o.trace_id == 42 && i.trace_id == 42, "trace id inherited");
    check(i.start_ns >= o.start_ns && i.end_ns <= o.end_ns, "inner inside outer");
  }
  {
    const SpanSilence silence(true);
    const ScopedSpan ignored(&log, outer, 43);
  }
  check(log.collect().size() == 2, "a silenced thread records nothing");
}

void test_validator() {
  const auto name = dns::DnsName::must_parse("img.example-cdn.test");
  const auto subnet = net::Prefix::must_parse("20.1.2.0/24");
  const Expectation expected{0x1234, name, subnet};
  const auto query = dns::Message::make_query(0x1234, name, subnet);
  auto good = dns::Message::make_response(query, dns::Rcode::kNoError, 24);
  good.answers.push_back(dns::ResourceRecord::a(name, net::Ipv4Addr(9, 9, 9, 9)));
  dns::Message decoded;
  check(validate_wire(good.encode(), expected, decoded) == Verdict::kOk, "good reply passes");

  auto wrong_id = good;
  wrong_id.header.id = 0x4321;
  check(validate_reply(wrong_id, expected) == Verdict::kWrongId, "wrong id rejected");

  auto wrong_name = good;
  wrong_name.questions[0].name = dns::DnsName::must_parse("static.example-cdn.test");
  check(validate_reply(wrong_name, expected) == Verdict::kWrongQuestion,
        "wrong qname rejected");

  auto wide_scope = good;
  wide_scope.edns->client_subnet->scope_prefix_length = 25;
  check(validate_reply(wide_scope, expected) == Verdict::kScopeTooLong,
        "ECS scope longer than source rejected");

  auto other_source = dns::Message::make_response(
      dns::Message::make_query(0x1234, name, net::Prefix::must_parse("20.1.3.0/24")),
      dns::Rcode::kNoError, 24);
  check(validate_reply(other_source, expected) == Verdict::kWrongEcsSource,
        "ECS source not echoed rejected");

  check(validate_reply(dns::Message::make_response(query, dns::Rcode::kServFail), expected) ==
            Verdict::kNotNoError,
        "SERVFAIL rejected");

  auto no_ecs = good;
  no_ecs.edns.reset();
  check(validate_reply(no_ecs, expected) == Verdict::kNoEcs, "missing ECS rejected");

  check(validate_reply(query, expected) == Verdict::kNotResponse, "a query is not a reply");

  auto wire = good.encode();
  wire.resize(7);
  check(validate_wire(wire, expected, decoded) == Verdict::kUndecodable,
        "truncated wire rejected");

  auto other_answer = good;
  other_answer.answers[0] = dns::ResourceRecord::a(name, net::Ipv4Addr(8, 8, 8, 8));
  check(same_answer(good, good) && !same_answer(good, other_answer) &&
            !same_answer(good, wide_scope),
        "answer comparison sees address and scope changes");
}

void test_inputs() {
  auto a = make_rng(7, 1);
  auto b = make_rng(7, 1);
  auto c = make_rng(8, 1);
  check(a() == b() && make_rng(7, 1)() != c(), "rng streams are seeded");
  const ZipfSampler zipf(1000, 1.0);
  auto rng = make_rng(1, 2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[zipf(rng)];
  // Zipf(1): rank 0 draws ~13.4% of samples, rank 1 half that, rank 999 ~0.01%.
  check(counts[0] > 12'500 && counts[0] < 14'300 && counts[1] > 6'000 && counts[1] < 7'400 &&
            counts[999] < 60,
        "zipf sampler follows 1/k");
  const auto arrivals = poisson_arrivals(10'000.0, 2.0, rng);
  check(arrivals.size() > 19'000 && arrivals.size() < 21'000, "poisson count");
  bool sorted = true;
  for (std::size_t i = 1; i < arrivals.size(); ++i) sorted &= arrivals[i] >= arrivals[i - 1];
  check(sorted && arrivals.back() < 2'000'000'000, "arrivals ordered within the window");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_max_rate_search();
  test_self_time();
  test_span_nesting();
  test_validator();
  test_inputs();
  if (failures != 0) {
    std::cerr << failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
