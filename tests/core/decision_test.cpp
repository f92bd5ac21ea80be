// DecisionEngine: the §4.3 rules.
#include <gtest/gtest.h>

#include "core/decision.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"

namespace drongo::core {
namespace {

/// Builds a trial for `domain` where one usable hop with `subnet` observed
/// the given latency ratio (CRM fixed at 100 ms, deployment convention).
measure::TrialRecord trial(const std::string& domain, const net::Prefix& subnet,
                           double ratio) {
  measure::TrialRecord t;
  t.provider = "Test";
  t.domain = domain;
  t.cr.push_back({net::Ipv4Addr(21, 0, 0, 1), 100.0});
  measure::HopRecord hop;
  hop.subnet = subnet;
  hop.usable = true;
  hop.hr.push_back({net::Ipv4Addr(22, 0, 0, 1), ratio * 100.0});
  t.hops.push_back(std::move(hop));
  return t;
}

/// A trial with several hops at once.
measure::TrialRecord trial_multi(const std::string& domain,
                                 const std::vector<std::pair<net::Prefix, double>>& hops) {
  measure::TrialRecord t;
  t.provider = "Test";
  t.domain = domain;
  t.cr.push_back({net::Ipv4Addr(21, 0, 0, 1), 100.0});
  for (const auto& [subnet, ratio] : hops) {
    measure::HopRecord hop;
    hop.subnet = subnet;
    hop.usable = true;
    hop.hr.push_back({net::Ipv4Addr(22, 0, 0, 1), ratio * 100.0});
    t.hops.push_back(std::move(hop));
  }
  return t;
}

const net::Prefix kSubnetA = net::Prefix::must_parse("20.1.0.0/24");
const net::Prefix kSubnetB = net::Prefix::must_parse("20.2.0.0/24");

DrongoParams params(double vf, double vt, std::size_t window = 5) {
  DrongoParams p;
  p.min_valley_frequency = vf;
  p.valley_threshold = vt;
  p.window_size = window;
  return p;
}

TEST(DecisionEngineTest, NoDataMeansNoAssimilation) {
  DecisionEngine engine(params(1.0, 0.95));
  EXPECT_FALSE(engine.choose("img.cdn.sim").has_value());
}

TEST(DecisionEngineTest, PartialWindowIsInsufficientData) {
  DecisionEngine engine(params(1.0, 0.95));
  for (int i = 0; i < 4; ++i) {
    engine.observe(trial("img.cdn.sim", kSubnetA, 0.5));
  }
  // Four perfect valleys but the window holds five: not enough.
  EXPECT_FALSE(engine.choose("img.cdn.sim").has_value());
  engine.observe(trial("img.cdn.sim", kSubnetA, 0.5));
  EXPECT_EQ(engine.choose("img.cdn.sim"), kSubnetA);
}

TEST(DecisionEngineTest, FrequencyThresholdGates) {
  // vf = 1.0 requires a valley in every window trial.
  DecisionEngine strict(params(1.0, 0.95));
  for (int i = 0; i < 4; ++i) strict.observe(trial("d.sim", kSubnetA, 0.5));
  strict.observe(trial("d.sim", kSubnetA, 1.2));  // one miss
  EXPECT_FALSE(strict.choose("d.sim").has_value());

  // vf = 0.8 tolerates exactly that.
  DecisionEngine lenient(params(0.8, 0.95));
  for (int i = 0; i < 4; ++i) lenient.observe(trial("d.sim", kSubnetA, 0.5));
  lenient.observe(trial("d.sim", kSubnetA, 1.2));
  EXPECT_EQ(lenient.choose("d.sim"), kSubnetA);
}

TEST(DecisionEngineTest, ValleyThresholdGates) {
  // Ratios of 0.9: valleys at vt 0.95 but not at vt 0.85.
  DecisionEngine strict(params(1.0, 0.85));
  DecisionEngine loose(params(1.0, 0.95));
  for (int i = 0; i < 5; ++i) {
    strict.observe(trial("d.sim", kSubnetA, 0.9));
    loose.observe(trial("d.sim", kSubnetA, 0.9));
  }
  EXPECT_FALSE(strict.choose("d.sim").has_value());
  EXPECT_EQ(loose.choose("d.sim"), kSubnetA);
}

TEST(DecisionEngineTest, HighestFrequencyWins) {
  DecisionEngine engine(params(0.2, 1.0));
  for (int i = 0; i < 5; ++i) {
    // A valleys every time; B only twice.
    engine.observe(trial_multi("d.sim", {{kSubnetA, 0.8}, {kSubnetB, i < 2 ? 0.7 : 1.1}}));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(engine.choose("d.sim"), kSubnetA);
  }
}

TEST(DecisionEngineTest, TiesBrokenAcrossBothCandidates) {
  DecisionEngine engine(params(1.0, 1.0), /*seed=*/12345);
  for (int i = 0; i < 5; ++i) {
    engine.observe(trial_multi("d.sim", {{kSubnetA, 0.8}, {kSubnetB, 0.8}}));
  }
  std::set<net::Prefix> chosen;
  for (int i = 0; i < 50; ++i) {
    chosen.insert(*engine.choose("d.sim"));
  }
  EXPECT_EQ(chosen.size(), 2u);  // random tie-break hits both eventually
}

TEST(DecisionEngineTest, DomainsAreIsolated) {
  DecisionEngine engine(params(1.0, 0.95));
  for (int i = 0; i < 5; ++i) {
    engine.observe(trial("one.sim", kSubnetA, 0.5));
  }
  EXPECT_TRUE(engine.choose("one.sim").has_value());
  EXPECT_FALSE(engine.choose("other.sim").has_value());
  // Domain matching is case-insensitive.
  EXPECT_TRUE(engine.choose("ONE.sim").has_value());
}

TEST(DecisionEngineTest, UnusableHopsAreNotTracked) {
  DecisionEngine engine(params(0.2, 1.0));
  auto t = trial("d.sim", kSubnetA, 0.5);
  t.hops[0].usable = false;
  for (int i = 0; i < 5; ++i) engine.observe(t);
  EXPECT_FALSE(engine.choose("d.sim").has_value());
  EXPECT_EQ(engine.tracked_windows(), 0u);
}

TEST(DecisionEngineTest, ZeroFrequencyCandidateNeverChosen) {
  // Even at min_valley_frequency = 0, a subnet with no valleys must not be
  // picked (assimilation needs evidence of benefit).
  DecisionEngine engine(params(0.0, 1.0));
  for (int i = 0; i < 5; ++i) engine.observe(trial("d.sim", kSubnetA, 1.2));
  EXPECT_FALSE(engine.choose("d.sim").has_value());
}

TEST(DecisionEngineTest, CandidatesIntrospection) {
  DecisionEngine engine(params(0.6, 1.0));
  for (int i = 0; i < 5; ++i) {
    engine.observe(trial_multi("d.sim", {{kSubnetA, 0.8}, {kSubnetB, i < 2 ? 0.7 : 1.1}}));
  }
  const auto candidates = engine.candidates("d.sim");
  ASSERT_EQ(candidates.size(), 2u);
  for (const auto& c : candidates) {
    if (c.subnet == kSubnetA) {
      EXPECT_DOUBLE_EQ(c.valley_frequency, 1.0);
      EXPECT_TRUE(c.qualified);
    } else {
      EXPECT_DOUBLE_EQ(c.valley_frequency, 0.4);
      EXPECT_FALSE(c.qualified);
    }
  }
  EXPECT_TRUE(engine.candidates("unknown.sim").empty());
}

TEST(DecisionEngineTest, WindowSlidesWithNewEvidence) {
  DecisionEngine engine(params(1.0, 0.95));
  for (int i = 0; i < 5; ++i) engine.observe(trial("d.sim", kSubnetA, 0.5));
  EXPECT_TRUE(engine.choose("d.sim").has_value());
  // Five non-valleys push the old evidence out.
  for (int i = 0; i < 5; ++i) engine.observe(trial("d.sim", kSubnetA, 1.5));
  EXPECT_FALSE(engine.choose("d.sim").has_value());
}

TEST(PeerShareTest, HouseholdSharingFillsTheIdleDeviceForFree) {
  // Two devices behind one /24 (the paper's §7 "clients in the same
  // subnet"): device A runs the trials and both engines observe them, so
  // device B reaches the same windows without measuring once.
  measure::TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 8;
  config.as_config.stub_count = 30;
  config.client_count = 2;
  config.seed = 73;
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 74);
  DecisionEngine device_a(DrongoParams{}, 1);
  DecisionEngine device_b(DrongoParams{}, 1);

  std::string domain;
  for (int t = 0; t < 5; ++t) {
    const auto trial =
        runner.run(/*client=*/0, /*provider=*/0, t * 12.0, /*label_index=*/0);
    domain = trial.domain;
    device_a.observe(trial);
    device_b.observe(trial);
  }
  const auto a_candidates = device_a.candidates(domain);
  const auto b_candidates = device_b.candidates(domain);
  ASSERT_FALSE(a_candidates.empty());
  ASSERT_EQ(a_candidates.size(), b_candidates.size());
  bool any_full = false;
  for (std::size_t i = 0; i < a_candidates.size(); ++i) {
    EXPECT_EQ(a_candidates[i].subnet, b_candidates[i].subnet);
    EXPECT_DOUBLE_EQ(a_candidates[i].valley_frequency, b_candidates[i].valley_frequency);
    any_full |= a_candidates[i].observations == 5;
  }
  EXPECT_TRUE(any_full);
}

TEST(DecisionEngineTest, ParameterValidation) {
  EXPECT_THROW(DecisionEngine(params(1.0, 0.0)), net::InvalidArgument);
  EXPECT_THROW(DecisionEngine(params(1.0, 1.5)), net::InvalidArgument);
  EXPECT_THROW(DecisionEngine(params(-0.1, 0.95)), net::InvalidArgument);
  EXPECT_THROW(DecisionEngine(params(1.1, 0.95)), net::InvalidArgument);
  EXPECT_NO_THROW(DecisionEngine(params(0.0, 1.0)));
}

}  // namespace
}  // namespace drongo::core
