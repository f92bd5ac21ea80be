// DrongoClient's background schedule (§4.2): watched domains, the clock,
// the horizon top-up, crowd contribution and restart persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "core/drongo.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"

namespace drongo::core {
namespace {

class DaemonFixture : public ::testing::Test {
 protected:
  DaemonFixture() : testbed_(config()), runner_(&testbed_, 131) {}

  static measure::TestbedConfig config() {
    measure::TestbedConfig c;
    c.as_config.tier1_count = 4;
    c.as_config.tier2_count = 8;
    c.as_config.stub_count = 30;
    c.client_count = 3;
    c.seed = 131;
    return c;
  }

  static DrongoParams lenient() {
    DrongoParams params;
    params.min_valley_frequency = 0.2;
    params.valley_threshold = 1.0;
    return params;
  }

  measure::Testbed testbed_;
  measure::TrialRunner runner_;
};

TEST_F(DaemonFixture, RunsScheduledTrialsAsClockAdvances) {
  DrongoClient drongo({}, 7);
  drongo.watch({0, 0});
  EXPECT_TRUE(std::isfinite(drongo.next_wakeup_hours()));
  EXPECT_EQ(drongo.engine().tracked_windows(), 0u);

  const auto records = drongo.advance_to(runner_, 0, 24.0);
  EXPECT_FALSE(records.empty());
  for (const auto& record : records) EXPECT_LE(record.time_hours, 24.0);
  EXPECT_GT(drongo.engine().tracked_windows(), 0u);
}

TEST_F(DaemonFixture, HorizonIsToppedUpIndefinitely) {
  DrongoClient drongo({}, 7);
  drongo.watch({0, 0});
  // Far beyond the initial horizon of 8: the schedule must keep topping up.
  const auto records = drongo.advance_to(runner_, 0, 24.0 * 30);
  EXPECT_GT(records.size(), 8u);
  EXPECT_TRUE(std::isfinite(drongo.next_wakeup_hours()));
  EXPECT_GT(drongo.next_wakeup_hours(), 24.0 * 30 - 72.0);
}

TEST_F(DaemonFixture, ScheduledTrialTimesStrictlyIncreasePerDomain) {
  // Regression: a horizon top-up used to restart the domain's schedule at
  // the trial just run, and sporadic_trial_times returns its start time
  // first — so that trial ran a second time at the same instant.
  DrongoClient drongo({}, 7);
  drongo.watch({0, 0});
  drongo.watch({1, 0});
  const auto records = drongo.advance_to(runner_, 0, 24.0 * 30);
  std::map<std::string, std::vector<double>> times;
  for (const auto& record : records) times[record.domain].push_back(record.time_hours);
  ASSERT_EQ(times.size(), 2u);
  for (const auto& [domain, series] : times) {
    EXPECT_GT(series.size(), 8u) << domain;
    EXPECT_TRUE(std::ranges::adjacent_find(series, std::greater_equal<>()) == series.end())
        << domain << " has a repeated or out-of-order trial time";
  }
}

TEST_F(DaemonFixture, MultipleWatchedDomainsInterleave) {
  DrongoClient drongo({}, 7);
  drongo.watch({0, 0});
  drongo.watch({1, 0});
  drongo.advance_to(runner_, 0, 24.0 * 7);
  // Both providers' domains end up with windows.
  const auto d0 = testbed_.content_names(0)[0].to_string();
  const auto d1 = testbed_.content_names(1)[0].to_string();
  EXPECT_FALSE(drongo.engine().candidates(d0).empty());
  EXPECT_FALSE(drongo.engine().candidates(d1).empty());
}

TEST_F(DaemonFixture, DuplicateWatchDoesNotDoubleSchedule) {
  // Regression: a second watch() for the same domain used to append a whole
  // second trial schedule, doubling the cadence (and re-doubling at every
  // horizon top-up). Two clients with identical seeds must run the same
  // number of trials whether the domain was registered once or three times.
  DrongoClient once({}, 7);
  once.watch({0, 0});
  DrongoClient thrice({}, 7);
  thrice.watch({0, 0});
  thrice.watch({0, 0});
  thrice.watch({0, 0}, /*now_hours=*/12.0);
  EXPECT_EQ(thrice.watched_count(), 1u);

  EXPECT_EQ(thrice.advance_to(runner_, 0, 24.0 * 7).size(),
            once.advance_to(runner_, 0, 24.0 * 7).size());

  // A genuinely different domain still registers.
  thrice.watch({1, 0});
  EXPECT_EQ(thrice.watched_count(), 2u);
}

TEST_F(DaemonFixture, SelectorAnswersFromLearnedState) {
  DrongoClient drongo(lenient(), 7);
  drongo.watch({0, 0});
  drongo.advance_to(runner_, 0, 24.0 * 7);
  const auto domain = testbed_.content_names(0)[0];
  const auto candidates = drongo.engine_for(domain).candidates(domain.to_string());
  double best_frequency = -1.0;
  for (const auto& candidate : candidates) {
    if (candidate.qualified) best_frequency = std::max(best_frequency, candidate.valley_frequency);
  }
  // A week of trials under lenient parameters qualifies some subnet here.
  ASSERT_GE(best_frequency, 0.0);

  const auto choice = drongo.select_subnet(domain, net::Prefix(testbed_.clients()[0], 24));
  ASSERT_TRUE(choice.has_value());
  const auto chosen = std::ranges::find(candidates, *choice,
                                        &DecisionEngine::Candidate::subnet);
  ASSERT_NE(chosen, candidates.end());
  EXPECT_TRUE(chosen->qualified);
  EXPECT_DOUBLE_EQ(chosen->valley_frequency, best_frequency);
  EXPECT_EQ(drongo.assimilated_queries(), 1u);

  // nullopt exactly when nothing qualifies: a never-watched domain.
  const auto untrained = testbed_.content_names(1)[0];
  EXPECT_TRUE(drongo.engine_for(untrained).candidates(untrained.to_string()).empty());
  EXPECT_FALSE(drongo.select_subnet(untrained, net::Prefix(testbed_.clients()[0], 24)));
  EXPECT_EQ(drongo.total_queries(), 2u);
}

TEST_F(DaemonFixture, ClockCannotMoveBackwards) {
  DrongoClient drongo({}, 7);
  drongo.watch({0, 0});
  drongo.advance_to(runner_, 0, 10.0);
  EXPECT_THROW(drongo.advance_to(runner_, 0, 5.0), net::InvalidArgument);
}

TEST_F(DaemonFixture, StateSurvivesRestart) {
  DrongoClient first(lenient(), 7);
  first.watch({0, 0});
  first.advance_to(runner_, 0, 24.0 * 7);
  std::stringstream state;
  first.engine().save(state);

  DrongoClient second(lenient(), 8);
  second.engine().load(state);
  const auto domain = testbed_.content_names(0)[0].to_string();
  const auto a = first.engine().candidates(domain);
  const auto b = second.engine().candidates(domain);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subnet, b[i].subnet);
    EXPECT_DOUBLE_EQ(a[i].valley_frequency, b[i].valley_frequency);
  }
}

TEST_F(DaemonFixture, ScheduledTrialsContributeToJoinedStore) {
  ValleyStore store;
  DrongoClient drongo({}, 7);
  drongo.share_via(&store, "cluster-a");
  drongo.watch({0, 0});
  drongo.watch({1, 0});
  const auto records = drongo.advance_to(runner_, 0, 24.0 * 7);
  const auto succeeded = std::ranges::count_if(
      records, [](const measure::TrialRecord& record) { return !record.failed(); });
  ASSERT_GT(succeeded, 0);
  EXPECT_EQ(store.stats().contributions, static_cast<std::uint64_t>(succeeded));
}

TEST_F(DaemonFixture, ConstructionValidation) {
  DrongoParams bad_threshold;
  bad_threshold.valley_threshold = 0.0;
  EXPECT_THROW(DrongoClient{bad_threshold}, net::InvalidArgument);
  DrongoParams bad_frequency;
  bad_frequency.min_valley_frequency = 1.5;
  EXPECT_THROW(DrongoClient{bad_frequency}, net::InvalidArgument);

  DrongoClient drongo;
  const auto zone = dns::DnsName::must_parse("alicdn.sim");
  EXPECT_THROW(drongo.set_zone_params(zone, bad_threshold), net::InvalidArgument);
  // A rejected zone configuration leaves the zone on the default engine.
  EXPECT_EQ(&drongo.engine_for(zone), &drongo.engine());
  EXPECT_THROW(drongo.enable_gwtw(-1), net::InvalidArgument);
}

}  // namespace
}  // namespace drongo::core
