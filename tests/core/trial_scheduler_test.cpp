#include "core/trial_scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

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

  measure::Testbed testbed_;
  measure::TrialRunner runner_;
};

TEST_F(DaemonFixture, RunsScheduledTrialsAsClockAdvances) {
  TrialScheduler scheduler(&runner_, 0, {}, 7);
  scheduler.watch({0, 0});
  EXPECT_TRUE(std::isfinite(scheduler.next_wakeup_hours()));
  EXPECT_EQ(scheduler.trials_run(), 0u);

  const int ran = scheduler.advance_to(24.0);
  EXPECT_GT(ran, 0);
  EXPECT_EQ(scheduler.trials_run(), static_cast<std::uint64_t>(ran));
  EXPECT_GT(scheduler.engine().tracked_windows(), 0u);
}

TEST_F(DaemonFixture, HorizonIsToppedUpIndefinitely) {
  TrialSchedulerConfig config;
  config.horizon_trials = 4;
  TrialScheduler scheduler(&runner_, 0, config, 7);
  scheduler.watch({0, 0});
  // Far beyond the initial horizon: the scheduler must keep rescheduling.
  scheduler.advance_to(24.0 * 30);
  EXPECT_GT(scheduler.trials_run(), 8u);
  EXPECT_TRUE(std::isfinite(scheduler.next_wakeup_hours()));
  EXPECT_GT(scheduler.next_wakeup_hours(), 24.0 * 30 - 72.0);
}

TEST_F(DaemonFixture, MultipleWatchedDomainsInterleave) {
  TrialScheduler scheduler(&runner_, 0, {}, 7);
  scheduler.watch({0, 0});
  scheduler.watch({1, 0});
  scheduler.advance_to(24.0 * 7);
  // Both providers' domains end up with windows.
  const auto d0 = testbed_.content_names(0)[0].to_string();
  const auto d1 = testbed_.content_names(1)[0].to_string();
  EXPECT_FALSE(scheduler.engine().candidates(d0).empty());
  EXPECT_FALSE(scheduler.engine().candidates(d1).empty());
}

TEST_F(DaemonFixture, DuplicateWatchDoesNotDoubleSchedule) {
  // Regression: a second watch() for the same domain used to append a whole
  // second trial schedule, doubling the cadence (and re-doubling at every
  // horizon top-up). Two schedulers with identical seeds must run the same
  // number of trials whether the domain was registered once or three times.
  TrialScheduler once(&runner_, 0, {}, 7);
  once.watch({0, 0});
  TrialScheduler thrice(&runner_, 0, {}, 7);
  thrice.watch({0, 0});
  thrice.watch({0, 0});
  thrice.watch({0, 0}, /*now_hours=*/12.0);
  EXPECT_EQ(thrice.watched_count(), 1u);

  once.advance_to(24.0 * 7);
  thrice.advance_to(24.0 * 7);
  EXPECT_EQ(thrice.trials_run(), once.trials_run());

  // A genuinely different domain still registers.
  thrice.watch({1, 0});
  EXPECT_EQ(thrice.watched_count(), 2u);
}

TEST_F(DaemonFixture, SelectorAnswersFromLearnedState) {
  TrialSchedulerConfig config;
  config.params.min_valley_frequency = 0.2;
  config.params.valley_threshold = 1.0;
  TrialScheduler scheduler(&runner_, 0, config, 7);
  scheduler.watch({0, 0});
  scheduler.advance_to(24.0 * 7);
  const auto domain = testbed_.content_names(0)[0];
  // With a week of trials and lenient parameters, some candidate usually
  // qualifies; either way the call must be well-formed (no throw).
  EXPECT_NO_THROW(scheduler.select_subnet(domain, net::Prefix(testbed_.clients()[0], 24)));
}

TEST_F(DaemonFixture, ClockCannotMoveBackwards) {
  TrialScheduler scheduler(&runner_, 0, {}, 7);
  scheduler.watch({0, 0});
  scheduler.advance_to(10.0);
  EXPECT_THROW(scheduler.advance_to(5.0), net::InvalidArgument);
}

TEST_F(DaemonFixture, StateSurvivesRestart) {
  TrialSchedulerConfig config;
  config.params.min_valley_frequency = 0.2;
  config.params.valley_threshold = 1.0;
  TrialScheduler first(&runner_, 0, config, 7);
  first.watch({0, 0});
  first.advance_to(24.0 * 7);
  std::stringstream state;
  first.save(state);

  TrialScheduler second(&runner_, 0, config, 8);
  second.load(state);
  const auto domain = testbed_.content_names(0)[0].to_string();
  const auto a = first.engine().candidates(domain);
  const auto b = second.engine().candidates(domain);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subnet, b[i].subnet);
    EXPECT_DOUBLE_EQ(a[i].valley_frequency, b[i].valley_frequency);
  }
}

TEST_F(DaemonFixture, ConstructionValidation) {
  EXPECT_THROW(TrialScheduler(nullptr, 0), net::InvalidArgument);
  TrialSchedulerConfig bad;
  bad.horizon_trials = 0;
  EXPECT_THROW(TrialScheduler(&runner_, 0, bad), net::InvalidArgument);
}

}  // namespace
}  // namespace drongo::core
