#include "core/trial_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "net/error.hpp"

namespace drongo::core {

TrialScheduler::TrialScheduler(measure::TrialRunner* runner, std::size_t client_index,
                           TrialSchedulerConfig config, std::uint64_t seed)
    : runner_(runner),
      client_index_(client_index),
      config_(config),
      rng_(seed),
      engine_(config.params, seed ^ 0xDA3) {
  if (runner_ == nullptr) throw net::InvalidArgument("null TrialRunner");
  if (config_.horizon_trials < 1) throw net::InvalidArgument("horizon must be >= 1");
}

void TrialScheduler::schedule_more(const WatchedDomain& domain, double from_hours) {
  const auto times =
      measure::sporadic_trial_times(config_.horizon_trials, rng_, from_hours,
                                    config_.schedule);
  for (double when : times) {
    queue_.push_back({when, domain});
  }
  std::sort(queue_.begin(), queue_.end(),
            [](const Pending& a, const Pending& b) { return a.when_hours < b.when_hours; });
}

void TrialScheduler::watch(const WatchedDomain& domain, double now_hours) {
  // Guard against duplicate registrations: a second watch() for the same
  // domain would double-schedule its trials (and keep doubling the cadence
  // every time the horizon tops up).
  if (std::find(watched_.begin(), watched_.end(), domain) != watched_.end()) return;
  watched_.push_back(domain);
  schedule_more(domain, std::max(now_hours, clock_hours_));
}

int TrialScheduler::advance_to(double now_hours) {
  if (now_hours < clock_hours_) {
    throw net::InvalidArgument("scheduler clock cannot move backwards");
  }
  clock_hours_ = now_hours;
  int executed = 0;
  while (!queue_.empty() && queue_.front().when_hours <= clock_hours_) {
    const Pending pending = queue_.front();
    queue_.erase(queue_.begin());
    const auto trial = runner_->run(client_index_, pending.domain.provider_index,
                                    pending.when_hours, pending.domain.label_index);
    engine_.observe(trial);
    ++trials_run_;
    ++executed;
    // Keep the horizon topped up: when a domain's queue drains below the
    // horizon, extend its schedule from the last executed point.
    const auto remaining = std::count_if(
        queue_.begin(), queue_.end(), [&](const Pending& p) {
          return p.domain.provider_index == pending.domain.provider_index &&
                 p.domain.label_index == pending.domain.label_index;
        });
    if (remaining < config_.horizon_trials / 2) {
      // Continue the domain's schedule from the trial just executed, so a
      // long advance_to (a machine left running) keeps a steady sporadic
      // cadence across the whole interval.
      schedule_more(pending.domain, pending.when_hours);
    }
  }
  return executed;
}

double TrialScheduler::next_wakeup_hours() const {
  return queue_.empty() ? std::numeric_limits<double>::infinity()
                        : queue_.front().when_hours;
}

std::optional<net::Prefix> TrialScheduler::select_subnet(const dns::DnsName& domain,
                                                       const net::Prefix&) {
  return engine_.choose(domain.to_string());
}

}  // namespace drongo::core
