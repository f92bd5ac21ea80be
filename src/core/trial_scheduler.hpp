// TrialScheduler: the long-running client process (§4 + §4.2 together).
//
// A deployed Drongo is not a one-shot trainer: it sits on the machine,
// schedules idle-time trials sporadically across all the domains it serves,
// persists its windows across restarts, and answers the proxy's selector
// queries at any moment from whatever it has learned so far. This class is
// that process, driven by an explicit simulated clock so it is fully
// testable.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/drongo.hpp"
#include "measure/schedule.hpp"
#include "measure/trial.hpp"

namespace drongo::core {

/// One domain the scheduler maintains: a (provider, content label) the client
/// actually uses.
struct WatchedDomain {
  std::size_t provider_index = 0;
  std::size_t label_index = 0;

  friend bool operator==(const WatchedDomain&, const WatchedDomain&) = default;
};

struct TrialSchedulerConfig {
  DrongoParams params;
  measure::SporadicScheduleConfig schedule;
  /// How many future trials to keep scheduled per domain.
  int horizon_trials = 8;
};

/// Clock-driven trial scheduler + decision engine for one client machine.
class TrialScheduler : public dns::SubnetSelector {
 public:
  /// `runner` is borrowed and must outlive the scheduler.
  TrialScheduler(measure::TrialRunner* runner, std::size_t client_index,
               TrialSchedulerConfig config = {}, std::uint64_t seed = 17);

  /// Registers a domain for background maintenance; trials for it are
  /// scheduled from `now_hours` on. Watching an already-watched domain is
  /// a no-op — a re-registration must not double-schedule its trials.
  void watch(const WatchedDomain& domain, double now_hours = 0.0);

  /// Domains currently under background maintenance.
  [[nodiscard]] std::size_t watched_count() const { return watched_.size(); }

  /// Advances the scheduler's clock to `now_hours`, executing every trial
  /// whose scheduled time has arrived (the "idle time" work). Returns the
  /// number of trials run.
  int advance_to(double now_hours);

  /// Next scheduled trial time across all watched domains; +inf when
  /// nothing is scheduled.
  [[nodiscard]] double next_wakeup_hours() const;

  /// The selector the LDNS proxy calls.
  std::optional<net::Prefix> select_subnet(const dns::DnsName& domain,
                                           const net::Prefix& client_subnet) override;

  [[nodiscard]] DecisionEngine& engine() { return engine_; }
  [[nodiscard]] std::uint64_t trials_run() const { return trials_run_; }

  /// Persistence: engine windows only (schedules are rebuilt on restart —
  /// a real client reschedules around current idle time anyway).
  void save(std::ostream& out) const { engine_.save(out); }
  void load(std::istream& in) { engine_.load(in); }

 private:
  struct Pending {
    double when_hours;
    WatchedDomain domain;
  };

  void schedule_more(const WatchedDomain& domain, double from_hours);

  measure::TrialRunner* runner_;
  std::size_t client_index_;
  TrialSchedulerConfig config_;
  net::Rng rng_;
  DecisionEngine engine_;
  std::vector<WatchedDomain> watched_;  // registration order, no duplicates
  std::vector<Pending> queue_;          // kept sorted by when_hours
  double clock_hours_ = 0.0;
  std::uint64_t trials_run_ = 0;
};

}  // namespace drongo::core
