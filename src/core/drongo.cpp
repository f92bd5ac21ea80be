#include "core/drongo.hpp"

#include <algorithm>
#include <limits>

#include "measure/schedule.hpp"
#include "net/error.hpp"

namespace drongo::core {

namespace {

/// How many future trials the schedule keeps queued per watched domain.
constexpr int kHorizonTrials = 8;

}  // namespace

DrongoClient::DrongoClient(DrongoParams params, std::uint64_t seed)
    : engine_(params, seed), next_zone_seed_(seed + 1), schedule_rng_(seed ^ 0x5C4ED) {}

std::vector<measure::TrialRecord> DrongoClient::train(measure::TrialRunner& runner,
                                                      std::size_t client_index,
                                                      std::size_t provider_index,
                                                      int trials, double spacing_hours,
                                                      double start_time_hours,
                                                      std::size_t label_index) {
  std::vector<measure::TrialRecord> records;
  records.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    records.push_back(runner.run(client_index, provider_index,
                                 start_time_hours + t * spacing_hours, label_index));
    observe(records.back());
  }
  return records;
}

void DrongoClient::observe(const measure::TrialRecord& trial) {
  DecisionEngine* engine = &engine_;
  if (!zones_.empty()) {
    if (const auto domain = dns::DnsName::parse(trial.domain)) engine = &engine_for(*domain);
  }
  engine->observe(trial);
  if (store_ != nullptr) store_->contribute(cluster_, trial);
}

void DrongoClient::schedule_more(std::size_t index) {
  Watched& watched = watched_[index];
  // One time past the horizon is where the schedule continues, so a top-up
  // never repeats a time already queued (or already run).
  const auto times = measure::sporadic_trial_times(kHorizonTrials + 1, schedule_rng_,
                                                   watched.next_hours);
  for (int i = 0; i < kHorizonTrials; ++i) queue_.emplace(times[i], index);
  watched.queued += kHorizonTrials;
  watched.next_hours = times.back();
}

void DrongoClient::watch(const WatchedDomain& domain, double now_hours) {
  // Guard against duplicate registrations: a second watch() for the same
  // domain would double-schedule its trials (and keep doubling the cadence
  // every time the horizon tops up).
  if (std::ranges::find(watched_, domain, &Watched::domain) != watched_.end()) return;
  watched_.push_back({domain, std::max(now_hours, clock_hours_)});
  schedule_more(watched_.size() - 1);
}

std::vector<measure::TrialRecord> DrongoClient::advance_to(measure::TrialRunner& runner,
                                                           std::size_t client_index,
                                                           double now_hours) {
  if (now_hours < clock_hours_) {
    throw net::InvalidArgument("schedule clock cannot move backwards");
  }
  clock_hours_ = now_hours;
  std::vector<measure::TrialRecord> records;
  while (!queue_.empty() && queue_.begin()->first <= clock_hours_) {
    const auto [when, index] = *queue_.begin();
    queue_.erase(queue_.begin());
    const WatchedDomain domain = watched_[index].domain;
    records.push_back(
        runner.run(client_index, domain.provider_index, when, domain.label_index));
    observe(records.back());
    // Keep the horizon topped up, so a long advance_to (a machine left
    // running) keeps a steady sporadic cadence across the whole interval.
    if (--watched_[index].queued < kHorizonTrials / 2) schedule_more(index);
  }
  return records;
}

double DrongoClient::next_wakeup_hours() const {
  return queue_.empty() ? std::numeric_limits<double>::infinity() : queue_.begin()->first;
}

void DrongoClient::set_zone_params(const dns::DnsName& zone, DrongoParams params) {
  auto engine = std::make_unique<DecisionEngine>(params, next_zone_seed_++);
  engine->set_registry(registry_);
  zones_[zone] = std::move(engine);
}

DecisionEngine& DrongoClient::engine_for(const dns::DnsName& domain) {
  DecisionEngine* best = &engine_;
  std::size_t best_labels = 0;
  for (auto& [zone, engine] : zones_) {
    if (domain.is_subdomain_of(zone) && zone.label_count() >= best_labels) {
      best = engine.get();
      best_labels = zone.label_count();
    }
  }
  return *best;
}

std::optional<net::Prefix> DrongoClient::choose_subnet(const dns::DnsName& domain) {
  const auto key = domain.to_string();
  if (auto own = engine_for(domain).choose(key)) return own;
  if (store_ == nullptr) return std::nullopt;
  auto shared = store_->choose(cluster_, key);
  if (shared) {
    ++shared_assimilations_;
    note("core.drongo.shared_assimilations");
  }
  return shared;
}

std::optional<net::Prefix> DrongoClient::count_choice(const dns::DnsName& domain) {
  ++total_;
  note("core.drongo.queries");
  auto choice = choose_subnet(domain);
  if (choice) {
    ++assimilated_;
    note("core.drongo.assimilated");
  }
  return choice;
}

dns::ResolutionResult DrongoClient::resolve(dns::StubResolver& stub,
                                            const dns::DnsName& domain) {
  if (const auto subnet = count_choice(domain)) {
    // Assimilation is an optimization, never a dependency: when the
    // assimilated resolution cannot produce an answer (retries exhausted or
    // the server kept failing), fall back to an ordinary own-subnet
    // resolution — the client ends up exactly where it would be without
    // Drongo. A fallback failure then propagates: the network is down for
    // everyone.
    try {
      const auto result = stub.resolve(domain, *subnet);
      if (!result.server_failure()) return result;
    } catch (const net::TransientError&) {
    }
    ++assimilation_fallbacks_;
    note("core.drongo.assimilation_fallbacks");
  }
  return stub.resolve_with_own_subnet(domain);
}

void DrongoClient::enable_gwtw(int k) {
  if (k < 0) throw net::InvalidArgument("gwtw k must be >= 0");
  gwtw_k_ = k;
  if (k >= 2) {
    RaceConfig config;
    config.k = k;
    racer_ = std::make_unique<ReplicaRacer>(config);
    racer_->set_registry(registry_);
  } else {
    racer_.reset();
  }
}

RacedResolution DrongoClient::resolve_racing(dns::StubResolver& stub,
                                             const dns::DnsName& domain,
                                             topology::World& world, net::Rng& rng) {
  RacedResolution out;
  out.resolution = resolve(stub, domain);
  if (out.resolution.addresses.empty()) return out;
  out.chosen = out.resolution.addresses.front();
  if (racer_ != nullptr && out.resolution.addresses.size() > 1) {
    out.race = racer_->race(world, stub.client_address(), out.resolution.addresses, rng);
    out.chosen = out.race->winner();
  }
  return out;
}

std::optional<net::Prefix> DrongoClient::select_subnet(const dns::DnsName& domain,
                                                       const net::Prefix& /*client*/) {
  return count_choice(domain);
}

}  // namespace drongo::core
