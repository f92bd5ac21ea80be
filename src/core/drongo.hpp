// DrongoClient: the complete client-side system (§4).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/race.hpp"
#include "core/valley_store.hpp"
#include "dns/proxy.hpp"
#include "dns/stub_resolver.hpp"
#include "measure/trial.hpp"

namespace drongo::core {

/// A resolution plus the race that (optionally) picked its replica.
struct RacedResolution {
  dns::ResolutionResult resolution;
  /// Present when GWTW was enabled and the answer had contestants to race.
  std::optional<RaceResult> race;
  /// The replica to connect to: the race winner when a race ran, else the
  /// answer's first address; empty when the resolution produced none.
  std::optional<net::Ipv4Addr> chosen;
};

/// One domain the client keeps trained in the background: a (provider,
/// content label) the machine actually uses.
struct WatchedDomain {
  std::size_t provider_index = 0;
  std::size_t label_index = 0;

  friend bool operator==(const WatchedDomain&, const WatchedDomain&) = default;
};

/// The deployable Drongo system for one client machine.
///
/// Drongo sits on top of the client's DNS path: it collects trials during
/// idle time (train/observe, or the sporadic §4.2 schedule driven by
/// watch/advance_to on an explicit simulated clock), and at resolution time
/// reshapes the outgoing ECS option toward a qualified valley-prone subnet —
/// never touching the CDN's answer, never reordering replicas, never
/// measuring on the fly (§2.4: past measurements predictively choose the
/// assimilation subnet).
///
/// It implements dns::SubnetSelector, so it plugs directly into an
/// LdnsProxy to become the machine's default resolver.
class DrongoClient : public dns::SubnetSelector {
 public:
  explicit DrongoClient(DrongoParams params = {}, std::uint64_t seed = 7);

  /// Idle-time data collection: runs `trials` trials against (client,
  /// provider) spaced `spacing_hours` apart and feeds them to the decision
  /// engine. The domain is pinned (`label_index` into the provider's
  /// content names) so the window accumulates on one name, as a deployed
  /// Drongo does per domain. Returns the trial records.
  std::vector<measure::TrialRecord> train(measure::TrialRunner& runner,
                                          std::size_t client_index,
                                          std::size_t provider_index, int trials,
                                          double spacing_hours,
                                          double start_time_hours = 0.0,
                                          std::size_t label_index = 0);

  /// Feeds one externally collected trial to the engine owning its domain.
  void observe(const measure::TrialRecord& trial);

  /// Registers a domain for background maintenance: trials for it are
  /// scheduled sporadically (§4.2) from `now_hours` on. Watching an
  /// already-watched domain is a no-op — a re-registration must not
  /// double-schedule its trials.
  void watch(const WatchedDomain& domain, double now_hours = 0.0);

  /// Domains currently under background maintenance.
  [[nodiscard]] std::size_t watched_count() const { return watched_.size(); }

  /// Advances the schedule's clock to `now_hours`, running every trial whose
  /// time has arrived (the "idle time" work) for machine `client_index` and
  /// feeding each to observe(). Returns the trial records in time order.
  /// Throws net::InvalidArgument when the clock would move backwards.
  std::vector<measure::TrialRecord> advance_to(measure::TrialRunner& runner,
                                               std::size_t client_index,
                                               double now_hours);

  /// Next scheduled trial time across all watched domains; +inf when
  /// nothing is scheduled.
  [[nodiscard]] double next_wakeup_hours() const;

  /// Gives `zone` (e.g. "googlecdn.sim") its own decision engine under
  /// `params`, so different CDNs run under different (vf, vt) at once —
  /// §5.2's per-provider optimum. Replaces any previous engine (and its
  /// windows) for that zone.
  void set_zone_params(const dns::DnsName& zone, DrongoParams params);

  /// The engine that owns `domain`: the most specific configured zone's,
  /// else engine(). Persistence is per engine: engine_for(zone).save/load.
  [[nodiscard]] DecisionEngine& engine_for(const dns::DnsName& domain);

  /// Joins the crowd-shared valley store as a member of `cluster` (see
  /// core::routing_cluster_key). The store is borrowed and must outlive the
  /// client; nullptr leaves. While joined, every observed trial is also
  /// contributed to the cluster's pooled knowledge, and resolutions fall
  /// back to the cluster's choice when this client's own windows are not
  /// yet conclusive — own evidence always outranks crowd evidence.
  void share_via(ValleyStore* store, std::string cluster) {
    store_ = store;
    cluster_ = std::move(cluster);
  }

  /// Resolution with assimilation: uses the qualified subnet when one
  /// exists, else the client's own /24. Takes the FIRST replica of the
  /// answer — always respecting the CDN's serving order.
  dns::ResolutionResult resolve(dns::StubResolver& stub, const dns::DnsName& domain);

  /// Enables Go-With-The-Winner mode: resolve_racing then races the first
  /// `k` replicas of every answer and commits to the fastest. k < 2
  /// disables racing (resolve_racing keeps the first replica); negative k
  /// throws net::InvalidArgument. Setup-phase: call before resolving.
  void enable_gwtw(int k);

  /// Like resolve(), then — when GWTW is enabled and the answer has more
  /// than one address — races the leading replicas over `world` with RTT
  /// draws from `rng` and commits to the winner. The rival strategy to
  /// valley assimilation: measure at resolution time instead of ahead of it.
  RacedResolution resolve_racing(dns::StubResolver& stub, const dns::DnsName& domain,
                                 topology::World& world, net::Rng& rng);

  /// The racer behind GWTW mode, or nullptr while disabled.
  [[nodiscard]] const ReplicaRacer* racer() const { return racer_.get(); }

  /// SubnetSelector hook for LdnsProxy deployment.
  std::optional<net::Prefix> select_subnet(const dns::DnsName& domain,
                                           const net::Prefix& client_subnet) override;

  [[nodiscard]] DecisionEngine& engine() { return engine_; }
  [[nodiscard]] const DecisionEngine& engine() const { return engine_; }

  /// How many resolutions used an assimilated subnet vs the client's own.
  [[nodiscard]] std::uint64_t assimilated_queries() const { return assimilated_; }
  [[nodiscard]] std::uint64_t total_queries() const { return total_; }
  /// Assimilated resolutions that failed and fell back to the client's own
  /// subnet (resolve() only; the proxy path degrades inside the stub).
  [[nodiscard]] std::uint64_t assimilation_fallbacks() const {
    return assimilation_fallbacks_;
  }

  /// Resolutions whose subnet came from the crowd-shared store because this
  /// client's own engine had no qualified subnet yet.
  [[nodiscard]] std::uint64_t shared_assimilations() const {
    return shared_assimilations_;
  }

  /// Attaches an obs registry to the client AND its decision engines
  /// (borrowed; nullptr detaches). Resolutions tally `core.drongo.*`:
  /// total/assimilated queries and assimilation fallbacks. Zone engines
  /// share the `core.engine.*` counters; the tracked-windows gauge reads
  /// whichever engine observed last.
  void set_registry(obs::Registry* registry) {
    registry_ = registry;
    engine_.set_registry(registry);
    for (auto& [zone, engine] : zones_) engine->set_registry(registry);
    if (racer_ != nullptr) racer_->set_registry(registry);
  }

 private:
  /// A watched domain's schedule state.
  struct Watched {
    WatchedDomain domain;
    double next_hours;  ///< where the domain's schedule continues
    int queued = 0;     ///< its trials waiting in queue_
  };

  /// Queues the next horizon of trials for watched_[index].
  void schedule_more(std::size_t index);

  /// Engine choice first, crowd knowledge second. Tallies the shared-hit
  /// counters when the crowd supplies the subnet.
  std::optional<net::Prefix> choose_subnet(const dns::DnsName& domain);

  /// choose_subnet plus the per-query tallies every resolution path shares:
  /// total_ and `core.drongo.queries`, assimilated_ and
  /// `core.drongo.assimilated` when a subnet is chosen.
  std::optional<net::Prefix> count_choice(const dns::DnsName& domain);

  void note(const char* name) {
    if (registry_ != nullptr) registry_->add(name);
  }

  DecisionEngine engine_;
  std::map<dns::DnsName, std::unique_ptr<DecisionEngine>> zones_;
  std::uint64_t next_zone_seed_;
  net::Rng schedule_rng_;
  std::vector<Watched> watched_;              // registration order, no duplicates
  std::multimap<double, std::size_t> queue_;  // trial time -> watched_ index
  double clock_hours_ = 0.0;
  std::unique_ptr<ReplicaRacer> racer_;  ///< non-null while GWTW is enabled
  int gwtw_k_ = 0;
  ValleyStore* store_ = nullptr;  // borrowed; optional crowd knowledge
  std::string cluster_;           ///< this client's routing-similarity cluster
  std::uint64_t assimilated_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t assimilation_fallbacks_ = 0;
  std::uint64_t shared_assimilations_ = 0;
  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry
};

}  // namespace drongo::core
