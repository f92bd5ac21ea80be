#include "serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "cdn/authoritative.hpp"
#include "cdn/deploy.hpp"
#include "cdn/resolver.hpp"
#include "dns/daemon_server.hpp"
#include "dns/inmemory.hpp"
#include "net/error.hpp"
#include "stats.hpp"
#include "topology/as_gen.hpp"
#include "topology/world.hpp"
#include "decorators.hpp"
#include "trace.hpp"
#include "validate.hpp"

namespace perfbench {

using namespace drongo;

namespace {

// ---- Workload shape --------------------------------------------------------

constexpr std::size_t kHotSubnets = 342;      // x 3 names ~ 1k distinct queries
constexpr double kHotZipfS = 1.8;  // with the 1 s packet-cache TTL: ~96% hits at 5k q/s
constexpr std::size_t kChurnSubnets = 65536;  // x 3 names = 196,608 queries
constexpr std::size_t kCacheEntries = 8192;  // ServingConfig::max_entries
constexpr std::size_t kCacheShards = 8;

// The max_qps rule judges the median window: queueing (p50 past this) or
// loss marks saturation. A p99 limit would judge the host instead: on a
// shared virtual machine vCPU stalls of 1-30 ms arrive several times a
// second, so nearly every window's p99 reflects them at any rate.
constexpr double kSaturationP50Ms = 1.0;
constexpr double kFailRatioLimit = 0.001;
// The generator has fallen behind when a tenth of a window's queries leave
// later than this after their due time; a run where that holds for the
// median window carries a warning that its latencies are not trustworthy.
constexpr double kLateLimitMs = 1.0;
constexpr std::int64_t kTimeoutNs = 100'000'000;
constexpr double kFailedMs = 1e9;  // a failed query misses every latency limit

constexpr double kSearchStepSeconds = 1.5;
constexpr int kSearchProbes = 6;
constexpr int kSegments = 4;  // fixed-rate segments, spread over the search
// Latency is judged per window of consecutive queries and summarized by the
// median window, so that a stall of the host (a stolen vCPU slice of several
// ms) decides one window, not the run. A window spans 0.1 s of arrivals but
// at least 1000 queries, so its p99 has 10 samples beyond it.
constexpr double kWindowSeconds = 0.1;
constexpr std::size_t kMinWindowQueries = 1000;
constexpr double kWarmSeconds = 0.4;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kSocketsPerListener = 4;
constexpr std::size_t kSampleEvery = 64;  // replies compared with a direct handle
constexpr std::size_t kSampleCap = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// ---- Inputs ----------------------------------------------------------------

/// Every distinct query a workload can send: content name x client /24.
/// Each key has a fixed DNS id, so its authoritative answer (whose
/// load-balancing rotation the id seeds) is the same however often the
/// key is asked and whichever cache layer answers.
class KeySpace {
 public:
  KeySpace(std::vector<dns::DnsName> names, std::size_t subnet_count,
           std::uint64_t seed)
      : names_(std::move(names)) {
    auto rng = make_rng(seed, 0x5B);
    std::unordered_set<std::uint32_t> seen;
    while (subnets_.size() < subnet_count) {
      // Client /24s under 20.0.0.0 - 59.255.255.0: outside every prefix the
      // simulated world allocates, so the CDN tailors by subnet alone.
      const std::uint32_t net = ((20u + static_cast<std::uint32_t>(rng() % 40)) << 24) |
                                (static_cast<std::uint32_t>(rng() % 65536) << 8);
      if (!seen.insert(net).second) continue;
      subnet_index_.emplace(net, static_cast<std::uint32_t>(subnets_.size()));
      subnets_.push_back(net);
    }
    const std::size_t n = size();
    ids_.resize(n);
    offsets_.reserve(n + 1);
    offsets_.push_back(0);
    for (std::size_t key = 0; key < n; ++key) {
      ids_[key] = static_cast<std::uint16_t>(rng());
      const auto wire = query(static_cast<std::uint32_t>(key)).encode();
      wire_.insert(wire_.end(), wire.begin(), wire.end());
      offsets_.push_back(static_cast<std::uint32_t>(wire_.size()));
    }
  }

  [[nodiscard]] std::size_t size() const { return names_.size() * subnets_.size(); }

  [[nodiscard]] net::Prefix subnet(std::uint32_t key) const {
    return net::Prefix(net::Ipv4Addr(subnets_[key / names_.size()]), 24);
  }
  [[nodiscard]] const dns::DnsName& name(std::uint32_t key) const {
    return names_[key % names_.size()];
  }

  [[nodiscard]] dns::Message query(std::uint32_t key) const {
    return dns::Message::make_query(ids_[key], name(key), subnet(key));
  }

  [[nodiscard]] Expectation expect(std::uint32_t key) const {
    return {ids_[key], name(key), subnet(key)};
  }

  [[nodiscard]] std::span<const std::uint8_t> wire(std::uint32_t key) const {
    return {wire_.data() + offsets_[key], wire_.data() + offsets_[key + 1]};
  }

  /// The key a query or reply is about, from its question and ECS source.
  [[nodiscard]] std::optional<std::uint32_t> find(const dns::Message& m) const {
    if (m.questions.size() != 1 || !m.edns || !m.edns->client_subnet) return std::nullopt;
    const auto& ecs = *m.edns->client_subnet;
    if (ecs.family != 1 || ecs.source_prefix_length != 24) return std::nullopt;
    const net::IpPrefix source = ecs.source_prefix();
    const auto it = subnet_index_.find(source.network().v4().to_uint());
    if (it == subnet_index_.end()) return std::nullopt;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == m.questions[0].name) {
        return static_cast<std::uint32_t>(it->second * names_.size() + i);
      }
    }
    return std::nullopt;
  }

 private:
  std::vector<dns::DnsName> names_;
  std::vector<std::uint32_t> subnets_;
  std::unordered_map<std::uint32_t, std::uint32_t> subnet_index_;
  std::vector<std::uint16_t> ids_;
  std::vector<std::uint8_t> wire_;
  std::vector<std::uint32_t> offsets_;
};

/// One open-loop step: arrival offsets (ns) and the key of each arrival.
struct Schedule {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<std::int64_t> due;
  std::vector<std::uint32_t> keys;
};

/// Key popularity: Zipf over a seeded permutation of the keys (serve-hot)
/// or uniform (serve-ecs-churn).
class Popularity {
 public:
  Popularity(ServeWorkload workload, std::size_t keys, std::uint64_t seed)
      : uniform_(workload == ServeWorkload::kChurn), keys_(keys) {
    if (uniform_) return;
    zipf_.emplace(keys, kHotZipfS);
    rank_to_key_.resize(keys);
    for (std::size_t i = 0; i < keys; ++i) rank_to_key_[i] = static_cast<std::uint32_t>(i);
    auto rng = make_rng(seed, 0x21F);
    std::shuffle(rank_to_key_.begin(), rank_to_key_.end(), rng);
  }

  std::uint32_t draw(std::mt19937_64& rng) const {
    if (uniform_) return static_cast<std::uint32_t>(rng() % keys_);
    return rank_to_key_[(*zipf_)(rng)];
  }

 private:
  bool uniform_;
  std::size_t keys_;
  std::optional<ZipfSampler> zipf_;
  std::vector<std::uint32_t> rank_to_key_;
};

Schedule make_schedule(const Popularity& popularity, double rate, double seconds,
                       std::mt19937_64& rng) {
  Schedule s;
  s.rate = rate;
  s.seconds = seconds;
  s.due = poisson_arrivals(rate, seconds, rng);
  s.keys.resize(s.due.size());
  for (auto& key : s.keys) key = popularity.draw(rng);
  return s;
}

/// Trace id of resolver spans whose query is not one of the workload's keys.
constexpr std::uint64_t kUnknownTrace = 1ULL << 62;

// ---- The system under test --------------------------------------------------

/// World, CDN, authoritative, resolver (plus a cache-less reference
/// resolver for answer checks) and the daemon in front.
struct Stack {
  Stack(SpanLog* log, std::size_t listeners) {
    const std::int64_t start = now_ns();
    topology::AsGenConfig as_config;
    as_config.tier1_count = 4;
    as_config.tier2_count = 8;
    as_config.stub_count = 30;
    as_config.seed = 2026;
    auto graph = topology::generate_as_graph(as_config);
    net::Rng rng(2027);
    const auto plan = cdn::plan_cdn(graph, cdn::google_like(), rng);
    world = std::make_unique<topology::World>(std::move(graph));
    provider = std::make_unique<cdn::CdnProvider>(cdn::deploy_cdn(*world, plan));
    auth = std::make_unique<cdn::CdnAuthoritative>(provider.get());
    const auto auth_addr =
        world->add_host(provider->as_index(), topology::HostKind::kServer, 0);
    network.register_server(auth_addr, auth.get());
    std::size_t t1 = 0;
    for (std::size_t v = 0; v < world->graph().node_count(); ++v) {
      if (world->graph().node(v).tier == topology::AsTier::kTier1) {
        t1 = v;
        break;
      }
    }
    const auto resolver_addr = world->add_host(t1, topology::HostKind::kServer, 0);
    const auto zone = dns::DnsName::must_parse(provider->profile().zone);
    world_build_s = static_cast<double>(now_ns() - start) / 1e9;

    upstream = std::make_unique<SpannedTransport>(&network, log, "upstream.exchange");
    cdn::ServingConfig serving;
    serving.enable_cache = true;
    serving.shards = kCacheShards;
    serving.max_entries = kCacheEntries;
    serving.coalesce = true;
    resolver = std::make_unique<cdn::PublicResolver>(upstream.get(), resolver_addr, serving);
    resolver->register_zone(zone, auth_addr);
    // Serving time stays frozen: cached answers never expire during a run.
    resolver->set_time_ms(0);
    reference = std::make_unique<cdn::PublicResolver>(&network, resolver_addr, false);
    reference->register_zone(zone, auth_addr);

    front = std::make_unique<SpannedServer>(resolver.get(), log, "resolver.handle");
    dns::DaemonServerConfig config;
    config.listeners = listeners;
    config.pin_threads = true;
    config.enable_tcp = false;
    daemon = std::make_unique<dns::DaemonServer>(front.get(), config);
  }

  ~Stack() {
    if (daemon) daemon->stop();
  }

  double world_build_s = 0.0;  ///< world, CDN and authoritative only
  std::unique_ptr<topology::World> world;
  std::unique_ptr<cdn::CdnProvider> provider;
  std::unique_ptr<cdn::CdnAuthoritative> auth;
  dns::InMemoryDnsNetwork network;
  std::unique_ptr<SpannedTransport> upstream;
  std::unique_ptr<cdn::PublicResolver> resolver;
  std::unique_ptr<cdn::PublicResolver> reference;
  /// What the daemon calls: the resolver inside a `resolver.handle` span
  /// source (trace id = key + 1, re-linked to the generator's query after
  /// the run), which also tells socket probing which listener answered.
  std::unique_ptr<SpannedServer> front;
  std::unique_ptr<dns::DaemonServer> daemon;
};

// ---- Load generator ---------------------------------------------------------

int open_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw net::Error(std::string("socket: ") + std::strerror(errno));
  const int buffer = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer, sizeof buffer);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buffer, sizeof buffer);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw net::Error(std::string("bind: ") + std::strerror(errno));
  }
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw net::Error(std::string("connect: ") + std::strerror(errno));
  }
  return fd;
}

struct StepResult {
  std::int64_t base_ns = 0;
  std::vector<std::int64_t> sent_ns;
  std::vector<std::int64_t> recv_ns;
  std::vector<std::uint8_t> status;  // 0 = no reply, 1 = valid, 2 = invalid
  std::uint64_t unmatched = 0;       // replies of a known key with no pending query
  std::uint64_t outstanding_at_send_end = 0;
  std::int64_t receiver_busy_ns = 0;  // time spent handling replies
  std::int64_t receiver_ns = 0;       // receiver lifetime
  std::map<std::string, std::uint64_t> verdicts;
  std::vector<std::pair<std::uint32_t, dns::Message>> samples;  // (seq, reply)

  [[nodiscard]] std::uint64_t failures() const {
    return static_cast<std::uint64_t>(
        std::count_if(status.begin(), status.end(), [](std::uint8_t s) { return s != 1; }));
  }
  [[nodiscard]] std::uint64_t invalid() const {
    return static_cast<std::uint64_t>(std::count(status.begin(), status.end(), 2));
  }
};

/// Open-loop generator: a sender thread that emits each query at its due
/// time (batched with sendmmsg when several are due) and a receiver thread
/// that validates every reply and times it from the query's due time. Both
/// are pinned to cores the daemon's listeners do not use.
class LoadGenerator {
 public:
  LoadGenerator(const KeySpace* keys, std::vector<int> fds, int sender_cpu,
                int receiver_cpu)
      : keys_(keys), fds_(std::move(fds)), sender_cpu_(sender_cpu),
        receiver_cpu_(receiver_cpu) {}
  ~LoadGenerator() {
    for (int fd : fds_) ::close(fd);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  StepResult run(const Schedule& schedule, bool keep_samples, std::uint64_t sample_salt) {
    const std::size_t n = schedule.due.size();
    StepResult r;
    r.sent_ns.assign(n, -1);
    r.recv_ns.assign(n, -1);
    r.status.assign(n, 0);
    // Replies are matched to the oldest pending query of their key.
    std::vector<std::int32_t> head(keys_->size(), -1);
    std::vector<std::int32_t> next(n, -1);
    std::vector<std::int32_t> tail(keys_->size(), -1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto key = schedule.keys[i];
      if (tail[key] < 0) {
        head[key] = static_cast<std::int32_t>(i);
      } else {
        next[static_cast<std::size_t>(tail[key])] = static_cast<std::int32_t>(i);
      }
      tail[key] = static_cast<std::int32_t>(i);
    }
    drain();
    r.base_ns = now_ns() + 2'000'000;
    std::atomic<bool> send_done{false};
    std::atomic<std::int64_t> send_done_ns{0};

    std::thread sender([&] { send_loop(schedule, r, send_done, send_done_ns); });
    std::thread receiver([&] {
      receive_loop(schedule, r, head, next, send_done, send_done_ns, keep_samples,
                   sample_salt);
    });
    sender.join();
    receiver.join();
    return r;
  }

 private:
  /// Discards replies still queued from an earlier step.
  void drain() {
    std::uint8_t buffer[1500];
    for (int fd : fds_) {
      while (::recv(fd, buffer, sizeof buffer, MSG_DONTWAIT) > 0) {
      }
    }
  }

  void send_loop(const Schedule& schedule, StepResult& r, std::atomic<bool>& done,
                 std::atomic<std::int64_t>& done_ns) {
    pin_to_cpu(sender_cpu_);
    const std::size_t sockets = fds_.size();
    std::vector<std::vector<mmsghdr>> msgs(sockets, std::vector<mmsghdr>(kBatch));
    std::vector<std::vector<iovec>> iovs(sockets, std::vector<iovec>(kBatch));
    std::vector<std::size_t> counts(sockets, 0);
    const std::size_t n = schedule.due.size();
    std::size_t i = 0;
    while (i < n) {
      const std::int64_t now = now_ns();
      if (r.base_ns + schedule.due[i] > now) {
        cpu_relax();
        continue;
      }
      const std::size_t first = i;
      std::fill(counts.begin(), counts.end(), 0);
      while (i < n && r.base_ns + schedule.due[i] <= now) {
        const std::size_t s = i % sockets;
        if (counts[s] == kBatch) break;
        const auto wire = keys_->wire(schedule.keys[i]);
        iovec& iov = iovs[s][counts[s]];
        iov.iov_base = const_cast<std::uint8_t*>(wire.data());
        iov.iov_len = wire.size();
        mmsghdr& m = msgs[s][counts[s]];
        std::memset(&m, 0, sizeof m);
        m.msg_hdr.msg_iov = &iov;
        m.msg_hdr.msg_iovlen = 1;
        ++counts[s];
        ++i;
      }
      const std::int64_t t = now_ns();
      for (std::size_t s = 0; s < sockets; ++s) {
        std::size_t sent = 0;
        while (sent < counts[s]) {
          const int rc = ::sendmmsg(fds_[s], msgs[s].data() + sent,
                                    static_cast<unsigned>(counts[s] - sent), 0);
          if (rc < 0) {
            if (errno == EINTR || errno == EAGAIN || errno == ENOBUFS) continue;
            break;  // the query is lost; it will time out and count as failed
          }
          sent += static_cast<std::size_t>(rc);
        }
      }
      for (std::size_t j = first; j < i; ++j) r.sent_ns[j] = t;
    }
    done_ns.store(now_ns(), std::memory_order_relaxed);
    done.store(true, std::memory_order_release);
  }

  void receive_loop(const Schedule& schedule, StepResult& r, std::vector<std::int32_t>& head,
                    const std::vector<std::int32_t>& next, std::atomic<bool>& done,
                    std::atomic<std::int64_t>& done_ns, bool keep_samples,
                    std::uint64_t sample_salt) {
    pin_to_cpu(receiver_cpu_);
    constexpr std::size_t kSlot = 1500;
    const std::size_t sockets = fds_.size();
    std::vector<std::uint8_t> arena(kBatch * kSlot);
    std::vector<iovec> iovs(kBatch);
    std::vector<mmsghdr> msgs(kBatch);
    const std::size_t n = schedule.due.size();
    std::size_t resolved = 0;
    std::size_t pending_sent = 0;
    bool done_seen = false;
    std::int64_t deadline = 0;
    dns::Message reply;
    const std::int64_t receiver_start = now_ns();
    while (resolved < n) {
      if (!done_seen && done.load(std::memory_order_acquire)) {
        done_seen = true;
        pending_sent = n - resolved;
        r.outstanding_at_send_end = pending_sent;
        deadline = done_ns.load(std::memory_order_relaxed) + kTimeoutNs;
      }
      bool got = false;
      for (std::size_t s = 0; s < sockets; ++s) {
        for (std::size_t k = 0; k < kBatch; ++k) {
          iovs[k].iov_base = arena.data() + k * kSlot;
          iovs[k].iov_len = kSlot;
          std::memset(&msgs[k], 0, sizeof msgs[k]);
          msgs[k].msg_hdr.msg_iov = &iovs[k];
          msgs[k].msg_hdr.msg_iovlen = 1;
        }
        const int count = ::recvmmsg(fds_[s], msgs.data(), kBatch, MSG_DONTWAIT, nullptr);
        if (count <= 0) continue;
        got = true;
        const std::int64_t t = now_ns();
        for (int k = 0; k < count; ++k) {
          const std::span<const std::uint8_t> wire(arena.data() + k * kSlot,
                                                   msgs[k].msg_len);
          if (on_reply(wire, t, r, head, next, reply, keep_samples, sample_salt)) {
            ++resolved;
          }
        }
        r.receiver_busy_ns += now_ns() - t;
      }
      if (!got) {
        if (done_seen && now_ns() > deadline) break;
        cpu_relax();
      }
    }
    r.receiver_ns = now_ns() - receiver_start;
  }

  /// Matches and validates one reply; true when it resolved a pending query.
  bool on_reply(std::span<const std::uint8_t> wire, std::int64_t t, StepResult& r,
                std::vector<std::int32_t>& head, const std::vector<std::int32_t>& next,
                dns::Message& reply, bool keep_samples, std::uint64_t sample_salt) {
    try {
      reply = dns::Message::decode(wire);
    } catch (const net::Error&) {
      ++r.verdicts[to_string(Verdict::kUndecodable)];
      return false;
    }
    const auto key = keys_->find(reply);
    if (!key) {
      ++r.verdicts[to_string(Verdict::kWrongQuestion)];
      return false;
    }
    const std::int32_t seq = head[*key];
    if (seq < 0) {
      // A reply after its query timed out (the daemon answers late under
      // overload): not wrong, just too late to count.
      ++r.unmatched;
      return false;
    }
    const auto index = static_cast<std::size_t>(seq);
    head[*key] = next[index];
    r.recv_ns[index] = t;
    const Verdict verdict = validate_reply(reply, keys_->expect(*key));
    if (verdict != Verdict::kOk) {
      r.status[index] = 2;
      ++r.verdicts[to_string(verdict)];
      return true;
    }
    r.status[index] = 1;
    if (keep_samples && r.samples.size() < kSampleCap &&
        (index + sample_salt) % kSampleEvery == 0) {
      r.samples.emplace_back(static_cast<std::uint32_t>(index), reply);
    }
    return true;
  }

  const KeySpace* keys_;
  std::vector<int> fds_;
  int sender_cpu_;
  int receiver_cpu_;
};

/// Opens client sockets until each daemon listener has its share. The
/// kernel spreads SO_REUSEPORT traffic by flow hash, so each candidate
/// socket sends one probe query and the resolver decorator reports which
/// listener thread answered; sockets are then interleaved across listeners
/// so that round-robin sending loads every listener equally.
std::vector<int> balanced_sockets(Stack& stack, std::size_t listeners,
                                  std::vector<std::string>& notes,
                                  std::vector<long>& listener_tids) {
  const std::uint16_t port = stack.daemon->udp_port();
  const auto name = stack.auth->content_names().front();
  std::map<long, std::vector<int>> by_listener;
  std::vector<int> spare;
  stack.front->set_probing(true);
  const std::size_t candidates = 16 * listeners * kSocketsPerListener;
  for (std::size_t i = 0; i < candidates; ++i) {
    const int fd = open_client(port);
    const net::Prefix probe_subnet(
        net::Ipv4Addr(10, static_cast<std::uint8_t>(200 + (i >> 8)),
                      static_cast<std::uint8_t>(i & 0xFF), 0),
        24);
    const auto wire =
        dns::Message::make_query(static_cast<std::uint16_t>(i), name, probe_subnet).encode();
    pollfd pfd{fd, POLLIN, 0};
    std::uint8_t buffer[1500];
    if (::send(fd, wire.data(), wire.size(), 0) < 0 || ::poll(&pfd, 1, 1000) != 1 ||
        ::recv(fd, buffer, sizeof buffer, 0) <= 0) {
      spare.push_back(fd);
      continue;
    }
    auto& group = by_listener[stack.front->last_thread()];
    if (group.size() < kSocketsPerListener) {
      group.push_back(fd);
    } else {
      spare.push_back(fd);
    }
    std::size_t full = 0;
    for (const auto& [thread, fds] : by_listener) {
      if (fds.size() == kSocketsPerListener) ++full;
    }
    if (full == listeners) break;
  }
  stack.front->set_probing(false);
  for (int fd : spare) ::close(fd);

  for (const auto& [tid, group] : by_listener) listener_tids.push_back(tid);
  std::vector<int> fds;
  for (std::size_t k = 0; k < kSocketsPerListener; ++k) {
    for (auto& [thread, group] : by_listener) {
      if (k < group.size()) fds.push_back(group[k]);
    }
  }
  std::ostringstream note;
  note << "client sockets: " << fds.size() << " over " << by_listener.size()
       << " listener(s) (";
  for (auto& [thread, group] : by_listener) note << group.size() << ' ';
  note << "per listener)";
  notes.push_back(note.str());
  if (fds.empty()) throw net::Error("no client socket reached the daemon");
  return fds;
}

// ---- Step analysis -----------------------------------------------------------

/// Per-window latency statistics, gathered over one or more steps.
struct WindowStats {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> p99_reported;
  std::vector<double> late_p90;
  std::vector<double> late_p99;
  std::uint64_t samples = 0;

  void add(const Schedule& s, const StepResult& r);
  /// Median window figures (one stall cannot decide a run's percentiles).
  [[nodiscard]] double p50_ms() const { return median(p50); }
  [[nodiscard]] double p99_ms() const { return median(p99); }
  [[nodiscard]] double late_p99_ms() const { return median(late_p99); }
  /// The generator has fallen behind when, in the median window, a tenth of
  /// the queries left more than kLateLimitMs after their due time.
  [[nodiscard]] bool generator_behind() const;
};

std::vector<double> latencies_ms(const Schedule& s, const StepResult& r, std::size_t from,
                                 std::size_t to) {
  std::vector<double> out;
  out.reserve(to - from);
  for (std::size_t i = from; i < to; ++i) {
    out.push_back(r.status[i] == 1
                      ? static_cast<double>(r.recv_ns[i] - (r.base_ns + s.due[i])) / 1e6
                      : kFailedMs);
  }
  return out;
}

/// [from, to) index ranges of the step's windows (the last one absorbs a
/// short tail).
std::vector<std::pair<std::size_t, std::size_t>> split_windows(const Schedule& s) {
  const std::size_t n = s.due.size();
  const auto size = std::max<std::size_t>(
      kMinWindowQueries, static_cast<std::size_t>(s.rate * kWindowSeconds));
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t from = 0; from < n; from += size) {
    out.emplace_back(from, n - from < 2 * size ? n : from + size);
    if (out.back().second == n) break;
  }
  return out;
}

/// How late the generator sent queries [from, to) after their due time.
std::vector<double> lateness_ms(const Schedule& s, const StepResult& r, std::size_t from,
                                std::size_t to) {
  std::vector<double> late;
  late.reserve(to - from);
  for (std::size_t i = from; i < to; ++i) {
    if (r.sent_ns[i] >= 0) {
      late.push_back(static_cast<double>(r.sent_ns[i] - (r.base_ns + s.due[i])) / 1e6);
    }
  }
  return late;
}

void WindowStats::add(const Schedule& s, const StepResult& r) {
  samples += s.due.size();
  for (const auto& [from, to] : split_windows(s)) {
    const auto window = latencies_ms(s, r, from, to);
    p50.push_back(percentile(window, 0.50).value);
    const auto tail = percentile(window, 0.99);
    p99.push_back(tail.value);
    p99_reported.push_back(tail.reported_p);
    const auto late = lateness_ms(s, r, from, to);
    late_p90.push_back(percentile(late, 0.90).value);
    late_p99.push_back(percentile(late, 0.99).value);
  }
}

bool WindowStats::generator_behind() const { return median(late_p90) > kLateLimitMs; }

std::string fmt(double v, int precision = 3) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << v;
  return out.str();
}

/// The max_qps acceptance rule. A step is split into windows of due time;
/// a window passes when its p50 (failures count as misses) shows no
/// queueing, its fail ratio is within the limit and the generator kept to
/// its schedule; the last window must also end without a growing backlog.
/// The step passes when most windows pass, so one stall of the host cannot
/// decide the search. `why` describes the outcome.
bool step_passes(const Schedule& s, const StepResult& r, bool& generator_behind,
                 std::string& why) {
  const std::size_t n = s.due.size();
  if (n == 0) return false;
  const auto windows = split_windows(s);
  std::size_t passed = 0;
  std::size_t behind_windows = 0;
  std::vector<double> p99s;
  std::vector<double> p50s;
  std::vector<double> fails;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto [from, to] = windows[w];
    const auto p99 = percentile(latencies_ms(s, r, from, to), 0.99);
    std::uint64_t failed = 0;
    for (std::size_t i = from; i < to; ++i) failed += r.status[i] != 1 ? 1 : 0;
    const bool behind = percentile(lateness_ms(s, r, from, to), 0.90).value > kLateLimitMs;
    behind_windows += behind ? 1 : 0;
    const double fail_ratio = static_cast<double>(failed) / static_cast<double>(to - from);
    const auto p50 = percentile(latencies_ms(s, r, from, to), 0.50);
    bool ok = !behind && p50.value <= kSaturationP50Ms && fail_ratio <= kFailRatioLimit;
    if (w + 1 == windows.size()) {
      ok &= static_cast<double>(r.outstanding_at_send_end) <= s.rate * 0.002 + 64.0;
    }
    passed += ok ? 1 : 0;
    p99s.push_back(p99.value);
    p50s.push_back(p50.value);
    fails.push_back(fail_ratio);
  }
  generator_behind = behind_windows * 2 > windows.size();
  const bool pass = passed * 2 > windows.size();
  why = fmt(s.rate, 0) + " q/s: " + (pass ? "pass" : "FAIL") + " (" +
        std::to_string(passed) + "/" + std::to_string(windows.size()) +
        " windows ok; median window p50 " + fmt(std::min(median(p50s), 9999.0)) +
        " ms, p99 " + fmt(std::min(median(p99s), 9999.0)) +
        " ms, fail " + fmt(median(fails), 4) + "; backlog " +
        std::to_string(r.outstanding_at_send_end) + "; receiver busy " +
        fmt(100.0 * static_cast<double>(r.receiver_busy_ns) /
                static_cast<double>(std::max<std::int64_t>(1, r.receiver_ns)),
            1) +
        "%)";
  return pass;
}

/// Compares sampled replies with a direct handle of the same query by the
/// cache-less reference resolver. Returns the number compared.
std::size_t compare_samples(Stack& stack, const KeySpace& keys, const Schedule& s,
                            const StepResult& r, std::vector<std::string>& errors) {
  std::size_t mismatches = 0;
  for (const auto& [seq, reply] : r.samples) {
    const auto key = s.keys[seq];
    const dns::Message direct =
        stack.reference->handle(keys.query(key), net::Ipv4Addr(127, 0, 0, 1));
    if (!same_answer(reply, direct)) {
      if (++mismatches <= 3) {
        errors.push_back("reply for " + keys.name(key).to_string() + " " +
                         keys.subnet(key).to_string() +
                         " differs from a direct PublicResolver::handle");
      }
    }
  }
  if (mismatches > 3) {
    errors.push_back(std::to_string(mismatches) + " sampled replies differ in total");
  }
  return r.samples.size();
}

void note_verdicts(const StepResult& r, std::vector<std::string>& errors) {
  for (const auto& [verdict, count] : r.verdicts) {
    errors.push_back(std::to_string(count) + " invalid repl" + (count == 1 ? "y" : "ies") +
                     ": " + verdict);
  }
}

/// Fills serve-ecs-churn's resolver cache to its steady state (full, so
/// every miss evicts) before measuring: seeded keys handled directly by the
/// serving resolver on a few threads. serve-hot's few keys fill it during
/// warm-up; its rare first-time keys are its only upstream exchanges.
void prime_cache(Stack& stack, const KeySpace& keys, std::uint64_t seed,
                 const std::vector<int>& cpus) {
  std::vector<std::uint32_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
  auto rng = make_rng(seed, 0xCAC);
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(std::min(order.size(), kCacheEntries + kCacheEntries / 4));
  const std::size_t threads = std::max<std::size_t>(1, std::min<std::size_t>(4, cpus.size()));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < order.size(); i = next.fetch_add(1)) {
        (void)stack.resolver->handle(keys.query(order[i]), net::Ipv4Addr(127, 0, 0, 1));
      }
    });
  }
  for (auto& t : pool) t.join();
}

/// Links resolver spans to generator queries and derives the span metrics.
struct TraceSummary {
  std::vector<double> frontend_self_us;
  std::vector<double> handle_us;
  std::vector<double> upstream_us;
  double coverage = 0.0;
  std::uint64_t linked = 0;
  std::uint64_t handler_spans = 0;
};

TraceSummary link_trace(SpanLog& log, const Schedule& s, const StepResult& r,
                        const std::string& path) {
  TraceSummary out;
  auto spans = log.collect();
  const std::uint32_t handle_name = log.name_id("resolver.handle");
  const std::uint32_t upstream_name = log.name_id("upstream.exchange");
  const std::uint32_t query_name = log.name_id("query");
  // key + 1 -> handler spans (indices into `spans`, in start order).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_key;
  std::unordered_map<std::uint64_t, std::size_t> by_span_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    by_span_id.emplace(span.span_id, i);
    if (span.name == handle_name) {
      by_key[span.trace_id].push_back(i);
      out.handler_spans += 1;
      out.handle_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    } else if (span.name == upstream_name) {
      out.upstream_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> cursor;
  std::vector<SpanRecord> query_spans;
  query_spans.reserve(s.due.size());
  double total_ns = 0.0;
  double covered_ns = 0.0;
  std::uint64_t next_id = 1ULL << 63;
  for (std::size_t seq = 0; seq < s.due.size(); ++seq) {
    if (r.status[seq] != 1 || r.sent_ns[seq] < 0) continue;
    const std::int64_t start = r.sent_ns[seq];
    const std::int64_t end = r.recv_ns[seq];
    SpanRecord query{seq + 1, next_id++, 0, query_name, start, end};
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    const auto it = by_key.find(static_cast<std::uint64_t>(s.keys[seq]) + 1);
    if (it != by_key.end()) {
      auto& pos = cursor[it->first];
      const auto& list = it->second;
      while (pos < list.size() && spans[list[pos]].start_ns < start) ++pos;
      if (pos < list.size() && spans[list[pos]].start_ns <= end) {
        SpanRecord& handler = spans[list[pos]];
        handler.trace_id = query.trace_id;
        handler.parent = query.span_id;
        children.emplace_back(handler.start_ns, handler.end_ns);
        ++out.linked;
        ++pos;
      }
    }
    const std::int64_t self = self_time_ns(start, end, children);
    out.frontend_self_us.push_back(static_cast<double>(self) / 1e3);
    total_ns += static_cast<double>(end - start);
    covered_ns += static_cast<double>(end - start - self);
    query_spans.push_back(query);
  }
  // Upstream spans inherit the trace id of their (re-linked) handler.
  for (auto& span : spans) {
    if (span.name != upstream_name) continue;
    const auto parent = by_span_id.find(span.parent);
    if (parent != by_span_id.end()) span.trace_id = spans[parent->second].trace_id;
  }
  out.coverage = total_ns > 0.0 ? covered_ns / total_ns : 0.0;
  if (!path.empty()) {
    spans.insert(spans.end(), query_spans.begin(), query_spans.end());
    std::sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
      return a.start_ns < b.start_ns;
    });
    log.write(path, spans);
  }
  return out;
}

/// The fixed offered rate (queries/s) at which p50/p99 and CPU per query
/// are measured: well below max_qps, so host stalls do not overflow the
/// daemon's default socket buffers (see README.md).
double fixed_rate(ServeWorkload workload) {
  return workload == ServeWorkload::kHot ? 5'000.0 : 2'500.0;
}

}  // namespace

RunOutput run_serving(ServeWorkload workload, const RunOptions& options) {
  RunOutput run;
  run.workload = workload == ServeWorkload::kHot ? "serve-hot" : "serve-ecs-churn";
  run.trace = options.trace;

  // Core plan: listeners on the first half of the usable cores, the
  // generator's sender and receiver on the next two.
  const auto cpus = usable_cpus();
  const std::size_t ncpu = std::max<std::size_t>(1, cpus.size());
  const std::size_t listeners = std::max<std::size_t>(1, ncpu / 2);
  const int sender_cpu = cpus.empty() ? 0 : cpus[std::min(listeners, ncpu - 1)];
  const int receiver_cpu = cpus.empty() ? 0 : cpus[std::min(listeners + 1, ncpu - 1)];
  {
    std::ostringstream note;
    note << "nproc " << ncpu << ", hardware_concurrency "
         << std::thread::hardware_concurrency() << "; daemon listeners " << listeners
         << " on cpu 0.." << listeners - 1 << "; generator sender on cpu " << sender_cpu
         << ", receiver on cpu " << receiver_cpu;
    if (listeners + 2 > ncpu) note << " (colocated: fewer than listeners + 2 cores)";
    run.notes.push_back(note.str());
  }

  SpanLog log;
  // Set-up: world/CDN/resolver build and daemon bind, about a millisecond,
  // timed 25 times in CPU time of this thread (hypervisor steal does not
  // enter it; the wall time is noted); the last stack is measured.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<double> world_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < 25; ++i) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    const std::int64_t cpu0 = thread_cpu_now_ns();
    stack = std::make_unique<Stack>(&log, listeners);
    setup_s.push_back(static_cast<double>(thread_cpu_now_ns() - cpu0) / 1e9);
    setup_wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    world_s.push_back(stack->world_build_s);
  }

  const std::size_t subnets =
      workload == ServeWorkload::kHot ? kHotSubnets : kChurnSubnets;
  const KeySpace keys(stack->auth->content_names(), subnets, options.seed);
  stack->front->set_trace_of([&keys](const dns::Message& query) {
    const auto key = keys.find(query);
    return key ? *key + 1 : kUnknownTrace;
  });
  const Popularity popularity(workload, keys.size(), options.seed);
  std::vector<long> listener_tids;
  LoadGenerator generator(&keys, balanced_sockets(*stack, listeners, run.notes, listener_tids),
                          sender_cpu, receiver_cpu);
  const auto listener_cpu_ns = [&] {
    std::int64_t total = 0;
    for (long tid : listener_tids) total += thread_cpu_ns(tid);
    return total;
  };
  if (workload == ServeWorkload::kChurn) prime_cache(*stack, keys, options.seed, cpus);

  // Separate streams, so the fixed-rate inputs are the same for a seed
  // whatever rates the search (which follows the host's speed) probes.
  auto rng = make_rng(options.seed, 0xA77);
  auto warm_rng = make_rng(options.seed, 0xA78);
  const double rate = fixed_rate(workload);
  std::uint64_t salt = options.seed;
  std::size_t compared = 0;
  std::uint64_t late_replies = 0;
  // A measured step at the fixed rate: every reply validated, a sample
  // compared with the reference resolver, per-window latency gathered, and
  // the CPU the listener threads spent per query (robust to host stalls,
  // which stretch wall time but are not charged to the stalled thread).
  struct Fixed {
    WindowStats windows;
    std::int64_t cpu_ns = 0;
    double served = 0.0;
    double seconds = 0.0;
    [[nodiscard]] double cpu_us_per_query() const {
      return static_cast<double>(cpu_ns) / 1e3 / std::max(1.0, served);
    }
  };
  auto measured_step = [&](double seconds, Fixed& into) {
    const Schedule s = make_schedule(popularity, rate, seconds, rng);
    const auto queries_before = stack->daemon->stats().udp_queries;
    const std::int64_t cpu_before = listener_cpu_ns();
    StepResult r = generator.run(s, /*keep_samples=*/true, salt++);
    into.cpu_ns += listener_cpu_ns() - cpu_before;
    into.served += static_cast<double>(stack->daemon->stats().udp_queries - queries_before);
    into.seconds += seconds;
    into.windows.add(s, r);
    run.attempted += s.due.size();
    run.failed += r.failures();
    late_replies += r.unmatched;
    note_verdicts(r, run.errors);
    compared += compare_samples(*stack, keys, s, r, run.errors);
    return std::make_pair(std::move(r), s);
  };
  auto check_generator = [&](const Fixed& f, const char* what) {
    if (f.windows.generator_behind()) {
      run.warnings.push_back(std::string("the generator fell behind its schedule (") + what +
                             "): median window late p90 > " + fmt(kLateLimitMs, 1) +
                             " ms; its latencies measure the host");
    }
  };

  // Warm the packet caches and the generator's sockets at the fixed rate.
  {
    const Schedule warm = make_schedule(popularity, rate, kWarmSeconds, warm_rng);
    const StepResult r = generator.run(warm, false, 0);
    note_verdicts(r, run.errors);
  }

  // Memory of the serving stack at steady state, before the search's
  // per-step schedule buffers (whose size follows the rates probed) exist.
  const double rss_mb = peak_rss_mb();
  const double budget = std::max(2.0, options.seconds);
  run.e2e("setup_s", median(setup_s), "s", setup_s.size(),
          "CPU of world+CDN+resolver build and daemon bind; wall " +
              fmt(median(setup_wall_s) * 1e3) + " ms");

  if (!options.trace) {
    // The fixed-rate measurement runs in segments spread over the run, one
    // before every other max_qps search step and one after the search, so
    // it samples the host over the whole run rather than one stretch of it.
    Fixed fixed;
    const double segment_s =
        std::max(0.5, (budget - kSearchProbes * kSearchStepSeconds) / kSegments);
    int probes = 0;
    std::uint64_t generator_limited = 0;
    const SearchResult best = search_max_rate(
        [&](double offered) {
          if (probes % 2 == 0) measured_step(segment_s, fixed);
          auto step_rng = make_rng(options.seed, 0x5EA00 + static_cast<std::uint64_t>(probes));
          const Schedule s = make_schedule(popularity, offered, kSearchStepSeconds, step_rng);
          const StepResult r = generator.run(s, false, 0);
          run.attempted += s.due.size();
          // Overload timeouts are the search's signal, not failures; an
          // invalid reply is a failure at any rate.
          run.failed += r.invalid();
          late_replies += r.unmatched;
          note_verdicts(r, run.errors);
          bool behind = false;
          std::string why;
          const bool pass = step_passes(s, r, behind, why);
          run.notes.push_back("  step " + why);
          if (behind) ++generator_limited;
          ++probes;
          return pass;
        },
        rate * 1.5, rate * 16.0, 1.5, 0.03, kSearchProbes);
    while (fixed.seconds < segment_s * kSegments - 1e-9) measured_step(segment_s, fixed);
    check_generator(fixed, "fixed rate");
    run.e2e("max_qps", best.rate, "1/s", static_cast<std::uint64_t>(probes),
            "highest rate with median-window p50<=1ms, fail<=0.001, no backlog");
    run.notes.push_back("max_qps search: " + std::to_string(probes) + " steps of " +
                        fmt(kSearchStepSeconds, 1) + " s; " +
                        std::to_string(generator_limited) +
                        " step(s) where the generator fell behind");
    const WindowStats& w = fixed.windows;
    run.e2e("cpu_us_per_query", fixed.cpu_us_per_query(), "us", w.samples,
            "daemon listener CPU per query at the fixed rate");
    run.e2e("p50_ms", w.p50_ms(), "ms", w.samples,
            "at " + fmt(rate, 0) + " q/s, median of " + std::to_string(w.p50.size()) +
                " windows");
    run.e2e("p99_ms", w.p99_ms(), "ms", w.samples,
            "reported p" + fmt(median(w.p99_reported) * 100.0, 2) + ", median window");
    run.notes.push_back("fixed rate " + fmt(rate, 0) + " q/s in " +
                        std::to_string(kSegments) + " segments of " + fmt(segment_s, 1) +
                        " s; loadgen late p99 " + fmt(w.late_p99_ms(), 4) + " ms");
  } else {
    // Untraced then traced halves at the fixed rate: the per-layer figures
    // come from the traced half, the overhead from comparing the two.
    const double half = std::max(1.0, budget / 2.0);
    Fixed plain;
    measured_step(half, plain);

    const auto daemon_before = stack->daemon->stats();
    const auto cache_before = stack->resolver->cache_stats();
    const auto upstream_before = stack->resolver->upstream_queries();
    log.clear();
    log.set_enabled(true);
    Fixed traced;
    auto [traced_r, traced_s] = measured_step(half, traced);
    log.set_enabled(false);
    const auto daemon_after = stack->daemon->stats();
    const auto cache_after = stack->resolver->cache_stats();
    const TraceSummary t = link_trace(log, traced_s, traced_r, options.trace_path);

    const auto d = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    const double queries = d(daemon_after.udp_queries, daemon_before.udp_queries);
    const double batches = d(daemon_after.udp_batches, daemon_before.udp_batches);
    const double phits = d(daemon_after.pcache_hits, daemon_before.pcache_hits);
    const double pmisses = d(daemon_after.pcache_misses, daemon_before.pcache_misses);
    const double chits = d(cache_after.hits, cache_before.hits);
    const double cmisses = d(cache_after.misses, cache_before.misses);
    const double lookups = d(cache_after.lpm.lookups, cache_before.lpm.lookups);
    const double visits = d(cache_after.lpm.node_visits, cache_before.lpm.node_visits);
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto n_of = [](const std::vector<double>& v) {
      return static_cast<std::uint64_t>(v.size());
    };

    run.layer("testbed.build_s", median(world_s), "s", world_s.size(),
              "world + CDN + authoritative");
    run.layer("netio.batch_fill", ratio(queries, batches), "queries/batch",
              static_cast<std::uint64_t>(batches));
    const auto self = percentile(t.frontend_self_us, 0.50);
    run.layer("daemon.frontend_self_us_p50", self.value, "us", self.samples,
              "query span minus resolver.handle");
    run.layer("daemon.pcache_hit_ratio", ratio(phits, phits + pmisses), "ratio",
              static_cast<std::uint64_t>(phits + pmisses));
    run.layer("resolver.handle_calls", static_cast<double>(t.handler_spans), "count",
              static_cast<std::uint64_t>(queries),
              "of " + fmt(queries, 0) + " daemon queries");
    const auto h50 = percentile(t.handle_us, 0.50);
    const auto h99 = percentile(t.handle_us, 0.99);
    run.layer("resolver.handle_us_p50", h50.value, "us", h50.samples);
    run.layer("resolver.handle_us_p99", h99.value, "us", h99.samples,
              "reported p" + fmt(h99.reported_p * 100.0, 2));
    run.layer("cache.hit_ratio", ratio(chits, chits + cmisses), "ratio",
              static_cast<std::uint64_t>(chits + cmisses));
    run.layer("cache.inserts", d(cache_after.inserts, cache_before.inserts), "count", 1);
    run.layer("cache.evictions", d(cache_after.evictions, cache_before.evictions), "count",
              1);
    run.layer("lpm.visits_per_lookup", ratio(visits, lookups), "nodes/lookup",
              static_cast<std::uint64_t>(lookups));
    run.layer("upstream.exchanges",
              static_cast<double>(stack->resolver->upstream_queries() - upstream_before),
              "count", 1);
    const auto u50 = percentile(t.upstream_us, 0.50);
    run.layer("upstream.us_p50", u50.value, "us", u50.samples);
    run.layer("loadgen.late_p99_ms", traced.windows.late_p99_ms(), "ms",
              traced.windows.samples, "median window");
    run.layer("trace.overhead_pct",
              (traced.windows.p50_ms() / plain.windows.p50_ms() - 1.0) * 100.0, "%",
              traced.windows.samples, "p50 traced vs untraced at the fixed rate");
    run.layer("trace.coverage", t.coverage, "ratio", n_of(t.frontend_self_us),
              "resolver.handle time / query time");
    run.notes.push_back("traced: " + std::to_string(t.linked) + " of " +
                        std::to_string(t.handler_spans) +
                        " resolver spans linked to their generator query" +
                        (options.trace_path.empty() ? "" : "; log " + options.trace_path));
    check_generator(plain, "untraced half");
    check_generator(traced, "traced half");
    run.e2e("cpu_us_per_query", plain.cpu_us_per_query(), "us", plain.windows.samples,
            "untraced half");
    run.e2e("p50_ms", plain.windows.p50_ms(), "ms", plain.windows.samples, "untraced half");
    run.e2e("p99_ms", plain.windows.p99_ms(), "ms", plain.windows.samples, "untraced half");
  }
  run.notes.push_back("every reply validated (id, question, NOERROR, ECS scope<=source); " +
                      std::to_string(compared) +
                      " sampled replies compared with a direct PublicResolver::handle; " +
                      std::to_string(late_replies) + " replies arrived after their timeout");
  run.e2e("fail_ratio",
          run.attempted == 0 ? 0.0
                             : static_cast<double>(run.failed) /
                                   static_cast<double>(run.attempted),
          "ratio", run.attempted);
  run.e2e("peak_rss_mb", rss_mb, "MB", 1, "after set-up, priming and warm-up");
  return run;
}

}  // namespace perfbench
