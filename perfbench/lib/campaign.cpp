#include "campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "analysis/evaluation.hpp"
#include "cdn/authoritative.hpp"
#include "core/decision.hpp"
#include "core/valley.hpp"
#include "measure/campaign.hpp"
#include "measure/dataset.hpp"
#include "measure/testbed.hpp"
#include "obs/metrics.hpp"
#include "decorators.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace drongo;

namespace {

constexpr int kTraining = 5;
constexpr int kTest = 5;
constexpr int kTrials = kTraining + kTest;
constexpr double kSpacingHours = 72.0;  // analysis::EvaluationConfig default
constexpr double kVf = 1.0;
constexpr double kVt = 0.95;
constexpr std::size_t kSerialCheckClients = 8;
// A traced pass keeps the spans of every 16th task (whole traces), which
// bounds the span log's memory; counts still cover every task.
constexpr std::size_t kTraceEvery = 16;

/// One test query's outcome, as analysis::Evaluation::evaluate defines it.
struct Decision {
  bool assimilated = false;
  double ratio = 1.0;
  bool operator==(const Decision&) const = default;
};

struct Pass {
  double seconds = 0.0;
  double cpu_seconds = 0.0;  // process CPU time; hypervisor steal excluded
  std::vector<double> task_ms;
  std::vector<double> observe_ns;
  std::vector<double> choose_ns;
  std::vector<measure::TrialRecord> records;  // canonical order, first pass only
  std::vector<Decision> decisions;            // canonical (c, p, test t) order
  std::uint64_t failed_trials = 0;
};

/// Canonical index of task (c, p, t): the order Evaluation stores records in.
std::size_t slot(std::size_t c, std::size_t p, std::size_t providers, int t) {
  return (c * providers + p) * kTrials + static_cast<std::size_t>(t);
}

measure::CampaignTask task_of(std::size_t c, std::size_t p, int t) {
  return {c, p, static_cast<std::uint64_t>(t), t * kSpacingHours, c % 3};
}

/// One closed-loop pass: `workers` threads claim clients in `order` and run
/// each client's tasks, feeding training trials to a per-(client, provider)
/// DecisionEngine and asking it about each test trial.
Pass run_pass(const measure::TrialRunner& runner, const std::vector<std::size_t>& order,
              std::size_t providers, std::size_t workers, bool keep_records,
              SpanLog* log) {
  const std::size_t clients = order.size();
  Pass pass;
  pass.task_ms.assign(clients * providers * kTrials, 0.0);
  pass.decisions.assign(clients * providers * kTest, Decision{});
  if (keep_records) pass.records.resize(clients * providers * kTrials);
  std::vector<std::vector<double>> observe_ns(workers);
  std::vector<std::vector<double>> choose_ns(workers);
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::size_t> next{0};
  const std::uint32_t task_name = log->name_id("task");
  const std::uint32_t run_name = log->name_id("trial.run_task");
  const std::uint32_t observe_name = log->name_id("decision.observe");
  const std::uint32_t choose_name = log->name_id("decision.choose");

  auto work = [&](std::size_t w) {
    for (std::size_t i = next.fetch_add(1); i < clients; i = next.fetch_add(1)) {
      const std::size_t c = order[i];
      for (std::size_t p = 0; p < providers; ++p) {
        core::DrongoParams params;
        params.valley_threshold = kVt;
        params.min_valley_frequency = kVf;
        params.window_size = kTraining;
        core::DecisionEngine engine(params, (c + 1) * 1000003ULL + p);
        for (int t = 0; t < kTrials; ++t) {
          const std::size_t index = slot(c, p, providers, t);
          const std::int64_t t0 = now_ns();
          const SpanSilence unsampled(index % kTraceEvery != 0);
          const ScopedSpan task_span(log, task_name, index + 1);
          measure::TrialRecord record;
          {
            const ScopedSpan span(log, run_name);
            record = runner.run_task(task_of(c, p, t));
          }
          if (record.failed()) failed.fetch_add(1, std::memory_order_relaxed);
          const std::int64_t t1 = now_ns();
          if (t < kTraining) {
            const ScopedSpan span(log, observe_name);
            engine.observe(record);
            observe_ns[w].push_back(static_cast<double>(now_ns() - t1));
          } else {
            std::optional<net::Prefix> chosen;
            {
              const ScopedSpan span(log, choose_name);
              chosen = engine.choose(record.domain);
            }
            choose_ns[w].push_back(static_cast<double>(now_ns() - t1));
            Decision d;
            if (chosen) {
              for (const auto& hop : record.hops) {
                if (hop.subnet != *chosen) continue;
                if (!hop.hr.empty() && !record.cr.empty()) {
                  if (const auto ratio = core::latency_ratio(record, hop,
                                                             core::RatioConvention::deployment())) {
                    d.assimilated = true;
                    d.ratio = *ratio;
                  }
                }
                break;
              }
            }
            pass.decisions[(c * providers + p) * kTest + static_cast<std::size_t>(t - kTraining)] = d;
          }
          pass.task_ms[index] = static_cast<double>(now_ns() - t0) / 1e6;
          if (keep_records) pass.records[index] = std::move(record);
        }
      }
    }
  };

  const std::int64_t start = now_ns();
  const std::int64_t cpu_start = process_cpu_ns();
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
  for (auto& t : pool) t.join();
  pass.seconds = static_cast<double>(now_ns() - start) / 1e9;
  pass.cpu_seconds = static_cast<double>(process_cpu_ns() - cpu_start) / 1e9;
  pass.failed_trials = failed.load();
  for (std::size_t w = 0; w < workers; ++w) {
    pass.observe_ns.insert(pass.observe_ns.end(), observe_ns[w].begin(), observe_ns[w].end());
    pass.choose_ns.insert(pass.choose_ns.end(), choose_ns[w].begin(), choose_ns[w].end());
  }
  return pass;
}

std::string dataset_bytes(const std::vector<measure::TrialRecord>& records) {
  std::ostringstream out;
  measure::save_dataset(out, records);
  return out.str();
}

struct Gains {
  double aggregate_pct = 0.0;
  double affected_pct = 0.0;
};

/// §5 headline numbers from per-query decisions in canonical order, with
/// the arithmetic of Evaluation::overall_mean_ratio and
/// fraction_clients_affected, so the two agree to the bit.
Gains gains_of(const std::vector<Decision>& decisions, std::size_t clients,
               std::size_t providers) {
  double sum = 0.0;
  std::set<std::size_t> affected;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    sum += decisions[i].ratio;
    if (decisions[i].assimilated) affected.insert(i / (providers * kTest));
  }
  Gains g;
  g.aggregate_pct = (1.0 - sum / static_cast<double>(decisions.size())) * 100.0;
  g.affected_pct =
      static_cast<double>(affected.size()) / static_cast<double>(clients) * 100.0;
  return g;
}

double span_ticks(const obs::Snapshot& snap, const std::string& name) {
  const auto it = snap.spans.find(name);
  return it == snap.spans.end() ? 0.0 : static_cast<double>(it->second.total_ticks);
}

}  // namespace

RunOutput run_campaign(const RunOptions& options) {
  RunOutput run;
  run.workload = "trial-campaign";
  run.trace = options.trace;
  const auto cpus = usable_cpus();
  const std::size_t workers = std::clamp<std::size_t>(cpus.size(), 1, 4);
  run.notes.push_back("nproc " + std::to_string(cpus.size()) + ", hardware_concurrency " +
                      std::to_string(std::thread::hardware_concurrency()) + "; " +
                      std::to_string(workers) + " closed-loop campaign workers, unpinned");

  // Set-up: the RIPE-style testbed (429 clients x 6 providers), built nine
  // times; the last one is measured. Set-up is timed in CPU time of this
  // thread, which hypervisor steal does not enter; the wall time is noted.
  std::vector<double> build_s;
  std::vector<double> build_wall_s;
  std::unique_ptr<measure::Testbed> testbed;
  for (int i = 0; i < 9; ++i) {
    testbed.reset();
    const std::int64_t t0 = now_ns();
    const std::int64_t cpu0 = thread_cpu_now_ns();
    testbed = std::make_unique<measure::Testbed>(measure::TestbedConfig::ripe_atlas());
    build_s.push_back(static_cast<double>(thread_cpu_now_ns() - cpu0) / 1e9);
    build_wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  run.e2e("setup_s", median(build_s), "s", build_s.size(),
          "CPU of Testbed construction; wall " +
              std::to_string(median(build_wall_s) * 1e3).substr(0, 6) + " ms");

  // Seeded inputs: the trial-runner seed and the order workers claim clients.
  auto rng = make_rng(options.seed, 0xCA3);
  const std::uint64_t runner_seed = rng();
  const std::size_t clients = testbed->clients().size();
  const std::size_t providers = testbed->provider_count();
  std::vector<std::size_t> order(clients);
  for (std::size_t c = 0; c < clients; ++c) order[c] = c;
  std::shuffle(order.begin(), order.end(), rng);
  measure::TrialRunner runner(testbed.get(), runner_seed);
  const std::uint64_t tasks_per_pass = clients * providers * kTrials;
  run.notes.push_back("task list: " + std::to_string(clients) + " clients x " +
                      std::to_string(providers) + " providers x " + std::to_string(kTrials) +
                      " trials (" + std::to_string(kTraining) + " training + " +
                      std::to_string(kTest) + " test) = " + std::to_string(tasks_per_pass) +
                      " tasks per pass");

  SpanLog log;
  obs::Registry registry;
  std::vector<Pass> passes;
  std::vector<Pass> traced;
  const double budget = std::max(1.0, options.seconds);
  const std::int64_t start = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  // Untraced passes fill the budget. A trace run instead alternates traced
  // and untraced passes after the first (cold) one, so the overhead compares
  // like with like.
  auto traced_pass = [&] {
    runner.set_registry(&registry);
    log.set_enabled(true);
    traced.push_back(run_pass(runner, order, providers, workers, false, &log));
    log.set_enabled(false);
    runner.set_registry(nullptr);
  };
  passes.push_back(run_pass(runner, order, providers, workers, true, &log));

  // A trace run then puts span sources into the testbed's DNS fabric: the
  // public resolver is wrapped in place, and each CDN authoritative is
  // replaced by an identically built one inside an `upstream.exchange`
  // span. The first pass above ran without them, and the record check
  // below compares it with Evaluation's run, which runs with them.
  std::unique_ptr<SpannedServer> resolver_spans;
  std::vector<std::unique_ptr<cdn::CdnAuthoritative>> authoritatives;
  std::vector<std::unique_ptr<SpannedServer>> upstream_spans;
  if (options.trace) {
    auto& network = testbed->dns_network();
    resolver_spans =
        std::make_unique<SpannedServer>(&testbed->resolver(), &log, "resolver.handle");
    network.register_server(testbed->resolver_address(), resolver_spans.get());
    for (std::size_t p = 0; p < providers; ++p) {
      authoritatives.push_back(std::make_unique<cdn::CdnAuthoritative>(&testbed->provider(p)));
      upstream_spans.push_back(std::make_unique<SpannedServer>(authoritatives.back().get(),
                                                               &log, "upstream.exchange"));
      network.register_server(testbed->authoritative_addresses().at(p),
                              upstream_spans.back().get());
    }
  }
  while (elapsed() + passes.back().seconds <= budget) {
    if (options.trace && traced.size() < passes.size()) {
      traced_pass();
    } else {
      passes.push_back(run_pass(runner, order, providers, workers, false, &log));
    }
  }
  if (options.trace && traced.empty()) traced_pass();

  // ---- Output checks ------------------------------------------------------
  const Pass& first = passes.front();
  for (const auto* list : {&passes, &traced}) {
    for (const Pass& p : *list) {
      run.attempted += p.task_ms.size();
      run.failed += p.failed_trials;
      if (p.decisions != first.decisions) {
        run.errors.push_back("a later pass decided differently from the first");
        ++run.failed;
      }
    }
  }
  // N threads: Evaluation runs the same tasks through ParallelCampaignRunner.
  analysis::EvaluationConfig eval_config;
  eval_config.threads = static_cast<int>(workers);
  const analysis::Evaluation evaluation(testbed.get(), runner_seed, eval_config);
  std::vector<measure::TrialRecord> reference;
  reference.reserve(tasks_per_pass);
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t p = 0; p < providers; ++p) {
      const auto& records = evaluation.records(c, p);
      reference.insert(reference.end(), records.begin(), records.end());
    }
  }
  if (dataset_bytes(reference) != dataset_bytes(first.records)) {
    run.errors.push_back("run_task records differ from ParallelCampaignRunner at " +
                         std::to_string(workers) + " threads");
    ++run.failed;
  }
  // 1 thread: a seeded sample of clients through the serial runner.
  {
    std::vector<measure::CampaignTask> tasks;
    std::vector<measure::TrialRecord> ours;
    for (std::size_t i = 0; i < std::min(kSerialCheckClients, clients); ++i) {
      const std::size_t c = order[i];
      for (std::size_t p = 0; p < providers; ++p) {
        for (int t = 0; t < kTrials; ++t) {
          tasks.push_back(task_of(c, p, t));
          ours.push_back(first.records[slot(c, p, providers, t)]);
        }
      }
    }
    const measure::ParallelCampaignRunner serial(&runner, {.threads = 1});
    if (dataset_bytes(serial.run(tasks)) != dataset_bytes(ours)) {
      run.errors.push_back("run_task records differ from ParallelCampaignRunner at 1 thread");
      ++run.failed;
    }
  }
  // Gains: the engine decisions must equal Evaluation::evaluate's.
  const auto samples = evaluation.evaluate(kVf, kVt);
  std::vector<Decision> expected;
  expected.reserve(samples.size());
  for (const auto& s : samples) expected.push_back({s.assimilated, s.ratio});
  if (expected != first.decisions) {
    run.errors.push_back("decisions differ from analysis::Evaluation::evaluate");
    ++run.failed;
  }
  const Gains gains = gains_of(first.decisions, clients, providers);
  if (gains.aggregate_pct != (1.0 - evaluation.overall_mean_ratio(kVf, kVt)) * 100.0 ||
      gains.affected_pct != evaluation.fraction_clients_affected(kVf, kVt) * 100.0) {
    run.errors.push_back("gain metrics differ from analysis::Evaluation");
    ++run.failed;
  }
  run.notes.push_back("checked: records byte-identical to ParallelCampaignRunner at " +
                      std::to_string(workers) + " threads (all tasks) and 1 thread (" +
                      std::to_string(std::min(kSerialCheckClients, clients)) +
                      " clients); decisions equal Evaluation::evaluate(vf 1.0, vt 0.95)");

  // ---- End-to-end metrics -------------------------------------------------
  std::vector<double> rates;
  std::vector<double> cpu_us;
  std::vector<double> task_ms;
  for (const Pass& p : passes) {
    rates.push_back(static_cast<double>(p.task_ms.size()) / p.seconds);
    cpu_us.push_back(p.cpu_seconds * 1e6 / static_cast<double>(p.task_ms.size()));
    task_ms.insert(task_ms.end(), p.task_ms.begin(), p.task_ms.end());
  }
  run.e2e("trials_per_s", median(rates), "1/s", rates.size(),
          "median over " + std::to_string(passes.size()) + " passes");
  run.e2e("cpu_us_per_trial", median(cpu_us), "us", cpu_us.size(),
          "process CPU per task, median over passes");
  const auto p50 = percentile(task_ms, 0.50);
  const auto p99 = percentile(task_ms, 0.99);
  run.e2e("trial_p50_ms", p50.value, "ms", p50.samples, "run_task + observe/choose");
  run.e2e("trial_p99_ms", p99.value, "ms", p99.samples,
          "reported p" + std::to_string(p99.reported_p * 100.0).substr(0, 5));
  run.e2e("fail_ratio",
          static_cast<double>(run.failed) / static_cast<double>(std::max<std::uint64_t>(1, run.attempted)),
          "ratio", run.attempted);
  run.e2e("aggregate_gain_pct", gains.aggregate_pct, "%", first.decisions.size(),
          "paper: 5.18 at full scale");
  run.e2e("affected_clients_pct", gains.affected_pct, "%", clients,
          "paper: 69.93 at full scale");

  // ---- Per-layer metrics (traced run) -------------------------------------
  if (options.trace) {
    run.layer("testbed.build_s", median(build_s), "s", build_s.size());
    const auto snap = registry.snapshot();
    const double trial_ticks = span_ticks(snap, "measure.trial");
    const auto share = [&](const char* phase) {
      return trial_ticks > 0.0
                 ? span_ticks(snap, std::string("measure.trial.") + phase) / trial_ticks
                 : 0.0;
    };
    const auto trial_count = snap.spans.count("measure.trial") != 0
                                 ? snap.spans.at("measure.trial").count
                                 : 0;
    for (const char* phase : {"resolve_cr", "traceroute", "assimilate", "measure"}) {
      run.layer(std::string("trial.") + phase + "_share", share(phase), "ratio", trial_count);
    }
    std::uint64_t hops = 0;
    std::uint64_t usable = 0;
    std::uint64_t queries = 0;
    for (const auto& r : first.records) {
      hops += r.hops.size();
      usable += r.usable().size();
      queries += r.health.queries;
    }
    run.layer("trial.dns_exchanges",
              static_cast<double>(queries) / static_cast<double>(first.records.size()),
              "queries/trial", first.records.size());
    run.layer("trial.usable_hop_ratio",
              hops == 0 ? 0.0 : static_cast<double>(usable) / static_cast<double>(hops),
              "ratio", hops);
    run.layer("routing.cached_destinations",
              static_cast<double>(testbed->world().routing().cached_destinations()), "count",
              1);
    std::vector<double> observe;
    std::vector<double> choose;
    std::vector<double> traced_rates;
    for (const Pass& p : traced) {
      observe.insert(observe.end(), p.observe_ns.begin(), p.observe_ns.end());
      choose.insert(choose.end(), p.choose_ns.begin(), p.choose_ns.end());
      traced_rates.push_back(static_cast<double>(p.task_ms.size()) / p.seconds);
    }
    const auto obs50 = percentile(observe, 0.5);
    const auto cho50 = percentile(choose, 0.5);
    run.layer("decision.observe_ns", obs50.value, "ns", obs50.samples, "p50 per call");
    run.layer("decision.choose_ns", cho50.value, "ns", cho50.samples, "p50 per call");
    run.layer("analysis.aggregate_gain_pct", gains.aggregate_pct, "%", first.decisions.size());
    run.layer("analysis.affected_clients_pct", gains.affected_pct, "%", clients);
    // The cold first pass is left out of the untraced side when warm ones exist.
    const std::vector<double> warm(rates.size() > 1 ? rates.begin() + 1 : rates.begin(),
                                   rates.end());
    run.layer("trace.overhead_pct", (median(warm) / median(traced_rates) - 1.0) * 100.0, "%",
              traced_rates.size(), "trials/s untraced (warm) vs traced");

    // Coverage: the share of task spans that their child spans account for.
    const auto spans = log.collect();
    const std::uint32_t task_name = log.name_id("task");
    const std::uint32_t handle_name = log.name_id("resolver.handle");
    const std::uint32_t upstream_name = log.name_id("upstream.exchange");
    std::vector<double> handle_us;
    std::vector<double> upstream_us;
    for (const auto& span : spans) {
      const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      if (span.name == handle_name) handle_us.push_back(us);
      if (span.name == upstream_name) upstream_us.push_back(us);
    }
    const auto h50 = percentile(handle_us, 0.50);
    const auto h99 = percentile(handle_us, 0.99);
    const auto u50 = percentile(upstream_us, 0.50);
    run.layer("resolver.handle_calls", static_cast<double>(resolver_spans->calls()), "count",
              handle_us.size(), "stub queries the public resolver answered, traced passes");
    run.layer("resolver.handle_us_p50", h50.value, "us", h50.samples);
    run.layer("resolver.handle_us_p99", h99.value, "us", h99.samples);
    std::uint64_t exchanges = 0;
    for (const auto& server : upstream_spans) exchanges += server->calls();
    run.layer("upstream.exchanges", static_cast<double>(exchanges), "count",
              upstream_us.size(), "with the CDN authoritatives, traced passes");
    run.layer("upstream.us_p50", u50.value, "us", u50.samples, "CDN authoritative handle");
    const auto cache = testbed->resolver().cache_stats();
    run.layer("cache.hit_ratio",
              cache.hits + cache.misses == 0
                  ? 0.0
                  : static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses),
              "ratio", cache.hits + cache.misses, "testbed resolver cache is off");
    std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
    for (const auto& s : spans) {
      if (s.name != task_name) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    double total = 0.0;
    double self = 0.0;
    std::uint64_t tasks = 0;
    for (const auto& s : spans) {
      if (s.name != task_name) continue;
      ++tasks;
      total += static_cast<double>(s.end_ns - s.start_ns);
      const auto it = kids.find(s.span_id);
      self += static_cast<double>(self_time_ns(
          s.start_ns, s.end_ns,
          it == kids.end() ? std::vector<std::pair<std::int64_t, std::int64_t>>{}
                           : it->second));
    }
    run.layer("trace.coverage", total > 0.0 ? (total - self) / total : 0.0, "ratio", tasks,
              "(run_task + decision) / task");
    const double shares = share("resolve_cr") + share("traceroute") + share("assimilate") +
                          share("measure");
    run.notes.push_back("trial phase shares sum to " + std::to_string(shares) +
                        " of measure.trial span time");
    if (!options.trace_path.empty()) {
      log.write(options.trace_path, spans);
      run.notes.push_back("span log: " + options.trace_path);
    }
  }
  testbed.reset();
  run.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
  return run;
}

}  // namespace perfbench
