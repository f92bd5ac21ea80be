#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace perfbench {

void RunOutput::add(std::vector<Metric>& to, std::string name, double value,
                    std::string unit, std::uint64_t samples, std::string note) {
  to.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
}

const Metric* RunOutput::find_layer(const std::string& name) const {
  for (const auto& m : per_layer) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const std::vector<std::string>& gated_end_to_end() {
  static const std::vector<std::string> names = {"setup_s", "cpu_us_per_op", "peak_rss_mb"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& reported_per_layer() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"netio.batch_fill", "queries/batch"},
      {"daemon.frontend_self_us_p50", "us"},
      {"daemon.pcache_hit_ratio", "ratio"},
      {"resolver.handle_calls", "count"},
      {"resolver.handle_us_p50", "us"},
      {"resolver.handle_us_p99", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.inserts", "count"},
      {"cache.evictions", "count"},
      {"lpm.visits_per_lookup", "nodes/lookup"},
      {"upstream.exchanges", "count"},
      {"upstream.us_p50", "us"},
      {"testbed.build_s", "s"},
      {"trial.resolve_cr_share", "ratio"},
      {"trial.traceroute_share", "ratio"},
      {"trial.assimilate_share", "ratio"},
      {"trial.measure_share", "ratio"},
      {"trial.dns_exchanges", "queries/trial"},
      {"trial.usable_hop_ratio", "ratio"},
      {"routing.cached_destinations", "count"},
      {"decision.observe_ns", "ns"},
      {"decision.choose_ns", "ns"},
      {"analysis.aggregate_gain_pct", "%"},
      {"analysis.affected_clients_pct", "%"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage", "ratio"}};
  return names;
}

std::string json_name_of(const std::string& workload_metric) {
  if (workload_metric == "cpu_us_per_query" || workload_metric == "cpu_us_per_trial") {
    return "cpu_us_per_op";
  }
  for (const auto& name : gated_end_to_end()) {
    if (name == workload_metric) return name;
  }
  return "";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string shown(double v) {
  std::ostringstream out;
  out << std::setprecision(6) << v;
  return out.str();
}

void print_table(std::ostream& out, const std::string& title,
                 const std::vector<Metric>& metrics) {
  out << "== " << title << "\n";
  out << std::left << std::setw(32) << "metric" << std::setw(16) << "value"
      << std::setw(10) << "unit" << std::setw(10) << "samples" << "note\n";
  for (const auto& m : metrics) {
    out << std::left << std::setw(32) << m.name << std::setw(16) << shown(m.value)
        << std::setw(10) << m.unit << std::setw(10) << m.samples << m.note << "\n";
  }
}

}  // namespace

void print_run(const RunOutput& run, std::ostream& out) {
  for (const auto& note : run.notes) out << "# " << note << "\n";
  for (const auto& error : run.errors) out << "CHECK FAILED: " << error << "\n";
  for (const auto& warning : run.warnings) out << "WARNING: " << warning << "\n";
  print_table(out, run.workload + " end-to-end", run.end_to_end);

  std::vector<Metric> layers;
  if (run.trace) {
    for (const auto& [name, unit] : reported_per_layer()) {
      const Metric* m = run.find_layer(name);
      layers.push_back(m != nullptr ? *m : Metric{name, 0.0, unit, 0, "not exercised"});
    }
    print_table(out, run.workload + " per-layer (traced run)", layers);
  }

  const bool correct = run.errors.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
       << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number(value)
         << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (run.trace) {
    for (const auto& m : layers) emit(m.name, m.value, m.unit);
  } else {
    for (const auto& name : gated_end_to_end()) {
      for (const auto& m : run.end_to_end) {
        if (json_name_of(m.name) == name) emit(name, m.value, m.unit);
      }
    }
  }
  json << "}}";
  out << json.str() << "\n";
}

}  // namespace perfbench
