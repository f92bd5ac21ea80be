// Run results: the metrics a workload produced, the checks it made, and the
// printing of both (a human table, then the one-line JSON result).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// What every workload takes from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span log ("" = do not write).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;  ///< e.g. the percentile actually reported
};

struct RunOutput {
  std::string workload;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The workload's end-to-end metrics under their own names.
  std::vector<Metric> end_to_end;
  /// Per-layer metrics (trace runs only).
  std::vector<Metric> per_layer;
  /// Host facts and check results, printed before the tables.
  std::vector<std::string> notes;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Measurement caveats (for example the load generator fell behind its
  /// schedule); printed, but the outputs are still correct.
  std::vector<std::string> warnings;

  void add(std::vector<Metric>& to, std::string name, double value, std::string unit,
           std::uint64_t samples, std::string note = "");
  void e2e(std::string name, double value, std::string unit, std::uint64_t samples,
           std::string note = "") {
    add(end_to_end, std::move(name), value, std::move(unit), samples, std::move(note));
  }
  void layer(std::string name, double value, std::string unit, std::uint64_t samples,
             std::string note = "") {
    add(per_layer, std::move(name), value, std::move(unit), samples, std::move(note));
  }
  [[nodiscard]] const Metric* find_layer(const std::string& name) const;
};

/// The names BENCHMARK.json declares, in its order. Each workload's own
/// end-to-end metric maps onto one of the gated names (see README.md).
const std::vector<std::string>& gated_end_to_end();
/// Per-layer names with their units.
const std::vector<std::pair<std::string, std::string>>& reported_per_layer();

/// Maps a workload metric name onto its BENCHMARK.json name ("" when the metric
/// is reported in the table only).
std::string json_name_of(const std::string& workload_metric);

/// Prints the notes, the end-to-end table and (trace runs) the per-layer
/// table, then the JSON result line. Per-layer metrics a workload does not
/// exercise are printed as 0 with 0 samples.
void print_run(const RunOutput& run, std::ostream& out);

}  // namespace perfbench
