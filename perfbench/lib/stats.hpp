// Statistics and input-generation helpers shared by every workload.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (one time base for every span and
/// every generator timestamp in a run).
std::int64_t now_ns();

/// A percentile as reported: the value, the percentile actually used and
/// the sample count behind it.
struct Percentile {
  double value = 0.0;
  double reported_p = 0.0;  ///< in [0, 1]; may be below the one asked for
  std::size_t samples = 0;
};

/// The percentile rule: report the asked-for percentile `p` (in [0, 1])
/// only while at least 10 samples lie beyond it; with fewer samples report
/// the highest percentile that still has 10 beyond it (nearest rank; the
/// minimum when there are 10 samples or fewer).
/// Samples need not be sorted; empty input reports 0 with 0 samples.
Percentile percentile(std::vector<double> samples, double p);

/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> values);

/// A deterministic 64-bit generator for the benchmark's inputs. Every
/// stream is derived from (seed, purpose), so adding a new stream never
/// shifts an existing one.
std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t purpose);

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), sampled by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival times (ns offsets from 0) at `rate_per_s` over
/// `duration_s`: exponential gaps from `rng`.
std::vector<std::int64_t> poisson_arrivals(double rate_per_s, double duration_s,
                                           std::mt19937_64& rng);

/// The max-rate search: the highest rate at which `passes(rate)` holds.
/// Starts at `start`, multiplies by `grow` until a rate fails (or `ceiling`
/// is reached), then bisects geometrically between the last pass and the
/// first failure until they are within `resolution` (relative) or
/// `max_probes` calls have been made. Returns 0 when even the floor
/// `start / grow^4` fails. `probes` counts the calls.
struct SearchResult {
  double rate = 0.0;
  int probes = 0;
};
SearchResult search_max_rate(const std::function<bool(double)>& passes, double start,
                             double ceiling, double grow = 1.5,
                             double resolution = 0.03, int max_probes = 32);

/// Peak resident set of this process in MB (VmHWM), 0 if unreadable.
double peak_rss_mb();

/// The calling thread's kernel thread id.
long current_tid();

/// CPU time (ns) thread `tid` of this process has run, from its schedstat;
/// hypervisor steal is not charged to it. 0 if unreadable.
std::int64_t thread_cpu_ns(long tid);

/// CPU time (ns) of the whole process.
std::int64_t process_cpu_ns();

/// CPU time (ns) of the calling thread.
std::int64_t thread_cpu_now_ns();

/// Usable CPU ids of this process (sched_getaffinity), ascending.
std::vector<int> usable_cpus();

/// Pins the calling thread to `cpu`; false when the kernel refuses.
bool pin_to_cpu(int cpu);

}  // namespace perfbench
