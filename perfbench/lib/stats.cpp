#include "stats.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the value at index ceil(p*n)-1 has n-1-index samples
  // beyond it; cap the index so that at least 10 remain beyond.
  const double rank = std::ceil(p * static_cast<double>(n));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  const std::size_t cap = n > 10 ? n - 11 : 0;
  index = std::min({index, cap, n - 1});
  out.value = samples[index];
  out.reported_p = static_cast<double>(index + 1) / static_cast<double>(n);
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t purpose) {
  // splitmix64 of (seed, purpose): independent streams per purpose.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xD1B54A32D192ED03ULL +
                    0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return std::mt19937_64(z);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::operator()(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<std::int64_t> poisson_arrivals(double rate_per_s, double duration_s,
                                           std::mt19937_64& rng) {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.05) + 16);
  std::exponential_distribution<double> gap(rate_per_s);
  const double end = duration_s * 1e9;
  for (double t = gap(rng) * 1e9; t < end; t += gap(rng) * 1e9) {
    out.push_back(static_cast<std::int64_t>(t));
  }
  return out;
}

SearchResult search_max_rate(const std::function<bool(double)>& passes, double start,
                             double ceiling, double grow, double resolution,
                             int max_probes) {
  SearchResult result;
  auto probe = [&](double rate) {
    ++result.probes;
    return passes(rate);
  };
  double good = 0.0;
  double bad = 0.0;
  double rate = start;
  if (probe(rate)) {
    good = rate;
    while (good < ceiling && result.probes < max_probes) {
      rate = std::min(good * grow, ceiling);
      if (!probe(rate)) {
        bad = rate;
        break;
      }
      good = rate;
    }
    if (bad == 0.0) {
      result.rate = good;
      return result;
    }
  } else {
    bad = rate;
    for (int i = 0; i < 4 && good == 0.0 && result.probes < max_probes; ++i) {
      rate = bad / grow;
      if (probe(rate)) {
        good = rate;
      } else {
        bad = rate;
      }
    }
    if (good == 0.0) return result;
  }
  while (bad / good > 1.0 + resolution && result.probes < max_probes) {
    rate = std::sqrt(good * bad);
    if (probe(rate)) {
      good = rate;
    } else {
      bad = rate;
    }
  }
  result.rate = good;
  return result;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

long current_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

std::int64_t thread_cpu_ns(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::int64_t ns = 0;
  in >> ns;
  return in ? ns : 0;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

}  // namespace perfbench
