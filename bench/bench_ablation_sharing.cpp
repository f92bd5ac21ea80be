// Ablation: the §7 peer-sharing extension — measurement cost vs group size.
//
// For household groups of 1..8 devices behind one /24, one device runs the
// idle-time trials and every device's engine observes them. Reported: DNS
// exchanges per device to reach a full training window, and how many
// devices end up with a qualified assimilation subnet.
#include <iostream>

#include "analysis/render.hpp"
#include "bench_common.hpp"
#include "core/decision.hpp"

using namespace drongo;

int main() {
  std::cout << "Peer-sharing ablation (one /24, provider Google-like)\n\n";
  measure::TestbedConfig config = measure::TestbedConfig::planetlab();
  config.client_count = 4;
  measure::Testbed testbed(config);

  core::DrongoParams params;
  params.min_valley_frequency = 0.2;
  params.valley_threshold = 1.0;
  const int window = static_cast<int>(params.window_size);

  std::vector<std::vector<std::string>> cells;
  for (int devices : {1, 2, 4, 8}) {
    measure::TrialRunner runner(&testbed, 0xFA0 + static_cast<std::uint64_t>(devices));
    std::vector<std::unique_ptr<core::DecisionEngine>> engines;
    for (int d = 0; d < devices; ++d) {
      engines.push_back(std::make_unique<core::DecisionEngine>(params, 100 + d));
    }
    const auto before = testbed.dns_network().exchange_count();
    std::string domain;
    for (int t = 0; t < window; ++t) {
      auto trial = runner.run(0, 0, t * 12.0, 0);
      domain = trial.domain;
      for (auto& engine : engines) engine->observe(trial);
    }
    const auto exchanges = testbed.dns_network().exchange_count() - before;
    int qualified = 0;
    for (auto& engine : engines) {
      if (engine->choose(domain)) ++qualified;
    }
    cells.push_back({std::to_string(devices), std::to_string(exchanges),
                     analysis::fmt(static_cast<double>(exchanges) / devices, 1),
                     std::to_string(qualified) + "/" + std::to_string(devices),
                     std::to_string((devices - 1) * window)});
  }
  std::cout << analysis::render_table(
      "Cost to fill one training window",
      {"devices", "DNS exchanges", "exchanges/device", "qualified", "peer trials saved"},
      cells);
  std::cout << "\nReading guide: total measurement cost is constant, so per-device cost\n"
               "falls as 1/devices while every device reaches the same decision — the\n"
               "scaling answer to the paper's mass-deployment concern (§7).\n";
  return 0;
}
