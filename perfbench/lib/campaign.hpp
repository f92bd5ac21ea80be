// The trial-campaign workload: Drongo's own path (routing, traceroute, the
// §3.1 hop filter, ECS re-resolutions, probes, the decision engine) over a
// RIPE-style task list, then the §5 evaluation.
#pragma once

#include "report.hpp"

namespace perfbench {

RunOutput run_campaign(const RunOptions& options);

}  // namespace perfbench
