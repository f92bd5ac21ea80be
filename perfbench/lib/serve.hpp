// The serving workloads: open-loop ECS queries over UDP loopback into
// dns::DaemonServer -> cdn::PublicResolver -> dns::ShardedDnsCache ->
// cdn::CdnAuthoritative.
#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

enum class ServeWorkload : std::uint8_t { kHot, kChurn };

RunOutput run_serving(ServeWorkload workload, const RunOptions& options);

}  // namespace perfbench
