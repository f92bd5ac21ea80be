// perfbench: the repo benchmark's binary.
//
//   perfbench --workload <serve-hot|serve-ecs-churn|trial-campaign>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints notes and metric tables, then one JSON result line. Exits 1 when
// an output check fails, 2 on bad arguments.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "campaign.hpp"
#include "serve.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <serve-hot|serve-ecs-churn|trial-campaign> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }

  const perfbench::RunOptions options{seed, seconds, trace == 1, trace_out};
  perfbench::RunOutput run;
  if (workload == "serve-hot") {
    run = perfbench::run_serving(perfbench::ServeWorkload::kHot, options);
  } else if (workload == "serve-ecs-churn") {
    run = perfbench::run_serving(perfbench::ServeWorkload::kChurn, options);
  } else if (workload == "trial-campaign") {
    run = perfbench::run_campaign(options);
  } else {
    usage("unknown workload '" + workload + "'");
  }
  perfbench::print_run(run, std::cout);
  std::cout.flush();
  return run.errors.empty() ? 0 : 1;
}
