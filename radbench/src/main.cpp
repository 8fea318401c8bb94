// radbench: radnet's end-to-end and per-layer benchmark.
//
//   radbench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-dir DIR]
//
// Prints a human-readable table to stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Malformed arguments exit 2 without a result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "support/parse.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "radbench: " << why
            << "\nusage: radbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\nworkloads:";
  for (const std::string_view w : radbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

radbench::RunConfig parse_args(int argc, char** argv) {
  radbench::RunConfig config;
  bool have[4] = {};
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("flag " + std::string(flag) + " needs a value");
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        config.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        config.seed = radnet::parse_u64_strict(value, "--seed");
        have[1] = true;
      } else if (flag == "--seconds") {
        config.seconds = radnet::parse_double_strict(value, "--seconds");
        if (!(config.seconds > 0.0 && config.seconds <= 3600.0))
          usage("--seconds must be in (0, 3600]");
        have[2] = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        config.traced = value == "1";
        have[3] = true;
      } else if (flag == "--trace-dir") {
        config.trace_dir = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    usage("--workload, --seed, --seconds and --trace are required");
  bool known = false;
  for (const std::string_view w : radbench::workload_names())
    known = known || w == config.workload;
  if (!known) usage("unknown workload '" + config.workload + "'");
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const radbench::RunConfig config = parse_args(argc, argv);
  // Sizes radnet's global pool, which every workload runs on, before its
  // first use.
  setenv("RADNET_THREADS", std::to_string(radbench::pool_workers(config.workload)).c_str(), 1);
  radbench::Report report(config.traced);
  try {
    radbench::run_workload(config, report);
  } catch (const std::exception& e) {
    report.fail_check(std::string("run aborted: ") + e.what());
  }
  std::cerr << "radbench " << config.workload << " seed=" << config.seed
            << " seconds=" << config.seconds
            << " trace=" << (config.traced ? 1 : 0) << '\n'
            << report.table();
  for (const std::string& problem : report.problems())
    std::cerr << "CHECK FAILED: " << problem << '\n';
  try {
    std::cout << report.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "radbench: no result: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
