// radbench's four workloads.
//
// Every workload's input is spec text in radnet_batch's `key=value`
// vocabulary, generated from the workload seed alone and parsed with
// parse_batch_file, so the program under test receives only generated
// inputs. Trial t of a single-trial workload draws its randomness exactly
// like trial t of the Monte-Carlo harness: graph stream (seed, t, 0),
// protocol stream (seed, t, 1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "harness/monte_carlo.hpp"
#include "metrics.hpp"
#include "sim/engine.hpp"

namespace radbench {

namespace harness = radnet::harness;
namespace sim = radnet::sim;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_dir;  ///< where the traced run writes its spans; "" = none
};

/// Workers of the global pool a workload runs on. radnet's pools run their
/// workers plus the calling thread, so batch_sweep's nproc - 1 workers make
/// nproc threads. The single-trial workloads run on two threads (one
/// worker): their rounds fork and join many times, and a preempted vCPU
/// stalls every join, so their wall time spreads far more with more
/// threads on a shared host (see README.md).
[[nodiscard]] unsigned pool_workers(std::string_view workload);

[[nodiscard]] std::span<const std::string_view> workload_names();

/// The workload's spec lines for `seed` (throws on an unknown workload).
[[nodiscard]] std::string workload_specs(std::string_view workload,
                                         std::uint64_t seed);

/// Runs trial `trial` of `mc` on the engine with `protocol`, on whichever
/// backend the spec names, with the harness's per-trial randomness.
[[nodiscard]] sim::RunResult run_trial(const harness::McSpec& mc,
                                       std::uint32_t trial,
                                       sim::Protocol& protocol,
                                       const sim::RunOptions& options);

/// Measures one workload and fills `report`.
void run_workload(const RunConfig& config, Report& report);

}  // namespace radbench
