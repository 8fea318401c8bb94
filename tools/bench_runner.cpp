// Perf-trajectory runner: times the engine's hot paths and writes
// BENCH_engine.json so CI can track regressions from one PR to the next.
//
// Covers the same ground as bench_e13_engine_micro (rounds/second of the
// CSR engine under a fixed-probability load) plus the implicit-vs-CSR
// end-to-end comparison of bench_e15_topology, in-process and without the
// google-benchmark dependency so it can run as a ctest (`ctest -L
// bench_smoke`). Medians of ns/round at several n are emitted as JSON:
//
//   { "schema": "radnet-bench-engine-v6",
//     "host": {"hardware_concurrency": ..., "pool_threads": ...},
//     "benchmarks": [ {"name": ..., "n": ..., "ns_per_round": ...,
//                      "wall_ms": ..., "threads": ..., "peak_rss_kb": ...},
//                    ... ],
//     "comparison": {"n": ..., "p": ..., "csr_ms": ..., "implicit_ms": ...,
//                    "speedup": ...},
//     "dynamic": {"n": ..., "churn": ..., "trial_ms": ..., "rounds": ...},
//     "thread_scaling": {"n": ..., "serial_ms": ..., "parallel_ms": ...,
//                        "speedup": ..., "pool_threads": ...,
//                        "identical": ...},
//     "csr_thread_scaling": { same shape as thread_scaling },
//     "e14b_mobility": {"n": ..., "degree": ..., "horizon": ...,
//                       "serial_ms": ..., "parallel_ms": ..., "speedup": ...,
//                       "pool_threads": ..., "identical": ...,
//                       "peak_rss_kb": ...},
//     "e18_adversary": {"n": ..., "jammer_fraction": ...,
//                       "byzantine_fraction": ..., "budget_mean": ...,
//                       "horizon": ..., "serial_ms": ..., "parallel_ms": ...,
//                       "speedup": ..., "pool_threads": ...,
//                       "identical": ..., "stranded_fraction": ...},
//     "e19_batch": {"specs": ..., "trials_run": ..., "trials_saved": ...,
//                   "serial_ms": ..., "parallel_ms": ..., "warm_ms": ...,
//                   "threads_identical": ..., "cached_identical": ...},
//     "e20_faulttol": {"specs": ..., "kill_confirmed": ...,
//                      "partial_prefix": ..., "resumed_identical": ...,
//                      "journal_trials": ..., "journal_results": ...,
//                      "baseline_ms": ..., "resume_ms": ...} }
//
// Every entry carries its wall-clock cost, the thread count it ran with
// and the process peak RSS when it finished (ru_maxrss — monotone, so an
// entry's value is the high-water mark up to that point), seeding the
// perf trajectory across PRs. The "dynamic" object tracks E16
// (bench_e16_dynamic_scale): one churned gossip trial (single-rumor
// marginal of Algorithm 2) on the graph-free implicit dynamic backend.
// "thread_scaling" tracks E17 (bench_e17_thread_scaling): the same
// single-trial broadcast with serial vs all-core block-sharded round
// sweeps, plus the bit-identity check between them. Schema v3 adds
// "csr_thread_scaling": the explicit-CSR counterpart (serial vs all-core
// scatter/gather delivery on a materialised G(n,p)). Schema v4 adds
// "e14b_mobility": one fixed-horizon Algorithm-1 broadcast on the
// graph-free implicit mobility-RGG backend (bench_e14_dynamic part (c);
// n = 10^7 in the full run — a topology whose explicit per-round rebuild
// could not allocate), serial vs all-core with the same bit-identity
// column. Schema v5 adds "e18_adversary": one fixed-horizon Algorithm-1
// broadcast under a full adversary (jammers + Byzantine relays + energy
// budgets + a crash/recover schedule, sim/adversary.hpp) on the implicit
// G(n,p) backend, serial vs all-core; "identical" compares the complete
// RunResult including AdversaryStats, and "stranded_fraction" seeds the
// robustness trajectory. Schema v6 adds "e19_batch": a small mixed-family
// spec set answered by the batch sweep service (harness/batch.hpp) four
// ways — serial vs all-core with early stopping, then cold-cache vs
// warm-cache replay — with byte-identity of the streamed result lines
// asserted across all of them. The smoke gate FAILS (non-zero exit) if any
// family's serial and parallel results ever diverge, or if a cached batch
// answer differs by one byte from the cold run that produced it —
// bit-identity is a correctness contract, not a statistic. Schema v7 adds
// "e20_faulttol": the crash-safety gate. A journaled sweep is forked into
// a child that is SIGKILLed mid-flight by the RADNET_FAULT grant-boundary
// hook, then resumed in-process from the journal's committed prefix; the
// gate fails unless the child really died by SIGKILL, the torn partial
// output is a byte-prefix of the uninterrupted stream, and the resumed
// stream is byte-identical to it (resume(interrupt(run)) == run).
// Schema v8 adds "e13_simd" plus benchmarks rows
// (dense_classify_sweep_*): per-sweep ns/round of the vectorised dense
// G(n,p) lane classification, timed under scalar and SIMD dispatch
// (support/simd.hpp), and a "simd"/"cpu_avx2" pair in the host block
// recording which kernels the run actually used. The smoke gate FAILS if
// the scalar and SIMD kernels ever diverge: the lane generator's bulk
// stream is byte-compared against its scalar reference, and the sweep
// benchmark fingerprints every emitted event (order included) per mode —
// SIMD is a dispatch choice, never an observable one. Schema v9 adds
// "sketch_thread_scaling": the dynamic backend's pair-sketch pass (one
// task per listener block, streams keyed per (round, block)) timed serial
// vs all-core on a workload that pass dominates, with the same
// bit-identity gate: divergence fails the run with a non-zero exit.
// Schema v10 drops the RGG distance-scan rows and "e13_simd" rgg fields
// (that AVX2 kernel is gone) and replaces the RGG bucketing row with
// "rgg_round_thread_scaling": whole mobility-gossip RGG trials (motion,
// bucketing, sweep and merge), serial vs all-core, same identity gate.
// The sketch and RGG rows run at n >= 2^18 even in --quick mode: below
// four listener blocks their sweeps have nothing to share.
//
// Flags: --quick shrinks sizes/repetitions for smoke runs; --out overrides
// the output path (default BENCH_engine.json in the working directory).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "harness/batch.hpp"
#include "sim/engine.hpp"
#include "support/cli_args.hpp"
#include "support/io.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace {

using radnet::Rng;
using radnet::Sample;
using radnet::core::BroadcastRandomParams;
using radnet::core::BroadcastRandomProtocol;
using radnet::graph::Digraph;
using radnet::graph::NodeId;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everybody transmits with fixed probability; never completes. The same
/// pure-throughput load bench_e13_engine_micro uses.
class LoadProtocol final : public radnet::sim::Protocol {
 public:
  explicit LoadProtocol(double q) : q_(q) {}

  void reset(NodeId n, Rng rng) override {
    rng_ = rng;
    all_.resize(n);
    for (NodeId v = 0; v < n; ++v) all_[v] = v;
  }
  [[nodiscard]] std::span<const NodeId> candidates() const override {
    return {all_.data(), all_.size()};
  }
  [[nodiscard]] bool wants_transmit(NodeId, radnet::sim::Round) override {
    return rng_.bernoulli(q_);
  }
  void on_delivered(NodeId, NodeId, radnet::sim::Round) override {}
  [[nodiscard]] bool is_complete() const override { return false; }
  [[nodiscard]] std::string name() const override { return "load"; }

 private:
  double q_;
  Rng rng_;
  std::vector<NodeId> all_;
};

struct Entry {
  std::string name;
  std::uint32_t n = 0;
  double ns_per_round = 0.0;
  double wall_ms = 0.0;       ///< total wall time spent producing the entry
  unsigned threads = 1;       ///< RunOptions::threads the entry ran with
  std::uint64_t peak_rss_kb = 0;  ///< process high-water RSS at entry end
};

constexpr radnet::sim::Round kRounds = 64;

/// Process peak RSS in KiB (ru_maxrss is KiB on Linux); monotone over the
/// process lifetime, so each entry records the high-water mark so far.
std::uint64_t peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

double median_ns_per_round(std::uint32_t reps,
                           const std::function<void()>& run_rounds) {
  Sample ns;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_ns();
    run_rounds();
    ns.add((now_ns() - t0) / kRounds);
  }
  return ns.median();
}

Entry finish_entry(Entry entry, double t0_ns) {
  entry.wall_ms = (now_ns() - t0_ns) / 1e6;
  entry.peak_rss_kb = peak_rss_kb();
  return entry;
}

Entry time_csr_engine(std::uint32_t n, std::uint32_t reps) {
  const double t0 = now_ns();
  Rng grng(n);
  const Digraph g =
      radnet::graph::gnp_directed(n, 8.0 * std::log(n) / n, grng);
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = kRounds;
  const double ns = median_ns_per_round(reps, [&] {
    LoadProtocol proto(0.1);
    (void)engine.run(g, proto, Rng(1), options);
  });
  return finish_entry({"csr_engine_rounds", n, ns, 0.0, options.threads, 0},
                      t0);
}

Entry time_implicit_engine(std::uint32_t n, std::uint32_t reps) {
  const double t0 = now_ns();
  const double p = 8.0 * std::log(n) / n;
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = kRounds;
  const double ns = median_ns_per_round(reps, [&] {
    const radnet::sim::ImplicitGnp gnp{n, p, Rng(n)};
    LoadProtocol proto(0.1);
    (void)engine.run(gnp, proto, Rng(1), options);
  });
  return finish_entry(
      {"implicit_engine_rounds", n, ns, 0.0, options.threads, 0}, t0);
}

struct ThreadScaling {
  std::uint32_t n = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;
  unsigned pool_threads = 0;
  bool identical = false;
};

/// E17's core claim in one tracked number: the same single-trial broadcast
/// with serial vs all-core round sweeps, bit-identity asserted.
ThreadScaling time_thread_scaling(std::uint32_t n) {
  ThreadScaling s;
  s.n = n;
  s.pool_threads = radnet::global_pool().size();
  // The d = 8 ln n regime of E17: completes reliably at finite n, so the
  // tracked number is a full broadcast rather than a censored budget run.
  const double p = 8.0 * std::log(n) / n;
  BroadcastRandomProtocol probe(BroadcastRandomParams{.p = p});
  probe.reset(n, Rng(0));
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = probe.round_budget();
  const auto run_with = [&](unsigned threads, double* ms) {
    options.threads = threads;
    const radnet::sim::ImplicitGnp gnp{n, p, Rng(17)};
    BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
    const double t0 = now_ns();
    const auto run = engine.run(gnp, proto, Rng(18), options);
    *ms = (now_ns() - t0) / 1e6;
    return run;
  };
  const auto serial = run_with(1, &s.serial_ms);
  const auto parallel = run_with(0, &s.parallel_ms);
  s.speedup = s.serial_ms / s.parallel_ms;
  s.identical = serial == parallel;
  return s;
}

/// The explicit-CSR counterpart of time_thread_scaling: the same broadcast
/// trial on a materialised G(n,p), serial vs all-core scatter/gather
/// delivery, bit-identity asserted. No RNG is involved in CSR delivery, so
/// a divergence here means a sharding bug, never a reordering.
ThreadScaling time_csr_thread_scaling(std::uint32_t n) {
  ThreadScaling s;
  s.n = n;
  s.pool_threads = radnet::global_pool().size();
  const double p = 32.0 / n;  // d = 32: heavy rounds, modest graph memory
  Rng grng(23);
  const Digraph g = radnet::graph::gnp_directed(n, p, grng);
  BroadcastRandomProtocol probe(BroadcastRandomParams{.p = p});
  probe.reset(n, Rng(0));
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = probe.round_budget();
  const auto run_with = [&](unsigned threads, double* ms) {
    options.threads = threads;
    BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
    const double t0 = now_ns();
    const auto run = engine.run(g, proto, Rng(24), options);
    *ms = (now_ns() - t0) / 1e6;
    return run;
  };
  const auto serial = run_with(1, &s.serial_ms);
  const auto parallel = run_with(0, &s.parallel_ms);
  s.speedup = s.serial_ms / s.parallel_ms;
  s.identical = serial == parallel;
  return s;
}

/// The sharded sketch pass's tracked number: one churned-dynamic gossip
/// trial (churn = 0.5 routes every delivery through the pair sketch, so
/// the per-listener-block sketch pass dominates), serial vs all-core,
/// bit-identity asserted. Block streams are keyed per (round, block), so a
/// divergence means a keying or merge-order bug.
ThreadScaling time_sketch_thread_scaling(std::uint32_t n) {
  ThreadScaling s;
  s.n = n;
  s.pool_threads = radnet::global_pool().size();
  const double p = 16.0 / n;
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = 64;
  const auto run_with = [&](unsigned threads, double* ms) {
    options.threads = threads;
    radnet::sim::ImplicitDynamicGnp spec;
    spec.n = n;
    spec.p = p;
    spec.churn = 0.5;
    spec.rng = Rng(51);
    radnet::core::GossipRumorMarginalProtocol proto(
        radnet::core::GossipRumorMarginalParams{.p = p});
    const double t0 = now_ns();
    const auto run = engine.run(spec, proto, Rng(52), options);
    *ms = (now_ns() - t0) / 1e6;
    return run;
  };
  const auto serial = run_with(1, &s.serial_ms);
  const auto parallel = run_with(0, &s.parallel_ms);
  s.speedup = s.serial_ms / s.parallel_ms;
  s.identical = serial == parallel;
  return s;
}

/// The implicit RGG round's tracked number: one mobility gossip trial (the
/// repeated-transmitter regime keeps k large, so every round runs motion,
/// the cell-ordered bucketing and the row-range sweep over all listener
/// blocks), serial vs all-core, bit-identity asserted. Only the motion
/// draws randomness, counter-keyed per (round, block), so a divergence
/// means a sharding or layout bug.
ThreadScaling time_rgg_round_thread_scaling(std::uint32_t n) {
  ThreadScaling s;
  s.n = n;
  s.pool_threads = radnet::global_pool().size();
  const double radius =
      std::sqrt(16.0 / (3.14159265358979 * static_cast<double>(n)));
  const double p = 3.14159265358979 * radius * radius;
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = 64;
  const auto run_with = [&](unsigned threads, double* ms) {
    options.threads = threads;
    radnet::core::GossipRumorMarginalProtocol proto(
        radnet::core::GossipRumorMarginalParams{.p = p});
    const double t0 = now_ns();
    const auto run = engine.run(
        radnet::sim::ImplicitRgg{n, radius, radius / 8.0, Rng(53)}, proto,
        Rng(54), options);
    *ms = (now_ns() - t0) / 1e6;
    return run;
  };
  const auto serial = run_with(1, &s.serial_ms);
  const auto parallel = run_with(0, &s.parallel_ms);
  s.speedup = s.serial_ms / s.parallel_ms;
  s.identical = serial == parallel;
  return s;
}

struct MobilityNumbers {
  std::uint32_t n = 0;
  double degree = 0.0;
  radnet::sim::Round horizon = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;
  unsigned pool_threads = 0;
  bool identical = false;
};

/// E14b's mobility trial in one tracked number: a fixed-horizon
/// Algorithm-1 broadcast on the graph-free implicit mobility-RGG backend
/// (mean degree `degree`, step = radius/8), serial vs all-core, with the
/// bit-identity check between them. Motion draws are counter-keyed per
/// (round, block) and the cell-grid delivery sweep draws no RNG, so a
/// divergence here is a sharding bug, never a reordering.
MobilityNumbers time_rgg_mobility(std::uint32_t n, radnet::sim::Round horizon) {
  MobilityNumbers m;
  m.n = n;
  m.degree = 50.0;
  m.horizon = horizon;
  m.pool_threads = radnet::global_pool().size();
  const double radius = std::sqrt(m.degree / (3.141592653589793 * n));
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = horizon;
  const auto run_with = [&](unsigned threads, double* ms) {
    options.threads = threads;
    BroadcastRandomProtocol proto(BroadcastRandomParams{.p = m.degree / n});
    const double t0 = now_ns();
    const auto run = engine.run(
        radnet::sim::ImplicitRgg{n, radius, radius / 8.0, Rng(41)}, proto,
        Rng(42), options);
    *ms = (now_ns() - t0) / 1e6;
    return run;
  };
  const auto serial = run_with(1, &m.serial_ms);
  const auto parallel = run_with(0, &m.parallel_ms);
  m.speedup = m.serial_ms / m.parallel_ms;
  m.identical = serial == parallel;
  return m;
}

struct AdversaryNumbers {
  std::uint32_t n = 0;
  double jammer_fraction = 0.01;
  double byzantine_fraction = 0.02;
  double budget_mean = 4.0;
  radnet::sim::Round horizon = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;
  unsigned pool_threads = 0;
  bool identical = false;
  double stranded_fraction = 0.0;
};

/// E18's tracked number: one fixed-horizon Algorithm-1 broadcast under the
/// full adversary stack (jammers, Byzantine relays, listen-only energy
/// budgets, a crash/recover schedule) on the implicit G(n,p) backend,
/// serial vs all-core. The identity check covers the whole RunResult —
/// completion, ledger, trace AND AdversaryStats — so a divergence means
/// the adversary broke the engine's determinism contract. The stranded
/// fraction (honest nodes left without a valid copy at the horizon) is the
/// robustness trajectory's headline.
AdversaryNumbers time_adversary(std::uint32_t n, radnet::sim::Round horizon) {
  AdversaryNumbers a;
  a.n = n;
  a.horizon = horizon;
  a.pool_threads = radnet::global_pool().size();
  const double p = 8.0 * std::log(n) / n;
  radnet::sim::AdversarySpec adv;
  adv.jammer_fraction = a.jammer_fraction;
  adv.byzantine_fraction = a.byzantine_fraction;
  adv.budget_mean = a.budget_mean;
  adv.budget_spread = 0.25;
  adv.fault_schedule = {
      {8, radnet::sim::FaultEvent::Kind::kCrash, 0.10},
      {16, radnet::sim::FaultEvent::Kind::kRecover, 1.0}};
  adv.protected_nodes = {0};
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = horizon;
  options.adversary = adv;
  const auto run_with = [&](unsigned threads, double* ms) {
    options.threads = threads;
    const radnet::sim::ImplicitGnp gnp{n, p, Rng(51)};
    BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
    const double t0 = now_ns();
    auto run = engine.run(gnp, proto, Rng(52), options);
    *ms = (now_ns() - t0) / 1e6;
    a.stranded_fraction =
        static_cast<double>(proto.stranded_count().value_or(0)) / n;
    return run;
  };
  const auto serial = run_with(1, &a.serial_ms);
  const auto parallel = run_with(0, &a.parallel_ms);
  a.speedup = a.serial_ms / a.parallel_ms;
  a.identical = serial == parallel;
  return a;
}

struct BatchNumbers {
  std::uint64_t specs = 0;
  std::uint64_t trials_run = 0;    ///< trials the serial early-stop run paid
  std::uint64_t trials_saved = 0;  ///< budget minus granted, summed
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double warm_ms = 0.0;            ///< cache replay of the whole set
  bool threads_identical = false;  ///< serial vs all-core byte streams
  bool cached_identical = false;   ///< cold vs warm-cache byte streams
};

/// E19's tracked numbers: a small mixed-family spec set answered by the
/// batch sweep service with CI-based early stopping, serial vs all-core,
/// then cold-cache vs warm-cache replay. Both identity columns compare the
/// complete streamed byte output — the batch layer's determinism contract
/// is that grant scheduling, thread count and cache replay are invisible
/// in the result bytes (see tests/harness/batch_test.cpp for the
/// per-property pins; this is the in-CI end-to-end gate).
BatchNumbers time_batch(bool quick) {
  namespace rh = radnet::harness;
  std::vector<rh::BatchSpec> specs;
  const rh::BatchFamily families[] = {
      rh::BatchFamily::kCsr, rh::BatchFamily::kImplicitGnp,
      rh::BatchFamily::kImplicitDynamic, rh::BatchFamily::kImplicitRgg};
  for (const auto family : families)
    for (const char* protocol : {"alg1", "flooding"})
      for (const std::uint32_t n : {256u, 512u}) {
        rh::BatchSpec spec;
        spec.protocol = protocol;
        spec.family = family;
        spec.n = n;
        spec.trials = quick ? 48 : 96;
        // A fixed horizon keeps censored trials cheap, and tol 0.1
        // converges at a proper prefix of the budget, so the tracked
        // numbers exercise early stopping rather than just exhaustion.
        spec.max_rounds = 256;
        spec.tol = 0.1;
        if (family == rh::BatchFamily::kImplicitDynamic) spec.churn = 0.5;
        spec.validate();
        specs.push_back(spec);
      }

  BatchNumbers b;
  b.specs = specs.size();
  const auto run_with = [&](const rh::BatchOptions& options, double* ms,
                            rh::BatchStats* stats_out) {
    std::ostringstream out;
    rh::BatchStats stats;
    const double t0 = now_ns();
    (void)rh::run_batch(specs, options, out, &stats);
    *ms = (now_ns() - t0) / 1e6;
    if (stats_out != nullptr) *stats_out = stats;
    return out.str();
  };

  rh::BatchOptions serial;
  serial.threads = 1;
  rh::BatchStats serial_stats;
  const std::string serial_stream =
      run_with(serial, &b.serial_ms, &serial_stats);
  b.trials_run = serial_stats.trials_run;
  b.trials_saved = serial_stats.trials_saved;

  rh::BatchOptions parallel;  // threads = 0: harness default schedule
  const std::string parallel_stream =
      run_with(parallel, &b.parallel_ms, nullptr);
  b.threads_identical = parallel_stream == serial_stream;

  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() / "radnet_bench_runner_e19";
  std::filesystem::remove_all(cache_dir);
  rh::BatchOptions cached = parallel;
  cached.cache_dir = cache_dir.string();
  double cold_ms = 0.0;
  const std::string cold_stream = run_with(cached, &cold_ms, nullptr);
  const std::string warm_stream = run_with(cached, &b.warm_ms, nullptr);
  std::filesystem::remove_all(cache_dir);
  b.cached_identical =
      cold_stream == serial_stream && warm_stream == cold_stream;
  return b;
}

struct FaultTolNumbers {
  std::uint64_t specs = 0;
  bool kill_confirmed = false;    ///< the child really died by SIGKILL
  bool partial_prefix = false;    ///< torn output is a prefix of the stream
  bool resumed_identical = false; ///< resume(interrupt(run)) == run, bytes
  std::uint64_t journal_trials = 0;   ///< trial records replayed on resume
  std::uint64_t journal_results = 0;  ///< result records replayed on resume
  double baseline_ms = 0.0;
  double resume_ms = 0.0;
};

/// E20's tracked numbers and the crash-safety gate: run a small journaled
/// sweep to completion for the reference bytes, fork a child that runs the
/// same sweep under `grant@2:kill` (SIGKILL at the second grant boundary,
/// mid-sweep by construction: tol = 0 forces every spec through multiple
/// grants), then resume in-process from the journal the dead child left
/// behind. The contract under test is the tentpole invariant of the
/// fault-tolerance layer — resume(interrupt(run)) == run, byte-for-byte —
/// plus the weaker torn-output guarantee that whatever the child flushed
/// before dying is a prefix of the uninterrupted stream, never a
/// divergence. Everything runs serially: result bytes are thread-invariant
/// anyway, and the forked child must not depend on pool threads that do
/// not survive fork.
FaultTolNumbers time_faulttol() {
  namespace rh = radnet::harness;
  namespace fs = std::filesystem;
  FaultTolNumbers f;
  std::vector<rh::BatchSpec> specs;
  for (const std::uint32_t n : {96u, 128u}) {
    rh::BatchSpec spec;
    spec.protocol = "alg1";
    spec.family = rh::BatchFamily::kImplicitGnp;
    spec.n = n;
    spec.trials = 16;
    spec.max_rounds = 256;
    spec.tol = 0.0;  // exhaust the budget: several grants per spec
    spec.seed = 7;
    spec.validate();
    specs.push_back(spec);
  }
  f.specs = specs.size();

  rh::BatchOptions base;
  base.threads = 1;
  base.min_grant = 4;
  double t0 = now_ns();
  std::ostringstream expect;
  (void)rh::run_batch(specs, base, expect, nullptr);
  f.baseline_ms = (now_ns() - t0) / 1e6;

  const fs::path dir = fs::temp_directory_path() / "radnet_bench_runner_e20";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string journal = (dir / "run.journal").string();
  const std::string partial = (dir / "partial.jsonl").string();

  const pid_t pid = fork();
  if (pid == 0) {
    radnet::io::set_fault("grant@2:kill");
    std::ofstream out(partial, std::ios::binary | std::ios::trunc);
    rh::BatchOptions opts = base;
    opts.journal_path = journal;
    try {
      (void)rh::run_batch(specs, opts, out, nullptr);
    } catch (...) {
      _exit(3);
    }
    _exit(0);  // fault never fired — the parent reports the gate failure
  }
  int status = 0;
  waitpid(pid, &status, 0);
  f.kill_confirmed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;

  const std::string torn = radnet::io::read_file(partial).value_or("");
  f.partial_prefix = expect.str().compare(0, torn.size(), torn) == 0;

  rh::BatchOptions resume = base;
  resume.journal_path = journal;
  resume.resume = true;
  rh::BatchStats stats;
  std::ostringstream resumed;
  t0 = now_ns();
  (void)rh::run_batch(specs, resume, resumed, &stats);
  f.resume_ms = (now_ns() - t0) / 1e6;
  f.journal_trials = stats.journal_trials;
  f.journal_results = stats.journal_results;
  f.resumed_identical = resumed.str() == expect.str();
  fs::remove_all(dir);
  return f;
}

/// Order-sensitive FNV-style fingerprint of a delivery stream: two runs
/// produce the same fingerprint iff they emit the same events in the same
/// order — the observable the SIMD dispatch must never change.
struct FingerprintSink {
  std::uint64_t hash = 0x9e3779b97f4a7c15ull;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;

  void mix(std::uint64_t x) { hash = (hash ^ x) * 0x100000001b3ull; }
  void deliver(NodeId listener, NodeId sender) {
    ++deliveries;
    mix(listener | (static_cast<std::uint64_t>(sender) << 32));
  }
  void collide(NodeId listener) {
    ++collisions;
    mix(~static_cast<std::uint64_t>(listener));
  }
  void deliver_bulk(std::uint64_t count) { mix(count * 3 + 1); }
  void collide_bulk(std::uint64_t count) { mix(count * 3 + 2); }
};

struct SimdSweep {
  double scalar_ns = 0.0;  ///< median ns per sweep, scalar kernels
  double simd_ns = 0.0;    ///< median ns per sweep, SIMD kernels
  std::uint64_t scalar_fp = 0;
  std::uint64_t simd_fp = 0;
  [[nodiscard]] double speedup() const { return scalar_ns / simd_ns; }
  [[nodiscard]] bool identical() const { return scalar_fp == simd_fp; }
};

struct SimdNumbers {
  std::uint32_t dense_n = 0;
  SimdSweep dense;
  bool lanes_identical = false;  ///< bulk lane stream == scalar reference
};

/// Per-sweep cost of the dense G(n,p) lane classification: k*p ~ 0.8 ln n
/// puts every block on the vectorised plain path (q well above 0.5).
SimdSweep time_dense_classify(std::uint32_t n, std::uint32_t reps) {
  SimdSweep s;
  const double p = 8.0 * std::log(n) / n;
  std::vector<NodeId> tx;
  std::vector<char> is_tx(n, 0);
  for (NodeId v = 0; v < n / 10; ++v) {
    tx.push_back(v * 7 % n);
    is_tx[tx.back()] = 1;
  }
  const auto run = [&](radnet::simd::Mode mode, double* ns_out,
                       std::uint64_t* fp_out) {
    radnet::simd::set_mode(mode);
    radnet::sim::ImplicitGnpTopology topo(
        radnet::sim::ImplicitGnp{n, p, Rng(91)});
    FingerprintSink sink;
    Sample ns;
    radnet::sim::Round round = 0;  // backends require non-decreasing rounds
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const double t0 = now_ns();
      for (radnet::sim::Round r = 0; r < kRounds; ++r) {
        topo.begin_round(round++);
        topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/false,
                     radnet::sim::DeliveryPath::kAuto, std::nullopt,
                     /*collisions_inert=*/false, sink);
      }
      ns.add((now_ns() - t0) / kRounds);
    }
    *ns_out = ns.median();
    *fp_out = sink.hash ^ sink.deliveries ^ (sink.collisions << 1);
  };
  run(radnet::simd::Mode::kScalar, &s.scalar_ns, &s.scalar_fp);
  run(radnet::simd::Mode::kAvx2, &s.simd_ns, &s.simd_fp);
  return s;
}

/// Byte-compares the lane generator's dispatched bulk stream against its
/// portable scalar reference — the root of the whole SIMD identity
/// argument, checked directly.
bool lane_streams_identical() {
  const auto key = radnet::StreamKey::from_rng(Rng(0x51));
  radnet::LaneRng dispatched(key);
  radnet::LaneRng reference(key);
  radnet::simd::set_mode(radnet::simd::Mode::kAvx2);
  for (std::uint32_t step = 0; step < 4096; ++step) {
    std::uint64_t got[radnet::LaneRng::kLanes];
    std::uint64_t want[radnet::LaneRng::kLanes];
    dispatched.next_u64_lanes(got);
    reference.next_u64_lanes_scalar(want);
    for (unsigned l = 0; l < radnet::LaneRng::kLanes; ++l)
      if (got[l] != want[l]) return false;
  }
  return true;
}

/// E13's SIMD rows and the scalar-vs-SIMD identity gate. On hosts without
/// AVX2 set_mode degrades to scalar, so the rows coincide and the gate
/// passes trivially; cpu_avx2 in the host block records which case ran.
SimdNumbers time_simd_sweeps(bool quick) {
  SimdNumbers s;
  s.dense_n = quick ? (1u << 14) : (1u << 16);
  const std::uint32_t reps = quick ? 3 : 5;
  s.dense = time_dense_classify(s.dense_n, reps);
  s.lanes_identical = lane_streams_identical();
  return s;
}

struct Comparison {
  std::uint32_t n = 0;
  double p = 0.0;
  double csr_ms = 0.0;
  double implicit_ms = 0.0;
  double speedup = 0.0;
};

Comparison compare_broadcast(std::uint32_t n, std::uint32_t reps) {
  Comparison c;
  c.n = n;
  c.p = 16.0 / n;
  BroadcastRandomProtocol probe(BroadcastRandomParams{.p = c.p});
  probe.reset(n, Rng(0));
  radnet::sim::RunOptions options;
  options.max_rounds = probe.round_budget();
  radnet::sim::Engine engine;

  Sample csr_ms, implicit_ms;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    {
      const double t0 = now_ns();
      Rng grng(rep);
      const Digraph g = radnet::graph::gnp_directed(n, c.p, grng);
      BroadcastRandomProtocol proto(BroadcastRandomParams{.p = c.p});
      (void)engine.run(g, proto, Rng(rep + 1), options);
      csr_ms.add((now_ns() - t0) / 1e6);
    }
    {
      const double t0 = now_ns();
      const radnet::sim::ImplicitGnp gnp{n, c.p, Rng(rep)};
      BroadcastRandomProtocol proto(BroadcastRandomParams{.p = c.p});
      (void)engine.run(gnp, proto, Rng(rep + 1), options);
      implicit_ms.add((now_ns() - t0) / 1e6);
    }
  }
  c.csr_ms = csr_ms.median();
  c.implicit_ms = implicit_ms.median();
  c.speedup = c.csr_ms / c.implicit_ms;
  return c;
}

struct DynamicNumbers {
  std::uint32_t n = 0;
  double churn = 0.5;
  double trial_ms = 0.0;
  double rounds = 0.0;
};

/// One E16-style churned-gossip trial per rep on the implicit dynamic
/// backend; medians across reps.
DynamicNumbers time_dynamic_gossip(std::uint32_t n, std::uint32_t reps) {
  DynamicNumbers d;
  d.n = n;
  const double p = 16.0 / n;
  radnet::core::GossipRumorMarginalProtocol probe(
      radnet::core::GossipRumorMarginalParams{.p = p});
  probe.reset(n, Rng(0));
  radnet::sim::RunOptions options;
  options.max_rounds = probe.round_budget();
  radnet::sim::Engine engine;
  Sample ms, rounds;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_ns();
    radnet::sim::ImplicitDynamicGnp spec;
    spec.n = n;
    spec.p = p;
    spec.churn = d.churn;
    spec.rng = Rng(rep + 1);
    radnet::core::GossipRumorMarginalProtocol proto(
        radnet::core::GossipRumorMarginalParams{.p = p});
    const auto run = engine.run(spec, proto, Rng(rep + 100), options);
    ms.add((now_ns() - t0) / 1e6);
    // completion_round is only meaningful for completed runs; a failed rep
    // must not push a 0 into the tracked median.
    if (run.completed) rounds.add(static_cast<double>(run.completion_round));
  }
  d.trial_ms = ms.median();
  d.rounds = rounds.empty() ? 0.0 : rounds.median();
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  radnet::CliArgs args = [&] {
    try {
      return radnet::CliArgs(argc, argv, {"quick", "out"});
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      std::exit(2);
    }
  }();
  const bool quick = args.get_bool("quick", false);
  const std::string out_path = args.get_string("out", "BENCH_engine.json");
  // The dispatch mode the process resolved at startup (RADNET_SIMD env or
  // CPUID) — recorded in the host block; every entry below except the
  // explicit scalar-vs-SIMD rows runs under it.
  const radnet::simd::Mode host_mode = radnet::simd::active_mode();

  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{1u << 10, 1u << 12}
            : std::vector<std::uint32_t>{1u << 12, 1u << 14, 1u << 16};
  const std::uint32_t reps = quick ? 5 : 15;
  const std::uint32_t compare_n = quick ? (1u << 14) : (1u << 20);
  const std::uint32_t compare_reps = quick ? 3 : 5;

  std::vector<Entry> entries;
  for (const std::uint32_t n : sizes) {
    entries.push_back(time_csr_engine(n, reps));
    entries.push_back(time_implicit_engine(n, reps));
    std::cout << entries[entries.size() - 2].name << " n=" << n << ": "
              << entries[entries.size() - 2].ns_per_round << " ns/round\n"
              << entries.back().name << " n=" << n << ": "
              << entries.back().ns_per_round << " ns/round\n";
  }

  const Comparison cmp = compare_broadcast(compare_n, compare_reps);
  std::cout << "broadcast end-to-end n=" << cmp.n << ": csr " << cmp.csr_ms
            << " ms, implicit " << cmp.implicit_ms << " ms, speedup "
            << cmp.speedup << "x\n";

  const DynamicNumbers dyn =
      time_dynamic_gossip(quick ? (1u << 14) : (1u << 17), compare_reps);
  std::cout << "churned gossip (E16) n=" << dyn.n << " churn=" << dyn.churn
            << ": " << dyn.trial_ms << " ms/trial, " << dyn.rounds
            << " rounds\n";

  const ThreadScaling ts =
      time_thread_scaling(quick ? (1u << 18) : (1u << 22));
  std::cout << "thread scaling (E17) n=" << ts.n << ": serial "
            << ts.serial_ms << " ms, " << ts.pool_threads << "-thread "
            << ts.parallel_ms << " ms, speedup " << ts.speedup << "x, "
            << (ts.identical ? "bit-identical" : "DIVERGED") << "\n";
  if (!ts.identical) {
    std::cerr << "thread-scaling runs diverged — determinism bug\n";
    return 1;
  }

  const ThreadScaling cts =
      time_csr_thread_scaling(quick ? (1u << 15) : (1u << 19));
  std::cout << "CSR thread scaling n=" << cts.n << ": serial "
            << cts.serial_ms << " ms, " << cts.pool_threads << "-thread "
            << cts.parallel_ms << " ms, speedup " << cts.speedup << "x, "
            << (cts.identical ? "bit-identical" : "DIVERGED") << "\n";
  if (!cts.identical) {
    std::cerr << "CSR serial-vs-parallel runs diverged — sharding bug\n";
    return 1;
  }

  const ThreadScaling sts =
      time_sketch_thread_scaling(quick ? (1u << 18) : (1u << 20));
  std::cout << "sketch-phase thread scaling n=" << sts.n << ": serial "
            << sts.serial_ms << " ms, " << sts.pool_threads << "-thread "
            << sts.parallel_ms << " ms, speedup " << sts.speedup << "x, "
            << (sts.identical ? "bit-identical" : "DIVERGED") << "\n";
  if (!sts.identical) {
    std::cerr << "sketch-phase serial-vs-parallel runs diverged — block "
                 "keying or merge-order bug\n";
    return 1;
  }

  const ThreadScaling rts =
      time_rgg_round_thread_scaling(quick ? (1u << 18) : (1u << 20));
  std::cout << "RGG round thread scaling n=" << rts.n << ": serial "
            << rts.serial_ms << " ms, " << rts.pool_threads << "-thread "
            << rts.parallel_ms << " ms, speedup " << rts.speedup << "x, "
            << (rts.identical ? "bit-identical" : "DIVERGED") << "\n";
  if (!rts.identical) {
    std::cerr << "RGG round serial-vs-parallel runs diverged — "
                 "sharding or cell-layout bug\n";
    return 1;
  }

  const MobilityNumbers mob =
      time_rgg_mobility(quick ? (1u << 18) : 10'000'000u, quick ? 32u : 64u);
  std::cout << "mobility RGG (E14b) n=" << mob.n << " horizon=" << mob.horizon
            << ": serial " << mob.serial_ms << " ms, " << mob.pool_threads
            << "-thread " << mob.parallel_ms << " ms, speedup " << mob.speedup
            << "x, " << (mob.identical ? "bit-identical" : "DIVERGED") << "\n";
  if (!mob.identical) {
    std::cerr << "mobility-RGG serial-vs-parallel runs diverged — "
                 "sharding bug\n";
    return 1;
  }

  const AdversaryNumbers e18 =
      time_adversary(quick ? (1u << 15) : (1u << 20), quick ? 32u : 64u);
  std::cout << "adversarial broadcast (E18) n=" << e18.n << " jam="
            << e18.jammer_fraction << " byz=" << e18.byzantine_fraction
            << ": serial " << e18.serial_ms << " ms, " << e18.pool_threads
            << "-thread " << e18.parallel_ms << " ms, speedup " << e18.speedup
            << "x, stranded " << e18.stranded_fraction << ", "
            << (e18.identical ? "bit-identical" : "DIVERGED") << "\n";
  if (!e18.identical) {
    std::cerr << "adversarial serial-vs-parallel runs diverged — the "
                 "adversary broke engine determinism\n";
    return 1;
  }

  const BatchNumbers e19 = time_batch(quick);
  std::cout << "batch sweep service (E19) " << e19.specs << " specs: "
            << e19.trials_run << " trials run, " << e19.trials_saved
            << " saved by early stopping; serial " << e19.serial_ms
            << " ms, parallel " << e19.parallel_ms << " ms, warm replay "
            << e19.warm_ms << " ms, "
            << (e19.threads_identical && e19.cached_identical
                    ? "bit-identical"
                    : "DIVERGED")
            << "\n";
  if (!e19.threads_identical) {
    std::cerr << "batch serial-vs-parallel streams diverged — the grant "
                 "schedule leaked thread count into the results\n";
    return 1;
  }
  if (!e19.cached_identical) {
    std::cerr << "batch cached result diverged from the cold run for the "
                 "same spec hash — cache replay broke byte-identity\n";
    return 1;
  }

  const FaultTolNumbers e20 = time_faulttol();
  std::cout << "crash-safe sweep (E20) " << e20.specs << " specs: child "
            << (e20.kill_confirmed ? "SIGKILLed mid-flight" : "NOT KILLED")
            << ", " << e20.journal_trials << " trials + "
            << e20.journal_results
            << " results replayed from the journal; baseline "
            << e20.baseline_ms << " ms, resume " << e20.resume_ms << " ms, "
            << (e20.partial_prefix && e20.resumed_identical ? "byte-identical"
                                                            : "DIVERGED")
            << "\n";
  if (!e20.kill_confirmed) {
    std::cerr << "fault-tolerance gate: the injected SIGKILL never fired — "
                 "the grant-boundary fault hook is dead\n";
    return 1;
  }
  if (!e20.partial_prefix) {
    std::cerr << "fault-tolerance gate: the torn partial output is not a "
                 "byte-prefix of the uninterrupted stream\n";
    return 1;
  }
  if (!e20.resumed_identical) {
    std::cerr << "fault-tolerance gate: the resumed stream differs from the "
                 "uninterrupted run — resume(interrupt(run)) != run\n";
    return 1;
  }

  const SimdNumbers e13 = time_simd_sweeps(quick);
  radnet::simd::set_mode(host_mode);
  std::cout << "SIMD sweeps (E13) dense n=" << e13.dense_n << ": scalar "
            << e13.dense.scalar_ns << " ns/sweep, simd " << e13.dense.simd_ns
            << " ns/sweep, speedup " << e13.dense.speedup() << "x, "
            << (e13.dense.identical() && e13.lanes_identical
                    ? "bit-identical"
                    : "DIVERGED")
            << "\n";
  if (!e13.lanes_identical) {
    std::cerr << "SIMD gate: the dispatched lane-RNG stream diverged from "
                 "its scalar reference\n";
    return 1;
  }
  if (!e13.dense.identical()) {
    std::cerr << "SIMD gate: dense classification events diverged between "
                 "scalar and SIMD dispatch\n";
    return 1;
  }
  entries.push_back(
      {"dense_classify_sweep_scalar", e13.dense_n, e13.dense.scalar_ns, 0.0,
       1, peak_rss_kb()});
  entries.push_back({"dense_classify_sweep_simd", e13.dense_n,
                     e13.dense.simd_ns, 0.0, 1, peak_rss_kb()});

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  out << "{\n  \"schema\": \"radnet-bench-engine-v10\",\n  \"host\": {"
      << "\"hardware_concurrency\": "
      << std::max(1u, std::thread::hardware_concurrency())
      << ", \"pool_threads\": " << radnet::global_pool().size()
      << ", \"simd\": \"" << radnet::simd::mode_name(host_mode)
      << "\", \"cpu_avx2\": "
      << (radnet::simd::cpu_has_avx2() ? "true" : "false") << "},\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << "    {\"name\": \"" << entries[i].name << "\", \"n\": "
        << entries[i].n << ", \"ns_per_round\": " << entries[i].ns_per_round
        << ", \"wall_ms\": " << entries[i].wall_ms
        << ", \"threads\": " << entries[i].threads
        << ", \"peak_rss_kb\": " << entries[i].peak_rss_kb
        << (i + 1 < entries.size() ? "},\n" : "}\n");
  }
  out << "  ],\n  \"comparison\": {\"n\": " << cmp.n << ", \"p\": " << cmp.p
      << ", \"csr_ms\": " << cmp.csr_ms
      << ", \"implicit_ms\": " << cmp.implicit_ms
      << ", \"speedup\": " << cmp.speedup
      << ", \"peak_rss_kb\": " << peak_rss_kb() << "},\n"
      << "  \"dynamic\": {\"n\": " << dyn.n << ", \"churn\": " << dyn.churn
      << ", \"trial_ms\": " << dyn.trial_ms
      << ", \"rounds\": " << dyn.rounds << "},\n"
      << "  \"thread_scaling\": {\"n\": " << ts.n
      << ", \"serial_ms\": " << ts.serial_ms
      << ", \"parallel_ms\": " << ts.parallel_ms
      << ", \"speedup\": " << ts.speedup
      << ", \"pool_threads\": " << ts.pool_threads << ", \"identical\": "
      << (ts.identical ? "true" : "false") << "},\n"
      << "  \"csr_thread_scaling\": {\"n\": " << cts.n
      << ", \"serial_ms\": " << cts.serial_ms
      << ", \"parallel_ms\": " << cts.parallel_ms
      << ", \"speedup\": " << cts.speedup
      << ", \"pool_threads\": " << cts.pool_threads << ", \"identical\": "
      << (cts.identical ? "true" : "false") << "},\n"
      << "  \"sketch_thread_scaling\": {\"n\": " << sts.n
      << ", \"serial_ms\": " << sts.serial_ms
      << ", \"parallel_ms\": " << sts.parallel_ms
      << ", \"speedup\": " << sts.speedup
      << ", \"pool_threads\": " << sts.pool_threads << ", \"identical\": "
      << (sts.identical ? "true" : "false") << "},\n"
      << "  \"rgg_round_thread_scaling\": {\"n\": " << rts.n
      << ", \"serial_ms\": " << rts.serial_ms
      << ", \"parallel_ms\": " << rts.parallel_ms
      << ", \"speedup\": " << rts.speedup
      << ", \"pool_threads\": " << rts.pool_threads << ", \"identical\": "
      << (rts.identical ? "true" : "false") << "},\n"
      << "  \"e14b_mobility\": {\"n\": " << mob.n
      << ", \"degree\": " << mob.degree << ", \"horizon\": " << mob.horizon
      << ", \"serial_ms\": " << mob.serial_ms
      << ", \"parallel_ms\": " << mob.parallel_ms
      << ", \"speedup\": " << mob.speedup
      << ", \"pool_threads\": " << mob.pool_threads << ", \"identical\": "
      << (mob.identical ? "true" : "false")
      << ", \"peak_rss_kb\": " << peak_rss_kb() << "},\n"
      << "  \"e18_adversary\": {\"n\": " << e18.n
      << ", \"jammer_fraction\": " << e18.jammer_fraction
      << ", \"byzantine_fraction\": " << e18.byzantine_fraction
      << ", \"budget_mean\": " << e18.budget_mean
      << ", \"horizon\": " << e18.horizon
      << ", \"serial_ms\": " << e18.serial_ms
      << ", \"parallel_ms\": " << e18.parallel_ms
      << ", \"speedup\": " << e18.speedup
      << ", \"pool_threads\": " << e18.pool_threads << ", \"identical\": "
      << (e18.identical ? "true" : "false")
      << ", \"stranded_fraction\": " << e18.stranded_fraction << "},\n"
      << "  \"e19_batch\": {\"specs\": " << e19.specs
      << ", \"trials_run\": " << e19.trials_run
      << ", \"trials_saved\": " << e19.trials_saved
      << ", \"serial_ms\": " << e19.serial_ms
      << ", \"parallel_ms\": " << e19.parallel_ms
      << ", \"warm_ms\": " << e19.warm_ms << ", \"threads_identical\": "
      << (e19.threads_identical ? "true" : "false")
      << ", \"cached_identical\": "
      << (e19.cached_identical ? "true" : "false") << "},\n"
      << "  \"e20_faulttol\": {\"specs\": " << e20.specs
      << ", \"kill_confirmed\": " << (e20.kill_confirmed ? "true" : "false")
      << ", \"partial_prefix\": " << (e20.partial_prefix ? "true" : "false")
      << ", \"resumed_identical\": "
      << (e20.resumed_identical ? "true" : "false")
      << ", \"journal_trials\": " << e20.journal_trials
      << ", \"journal_results\": " << e20.journal_results
      << ", \"baseline_ms\": " << e20.baseline_ms
      << ", \"resume_ms\": " << e20.resume_ms << "},\n"
      << "  \"e13_simd\": {\"dense_n\": " << e13.dense_n
      << ", \"dense_scalar_ns\": " << e13.dense.scalar_ns
      << ", \"dense_simd_ns\": " << e13.dense.simd_ns
      << ", \"dense_speedup\": " << e13.dense.speedup()
      << ", \"identical\": "
      << (e13.dense.identical() && e13.lanes_identical ? "true" : "false")
      << "}\n}\n";
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
