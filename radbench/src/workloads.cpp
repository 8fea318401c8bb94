#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness/batch.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"

namespace radbench {
namespace {

using harness::BatchSpec;
using harness::McSpec;
using radnet::global_pool;
using radnet::Sample;
using radnet::ThreadPool;

constexpr std::array<std::string_view, 4> kWorkloads = {
    "alg1_gnp", "gossip_churn", "gossip_rgg", "batch_sweep"};

/// Threads that work in a parallel phase: the pool's workers plus the
/// calling thread, which runs chunks too.
unsigned working_threads() { return global_pool().size() + 1; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// The spec seed of line `index` of a workload: a function of the
/// workload seed alone.
std::uint64_t spec_seed(std::uint64_t seed, std::uint64_t index) {
  return Rng(seed).split(index).next_u64();
}

bool is_core_protocol(const std::string& protocol) {
  return protocol == "alg1" || protocol == "alg2m";
}

// ------------------------------------------------------------- set-up ---

/// What a user of a workload pays before its first trial: generate the spec
/// text, parse it and lower every spec to a harness spec (setup_s). Set-up
/// takes microseconds, so it is sampled in bursts spread over the whole run
/// (before the first trial and after every trial or sweep) and reported as
/// the median of all samples. Starting and stopping a pool like the run's
/// is timed too but only printed (setup.pool_s): it waits for idle vCPUs
/// to wake, and on a shared host its median moved by up to 2.8x between
/// sets of runs, which no bound can hold.
class SetupProbe {
 public:
  explicit SetupProbe(const RunConfig& config) : config_(config) {}

  /// Sets up kSetupBurst times; returns the parsed specs.
  std::vector<BatchSpec> burst() {
    const unsigned workers = pool_workers(config_.workload);
    std::vector<BatchSpec> specs;
    for (int rep = 0; rep < kSetupBurst; ++rep) {
      const double t0 = now_s();
      {
        ThreadPool pool(workers);
        pool.parallel_for_index(workers + 1, [](std::uint64_t) {});
      }
      const double t1 = now_s();
      std::istringstream in(workload_specs(config_.workload, config_.seed));
      const double p0 = now_s();
      specs = harness::parse_batch_file(in);
      const double p1 = now_s();
      for (const BatchSpec& spec : specs) (void)spec.to_mc_spec();
      const double t2 = now_s();
      pool_.add(t1 - t0);
      setup_.add(t2 - t1);
      parse_.add(p1 - p0);
    }
    return specs;
  }

  void report(Report& report) const {
    report.set("setup_s", setup_.median());
    report.set("harness.parse_s", parse_.median());
    report.info("setup.pool_s", "s", pool_.median());
  }

 private:
  static constexpr int kSetupBurst = 15;
  const RunConfig& config_;
  Sample pool_;
  Sample setup_;
  Sample parse_;
};

// ---------------------------------------------------- traced trial sets ---

struct LayerTotals {
  SelfTimes self;
  double trial_span_s = 0.0;  ///< summed trial span durations
  double busy_by_family[4] = {};
  std::uint64_t trials = 0;
  std::uint64_t tx[2] = {};         ///< [core, baselines]
  std::uint64_t callbacks[2] = {};  ///< [core, baselines]
  double select_s[2] = {};
  double commit_s[2] = {};
  double reset_s[2] = {};
  std::uint64_t graph_edges = 0;
};

int family_index(const std::string& family) {
  if (family == "csr") return 0;
  if (family == "ignp") return 1;
  if (family == "idgnp") return 2;
  return 3;  // irgg
}

LayerTotals fold(const std::vector<TrialTrace>& trials) {
  LayerTotals t;
  for (const TrialTrace& trial : trials) {
    SelfTimes one;
    one.add(trial);
    for (int k = 0; k < kSpanKinds; ++k) t.self.by_kind[k] += one.by_kind[k];
    const double span = trial.spans[0].end - trial.spans[0].start;
    t.trial_span_s += span;
    t.busy_by_family[family_index(trial.family)] += span;
    const int layer = trial.layer == "core" ? 0 : 1;
    for (const std::uint32_t k : trial.tx_per_round) t.tx[layer] += k;
    t.callbacks[layer] += trial.callbacks;
    t.select_s[layer] += one[SpanKind::kSelect];
    t.commit_s[layer] += one[SpanKind::kCommit];
    t.reset_s[layer] += one[SpanKind::kReset];
    t.graph_edges += trial.graph_edges;
    ++t.trials;
  }
  return t;
}

/// Per-layer metrics of a set of traced trials, each divided by `per`
/// (the number of trials for the single-trial workloads, 1 for a sweep).
void report_layers(const LayerTotals& t, double per, Report& report) {
  report.set("sim.deliver_s", t.self[SpanKind::kDeliver] / per);
  report.set("sim.outside_s", t.self[SpanKind::kTrial] / per);
  report.set("graph.build_s", t.self[SpanKind::kGraphBuild] / per);
  report.set("graph.edges", static_cast<double>(t.graph_edges) / per);
  const char* layers[2] = {"core", "baselines"};
  for (int l = 0; l < 2; ++l) {
    const std::string p = layers[l];
    report.set(p + ".select_s", t.select_s[l] / per);
    report.set(p + ".commit_s", t.commit_s[l] / per);
    report.set(p + ".reset_s", t.reset_s[l] / per);
    report.set(p + ".tx", static_cast<double>(t.tx[l]) / per);
    report.set(p + ".callbacks", static_cast<double>(t.callbacks[l]) / per);
  }
  const char* families[4] = {"csr", "ignp", "idgnp", "irgg"};
  for (int f = 0; f < 4; ++f)
    report.set(std::string("harness.busy_s.") + families[f],
               t.busy_by_family[f] / per);
  report.set("trace.trial_s", t.trial_span_s / per);
}

/// The layers tile every trial: reset + select + deliver + commit + graph
/// build + outside (+ round self time, which is zero by construction) is
/// the trial span. A gap means spans overlap or escaped their parent.
void check_accounting(const LayerTotals& t, Report& report) {
  double sum = 0.0;
  for (const double v : t.self.by_kind) sum += v;
  if (std::abs(sum - t.trial_span_s) > 1e-6 * std::max(1.0, t.trial_span_s))
    report.fail_check("layer self times sum to " + fmt("%.9g", sum) +
                      " s but the traced trials took " +
                      fmt("%.9g", t.trial_span_s) + " s");
}

/// Writes the run's spans as TSV. `with_rounds` = false keeps only the
/// trial-level spans (trial, graph.build, reset): a sweep's ~450k rounds
/// would make a file of over 100 MB.
void write_spans(const RunConfig& config, const std::vector<TrialTrace>& trials,
                 bool with_rounds) {
  if (config.trace_dir.empty()) return;
  std::filesystem::create_directories(config.trace_dir);
  const std::string path = config.trace_dir + "/" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".tsv";
  std::ofstream out(path, std::ios::trunc);
  out << "request\tlayer\tfamily\tspan\tindex\tparent\tstart_s\tend_s\n";
  char line[192];
  for (const TrialTrace& trial : trials)
    for (std::size_t i = 0; i < trial.spans.size(); ++i) {
      const Span& s = trial.spans[i];
      if (!with_rounds && s.kind != SpanKind::kTrial &&
          s.kind != SpanKind::kGraphBuild && s.kind != SpanKind::kReset)
        continue;
      std::snprintf(line, sizeof line, "%llu\t%s\t%s\t%s\t%zu\t%d\t%.9f\t%.9f\n",
                    static_cast<unsigned long long>(trial.request),
                    trial.layer.c_str(), trial.family.c_str(),
                    span_kind_name(s.kind), i, s.parent, s.start, s.end);
      out << line;
    }
  out.flush();
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

// ------------------------------------------------ single-trial workloads ---

/// Every single-trial run executes at least this many trials; the
/// simulated outcomes (sim_*) are taken over exactly these, so they depend
/// on the seed alone, never on how fast the trials ran. Algorithm 1 trials
/// are short and differ more from one another, so they get more.
std::uint32_t min_trials(const BatchSpec& spec) {
  return spec.protocol == "alg1" ? 16 : 3;
}

/// |z| above this fails the channel-law check (a 5-sigma event has
/// probability ~6e-7 under the law).
constexpr double kLawZLimit = 5.0;

/// Closed-form G(n,p) channel law (paper Section 1.2) for the rounds of
/// Algorithm 1 on the implicit backend. Each node transmits at most once,
/// so every (transmitter, listener) pair is examined at most once and a
/// round with k transmitters delivers to each of its n - k listeners
/// (half-duplex) independently w.p. q = k p (1-p)^(k-1). Returns
/// (ledger deliveries - sum of means) / sqrt(sum of variances).
double channel_law_z(const std::vector<TrialTrace>& trials,
                     std::uint64_t deliveries, double n, double p) {
  double mean = 0.0;
  double var = 0.0;
  for (const TrialTrace& trial : trials)
    for (const std::uint32_t k : trial.tx_per_round) {
      if (k == 0) continue;
      const double kk = k;
      const double q = kk * p * std::pow(1.0 - p, kk - 1.0);
      mean += (n - kk) * q;
      var += (n - kk) * q * (1.0 - q);
    }
  return var > 0.0 ? (static_cast<double>(deliveries) - mean) / std::sqrt(var)
                   : 0.0;
}

struct Trial {
  sim::RunResult result;
  std::optional<graph::NodeId> stranded;
  double wall = 0.0;
};

Trial untraced_trial(const McSpec& mc, std::uint32_t t,
                     const sim::RunOptions& options) {
  static const graph::Digraph placeholder;
  const std::unique_ptr<sim::Protocol> protocol = mc.make_protocol(placeholder, t);
  Trial out;
  const double t0 = now_s();
  out.result = run_trial(mc, t, *protocol, options);
  out.wall = now_s() - t0;
  out.stranded = protocol->stranded_count();
  return out;
}

Trial traced_trial(const McSpec& mc, const BatchSpec& spec, std::uint32_t t,
                   const sim::RunOptions& options, Recorder& recorder) {
  static const graph::Digraph placeholder;
  TrialTrace trace;
  trace.request = t;
  trace.layer = is_core_protocol(spec.protocol) ? "core" : "baselines";
  trace.family = harness::batch_family_name(spec.family);
  Trial out;
  auto inner = mc.make_protocol(placeholder, t);
  const double t0 = now_s();
  trace.spans.push_back({SpanKind::kTrial, -1, t0, 0.0});
  TracingProtocol protocol(std::move(inner), std::move(trace), recorder);
  out.result = run_trial(mc, t, protocol, options);
  const double t1 = now_s();
  protocol.close_trial(t1);
  out.wall = t1 - t0;
  out.stranded = protocol.stranded_count();
  return out;
}

/// Output checks every trial of a single-trial workload must pass.
void check_trial(const BatchSpec& spec, std::uint32_t t, const Trial& trial,
                 Report& report) {
  if (spec.protocol == "alg1") {
    if (!trial.result.completed)
      report.fail_operation("trial " + std::to_string(t) +
                            ": Algorithm 1 did not complete");
    else if (trial.result.ledger.max_tx_per_node() > 1)
      report.fail_operation("trial " + std::to_string(t) +
                            ": a node transmitted more than once "
                            "(Theorem 2.1 allows one)");
  }
}

void run_single_untraced(const RunConfig& config, const BatchSpec& spec,
                         const McSpec& mc, SetupProbe& setup, Report& report) {
  sim::RunOptions parallel = mc.run_options;
  parallel.threads = 0;  // the global pool
  const double n = spec.n;
  Sample walls;
  Sample node_rounds_rate;
  Sample sim_rounds;
  double tx_per_node = 0.0;
  double informed = 0.0;
  const std::uint32_t sim_trials = min_trials(spec);

  const double deadline = now_s() + config.seconds;
  for (std::uint32_t t = 0; t < sim_trials || now_s() < deadline; ++t) {
    report.attempt();
    try {
      Trial trial = untraced_trial(mc, t, parallel);
      check_trial(spec, t, trial, report);
      walls.add(trial.wall);
      node_rounds_rate.add(
          static_cast<double>(trial.result.ledger.node_rounds) / trial.wall);
      if (t < sim_trials) {
        const sim::RunResult& r = trial.result;
        sim_rounds.add(r.completed ? r.completion_round : r.rounds_executed);
        tx_per_node += r.ledger.mean_tx_per_node() / sim_trials;
        informed += (1.0 - static_cast<double>(trial.stranded.value_or(0)) / n) /
                    sim_trials;
      }
    } catch (const std::exception& e) {
      report.fail_operation("trial " + std::to_string(t) + " threw: " + e.what());
    }
    (void)setup.burst();
  }
  report.set("peak_rss_mb", peak_rss_mb());
  report.info("trials", "count", static_cast<double>(walls.size()));
  report.info("trial_s.min", "s", walls.min());
  report.info("trial_s.max", "s", walls.max());

  if (sim_rounds.size() < sim_trials) {
    report.fail_check("fewer than " + std::to_string(sim_trials) +
                      " trials succeeded");
    return;
  }
  report.set("trial_s", walls.median());
  report.set("trials_per_s", 1.0 / walls.mean());
  report.set("node_rounds_per_s", node_rounds_rate.median());
  report.set("sim_rounds", sim_rounds.median());
  report.set("sim_tx_per_node", tx_per_node);
  report.info("sim_informed_frac", "ratio", informed);
}

void run_single_traced(const RunConfig& config, const BatchSpec& spec,
                       const McSpec& mc, SetupProbe& setup, Report& report) {
  sim::RunOptions parallel = mc.run_options;
  parallel.threads = 0;  // the global pool
  Recorder recorder;
  Sample untraced_walls;
  Sample traced_walls;
  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::optional<sim::RunResult> first;

  // Traced and untraced runs of the same trial alternate which goes first,
  // so drift in the machine's speed does not bias trace.overhead.
  const double deadline = now_s() + config.seconds;
  for (std::uint32_t t = 0; t < min_trials(spec) || now_s() < deadline; ++t) {
    report.attempt();
    try {
      Trial plain;
      Trial traced;
      if (t % 2 == 0) {
        plain = untraced_trial(mc, t, parallel);
        traced = traced_trial(mc, spec, t, parallel, recorder);
      } else {
        traced = traced_trial(mc, spec, t, parallel, recorder);
        plain = untraced_trial(mc, t, parallel);
      }
      check_trial(spec, t, traced, report);
      if (traced.result != plain.result)
        report.fail_operation("trial " + std::to_string(t) +
                              ": traced RunResult differs from untraced");
      untraced_walls.add(plain.wall);
      traced_walls.add(traced.wall);
      rounds += traced.result.rounds_executed;
      deliveries += traced.result.ledger.total_deliveries;
      collisions += traced.result.ledger.total_collisions;
      if (t == 0) first = std::move(traced.result);
    } catch (const std::exception& e) {
      report.fail_operation("trial " + std::to_string(t) + " threw: " + e.what());
    }
    (void)setup.burst();
  }
  const std::vector<TrialTrace> trials = recorder.take();
  if (recorder.lost() > 0 || trials.size() < min_trials(spec) ||
      !first.has_value()) {
    report.fail_check("traced trials were lost or failed");
    return;
  }

  // One seed serially: thread-count identity, and the serial deliver time
  // that sim.deliver_speedup divides by trial 0's parallel one.
  Recorder serial_recorder;
  sim::RunOptions serial = mc.run_options;
  serial.threads = 1;
  report.attempt();
  if (traced_trial(mc, spec, 0, serial, serial_recorder).result != *first)
    report.fail_operation("trial 0 at threads=1 differs from threads=" +
                          std::to_string(working_threads()));
  SelfTimes serial_self;
  for (const TrialTrace& trial : serial_recorder.take()) serial_self.add(trial);
  SelfTimes trial0_self;
  for (const TrialTrace& trial : trials)
    if (trial.request == 0) trial0_self.add(trial);
  report.set("sim.deliver_speedup", serial_self[SpanKind::kDeliver] /
                                        trial0_self[SpanKind::kDeliver]);

  const LayerTotals totals = fold(trials);
  check_accounting(totals, report);
  const double per = static_cast<double>(totals.trials);
  report_layers(totals, per, report);
  report.set("sim.rounds", static_cast<double>(rounds) / per);
  report.set("sim.deliveries", static_cast<double>(deliveries) / per);
  report.set("sim.collisions", static_cast<double>(collisions) / per);
  const std::uint64_t callbacks = totals.callbacks[0] + totals.callbacks[1];
  report.set("sim.fold_ratio", 1.0 - static_cast<double>(callbacks) /
                                         static_cast<double>(deliveries + collisions));
  report.set("harness.trials_run", per);
  report.set("trace.overhead", traced_walls.median() / untraced_walls.median() - 1.0);
  if (spec.protocol == "alg1" && spec.family == harness::BatchFamily::kImplicitGnp) {
    const double z = channel_law_z(trials, deliveries, spec.n, spec.effective_p());
    report.set("sim.law_z", z);
    if (!(std::abs(z) <= kLawZLimit))
      report.fail_check("channel law: deliveries are " + fmt("%.3g", z) +
                        " sigma from the G(n,p) expectation");
  }
  write_spans(config, trials, true);
}

// ---------------------------------------------------------- batch sweep ---

std::optional<double> json_number(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string rest(line.substr(at + needle.size(), 32));
  if (rest.rfind("null", 0) == 0) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return std::nullopt;
  return v;
}

struct Sweep {
  std::vector<harness::BatchOutcome> outcomes;
  harness::BatchStats stats;
  std::string bytes;
  double wall = 0.0;
};

Sweep run_sweep(const std::vector<BatchSpec>& specs, unsigned threads) {
  harness::BatchOptions options;  // no disk cache, no journal
  options.threads = threads;
  std::ostringstream out;
  Sweep sweep;
  const double t0 = now_s();
  sweep.outcomes = harness::run_batch(specs, options, out, &sweep.stats);
  sweep.wall = now_s() - t0;
  sweep.bytes = out.str();
  return sweep;
}

/// Checks a sweep's output: one line per spec on the stream, no error
/// line, and (when given) each line byte-identical to the reference
/// sweep's line for the same spec.
void check_sweep(const Sweep& sweep, const Sweep* reference,
                 const std::vector<BatchSpec>& specs, Report& report) {
  const auto lines = std::count(sweep.bytes.begin(), sweep.bytes.end(), '\n');
  if (static_cast<std::size_t>(lines) != specs.size())
    report.fail_check("the sweep streamed " + std::to_string(lines) +
                      " lines for " + std::to_string(specs.size()) + " specs");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    report.attempt();
    const harness::BatchOutcome& o = sweep.outcomes[i];
    if (o.error || o.json.find("\"error\"") != std::string::npos)
      report.fail_operation("spec " + std::to_string(i) + " emitted an error line");
    else if (reference != nullptr && o.json != reference->outcomes[i].json)
      report.fail_operation("spec " + std::to_string(i) +
                            " result differs between sweeps");
  }
}

void run_batch_untraced(const RunConfig& config,
                        const std::vector<BatchSpec>& specs, SetupProbe& setup,
                        Report& report) {
  Sample walls;
  std::optional<Sweep> first;
  const double deadline = now_s() + config.seconds;
  while (walls.size() < 2 || now_s() < deadline) {
    Sweep sweep = run_sweep(specs, 0);
    check_sweep(sweep, first ? &*first : nullptr, specs, report);
    walls.add(sweep.wall);
    (void)setup.burst();
    if (!first) first = std::move(sweep);
  }
  report.set("peak_rss_mb", peak_rss_mb());

  const double trials = static_cast<double>(first->stats.trials_run);
  double node_rounds = 0.0;
  Sample rounds_median;
  double tx_per_node = 0.0;
  double informed = 0.0;
  int informed_specs = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& line = first->outcomes[i].json;
    const double n = specs[i].n;
    const double successes = json_number(line, "successes").value_or(0.0);
    if (const auto m = json_number(line, "rounds_mean"))
      node_rounds += n * *m * successes;
    if (const auto m = json_number(line, "rounds_median")) rounds_median.add(*m);
    tx_per_node += json_number(line, "total_tx_mean").value_or(0.0) / n /
                   static_cast<double>(specs.size());
    if (const auto s = json_number(line, "stranded_mean")) {
      informed += 1.0 - *s / n;
      ++informed_specs;
    }
  }
  const double sweep_s = walls.median();
  report.info("sweeps", "count", static_cast<double>(walls.size()));
  report.info("sweep_s", "s", sweep_s);
  report.info("trials_run", "count", trials);
  report.set("trial_s", sweep_s * working_threads() / trials);
  report.set("trials_per_s", trials / sweep_s);
  report.set("node_rounds_per_s", node_rounds / sweep_s);
  report.set("sim_rounds", rounds_median.empty() ? 0.0 : rounds_median.median());
  report.set("sim_tx_per_node", tx_per_node);
  report.info("sim_informed_frac", "ratio",
              informed_specs == 0 ? 0.0 : informed / informed_specs);
}

/// The thread-local hand-off from a traced make_graph call to the
/// make_protocol call the harness makes next on the same thread.
struct PendingBuild {
  bool set = false;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t edges = 0;
};
thread_local PendingBuild pending_build;

/// Re-runs every spec's granted trials through run_monte_carlo_range and
/// checks each line against the sweep's, byte for byte; with a recorder,
/// protocols and graph builds are traced and the trial outcomes collected.
/// Returns the pass's wall time.
double replay_specs(const std::vector<BatchSpec>& specs, const Sweep& sweep,
                    Recorder* recorder,
                    std::vector<harness::TrialOutcome>* outcomes,
                    Report& report) {
  const double t0 = now_s();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const BatchSpec& spec = specs[i];
    const harness::BatchOutcome& outcome = sweep.outcomes[i];
    McSpec mc = spec.to_mc_spec();
    if (recorder != nullptr) {
      if (mc.make_graph) {
        mc.make_graph = [inner = mc.make_graph](std::uint32_t trial, Rng rng) {
          const double start = now_s();
          auto g = inner(trial, std::move(rng));
          pending_build = {true, start, now_s(), g->num_edges()};
          return g;
        };
      }
      mc.make_protocol = [inner = mc.make_protocol, recorder, i,
                          layer = std::string(is_core_protocol(spec.protocol)
                                                  ? "core"
                                                  : "baselines"),
                          family = std::string(harness::batch_family_name(spec.family))](
                             const graph::Digraph& g, std::uint32_t trial)
          -> std::unique_ptr<sim::Protocol> {
        TrialTrace trace;
        trace.request = (static_cast<std::uint64_t>(i) << 32) | trial;
        trace.layer = layer;
        trace.family = family;
        if (pending_build.set) {
          trace.spans.push_back({SpanKind::kTrial, -1, pending_build.start, 0.0});
          trace.spans.push_back({SpanKind::kGraphBuild, 0, pending_build.start,
                                 pending_build.end});
          trace.graph_edges = pending_build.edges;
          pending_build = {};
        }
        return std::make_unique<TracingProtocol>(inner(g, trial),
                                                 std::move(trace), *recorder);
      };
    }
    harness::McResult result;
    harness::run_monte_carlo_range(mc, 0, outcome.trials_granted, result);
    if (harness::batch_result_json(spec, result, outcome.trials_granted,
                                   outcome.converged) != outcome.json)
      report.fail_operation("spec " + std::to_string(i) + ": " +
                            (recorder ? "traced" : "untraced") +
                            " replay differs from the sweep's line");
    if (outcomes != nullptr)
      outcomes->insert(outcomes->end(), result.outcomes.begin(),
                       result.outcomes.end());
  }
  return now_s() - t0;
}

void run_batch_traced(const RunConfig& config,
                      const std::vector<BatchSpec>& specs, SetupProbe& setup,
                      Report& report) {
  const Sweep sweep = run_sweep(specs, 0);
  (void)setup.burst();
  check_sweep(sweep, nullptr, specs, report);
  report.attempt(2 * specs.size());
  const double untraced = replay_specs(specs, sweep, nullptr, nullptr, report);
  Recorder recorder;
  std::vector<harness::TrialOutcome> outcomes;
  const double traced = replay_specs(specs, sweep, &recorder, &outcomes, report);

  // Thread-count identity on one spec per family (which one rotates with
  // the seed): the serial sweep must reproduce the parallel lines exactly.
  std::vector<BatchSpec> subset;
  std::vector<std::size_t> index;
  for (std::size_t i = config.seed % 10; i < specs.size(); i += 10) {
    subset.push_back(specs[i]);
    index.push_back(i);
  }
  const Sweep serial = run_sweep(subset, 1);
  for (std::size_t j = 0; j < subset.size(); ++j) {
    report.attempt();
    if (serial.outcomes[j].json != sweep.outcomes[index[j]].json)
      report.fail_operation("spec " + std::to_string(index[j]) +
                            " differs at threads=1");
  }
  const std::vector<TrialTrace> trials = recorder.take();
  if (recorder.lost() > 0 || trials.size() != outcomes.size()) {
    report.fail_check("traced trials were lost");
    return;
  }

  const LayerTotals totals = fold(trials);
  check_accounting(totals, report);
  report_layers(totals, 1.0, report);
  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  for (const harness::TrialOutcome& o : outcomes) {
    rounds += o.rounds;
    deliveries += o.deliveries;
    collisions += o.collisions;
  }
  report.set("sim.rounds", static_cast<double>(rounds));
  report.set("sim.deliveries", static_cast<double>(deliveries));
  report.set("sim.collisions", static_cast<double>(collisions));
  const std::uint64_t callbacks = totals.callbacks[0] + totals.callbacks[1];
  report.set("sim.fold_ratio", 1.0 - static_cast<double>(callbacks) /
                                         static_cast<double>(deliveries + collisions));
  const double run = static_cast<double>(sweep.stats.trials_run);
  const double saved = static_cast<double>(sweep.stats.trials_saved);
  report.set("harness.trials_run", run);
  report.set("harness.saved_ratio", saved / (run + saved));
  report.set("harness.pool_util",
             totals.trial_span_s / (sweep.wall * working_threads()));
  report.set("trace.overhead", traced / untraced - 1.0);
  report.info("sweep_s", "s", sweep.wall);
  write_spans(config, trials, false);
}

}  // namespace

unsigned pool_workers(std::string_view workload) {
  if (workload != "batch_sweep") return 1;
  return std::max(2u, std::thread::hardware_concurrency()) - 1;
}

std::span<const std::string_view> workload_names() { return kWorkloads; }

std::string workload_specs(std::string_view workload, std::uint64_t seed) {
  std::ostringstream out;
  out.precision(17);
  if (workload == "alg1_gnp") {
    // Algorithm 1 at the README's headline scale: p = 8 ln n / n.
    out << "protocol=alg1 family=ignp n=4194304 delta=8 seed="
        << spec_seed(seed, 0) << "\n";
  } else if (workload == "gossip_churn") {
    out << "protocol=alg2m family=idgnp n=1048576 p=" << 16.0 / 1048576.0
        << " churn=0.5 max-rounds=32 seed=" << spec_seed(seed, 0) << "\n";
  } else if (workload == "gossip_rgg") {
    // Mean degree 16: pi r^2 n = radius_mult * ln n = 16.
    out << "protocol=alg2m family=irgg n=1048576 radius-mult="
        << 16.0 / std::log(1048576.0)
        << " step=0.125 max-rounds=32 seed=" << spec_seed(seed, 0) << "\n";
  } else if (workload == "batch_sweep") {
    const char* protocols[] = {"alg1", "alg2m", "eg2005", "flooding", "decay"};
    const char* families[] = {"ignp", "csr", "idgnp churn=0.5", "irgg"};
    std::uint64_t index = 0;
    for (const char* family : families)
      for (const char* protocol : protocols)
        for (const int n : {512, 2048})
          out << "protocol=" << protocol << " family=" << family
              << " n=" << n << " trials=256 tol=0.05 max-rounds=256 seed="
              << spec_seed(seed, index++) << "\n";
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(workload) + "'");
  }
  return out.str();
}

sim::RunResult run_trial(const McSpec& mc, std::uint32_t trial,
                         sim::Protocol& protocol,
                         const sim::RunOptions& options) {
  const Rng root(mc.seed);
  const Rng graph_rng = root.split(trial, 0);
  const Rng protocol_rng = root.split(trial, 1);
  sim::Engine engine;
  if (mc.implicit_gnp.has_value())
    return engine.run(sim::ImplicitGnp{mc.implicit_gnp->n, mc.implicit_gnp->p,
                                       graph_rng},
                      protocol, protocol_rng, options);
  if (mc.implicit_dynamic.has_value()) {
    sim::ImplicitDynamicGnp gnp = *mc.implicit_dynamic;
    gnp.rng = graph_rng;
    return engine.run(gnp, protocol, protocol_rng, options);
  }
  if (mc.implicit_rgg.has_value()) {
    sim::ImplicitRgg rgg = *mc.implicit_rgg;
    rgg.rng = graph_rng;
    return engine.run(rgg, protocol, protocol_rng, options);
  }
  const auto g = mc.make_graph(trial, graph_rng);
  return engine.run(*g, protocol, protocol_rng, options);
}

void run_workload(const RunConfig& config, Report& report) {
  SetupProbe setup(config);
  const std::vector<BatchSpec> specs = setup.burst();
  (void)global_pool();  // started outside the timing
  if (config.workload == "batch_sweep") {
    if (config.traced)
      run_batch_traced(config, specs, setup, report);
    else
      run_batch_untraced(config, specs, setup, report);
  } else {
    const BatchSpec& spec = specs.at(0);
    const McSpec mc = spec.to_mc_spec();
    if (config.traced)
      run_single_traced(config, spec, mc, setup, report);
    else
      run_single_untraced(config, spec, mc, setup, report);
  }
  setup.report(report);
}

}  // namespace radbench
