// E17 — deterministic within-trial parallelism.
//
// PR 1/2 made a single implicit-backend trial O(n)-per-round and
// memory-light; this bench prices the remaining axis: one trial still used
// one core, because the round sweep consumed a single sequential RNG
// stream. The block-sharded sweeps (sim/topology.hpp) key every draw by
// (round, listener block) instead, so RunOptions::threads fans one round
// over the whole machine — with *bit-identical* results at every thread
// count, which this bench verifies while it times.
//
// Default mode: a single-trial Algorithm-1 broadcast at n = 2^24
// (RADNET_SCALE-scaled, p = 8 ln n / n — the d = Theta(log n) regime where
// finite-size completion is reliable), swept over thread counts
// {1, 2, 4, 8, all},
// asserting ledger/round equality against the serial run and reporting
// wall time + speedup. Thread counts beyond the machine's cores still run
// (and still match bit-for-bit); their speedup just saturates, so the
// table prints the hardware budget alongside.
//
// A second table prices the explicit-CSR family the same way: one
// broadcast trial on a materialised G(n,p), swept over the same thread
// counts with the same bit-identity column — the CSR paths involve no RNG
// at all, so identity holds by order-independence of hit counts rather
// than by counter keying (sim/backends/csr.hpp).
//
// With --full it adds the scale demonstration: one n = 10^8 broadcast
// trial on every core, run in a forked child under an 8 GiB RLIMIT_AS (a
// large-memory-container budget; the materialised graph alone would need
// ~1.5e10 edges, and the explicit pair state ~10 PB).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <thread>

#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "sim/engine.hpp"
#include "support/cli_args.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using radnet::Rng;
using radnet::core::BroadcastRandomParams;
using radnet::core::BroadcastRandomProtocol;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

radnet::sim::RunResult run_once(std::uint32_t n, double p, unsigned threads,
                                std::uint64_t seed) {
  radnet::sim::Engine engine;
  const radnet::sim::ImplicitGnp spec{n, p, Rng(seed)};
  BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
  proto.reset(n, Rng(0));
  radnet::sim::RunOptions options;
  options.max_rounds = proto.round_budget();
  options.threads = threads;
  return engine.run(spec, proto, Rng(seed + 1), options);
}

// A churned-dynamic trial: churn = 0.5 routes every delivery through the
// pair sketch, so the round cost is dominated by the per-listener-block
// sketch pass this row prices.
radnet::sim::RunResult run_once_sketch(std::uint32_t n, unsigned threads,
                                       std::uint64_t seed) {
  radnet::sim::Engine engine;
  radnet::sim::ImplicitDynamicGnp spec;
  spec.n = n;
  spec.p = 16.0 / n;
  spec.churn = 0.5;
  spec.rng = Rng(seed);
  radnet::core::GossipRumorMarginalProtocol proto(
      radnet::core::GossipRumorMarginalParams{.p = spec.p});
  radnet::sim::RunOptions options;
  options.max_rounds = 64;
  options.threads = threads;
  return engine.run(spec, proto, Rng(seed + 1), options);
}

// A mobility-RGG gossip trial: per round the motion step, the cell-ordered
// transmitter bucketing (parallel cell map and gather around one serial
// counting sort) and the row-range listener sweep are the work this row
// prices.
radnet::sim::RunResult run_once_rgg(std::uint32_t n, unsigned threads,
                                    std::uint64_t seed) {
  radnet::sim::Engine engine;
  const double radius =
      std::sqrt(16.0 / (3.14159265358979 * static_cast<double>(n)));
  const double p = 3.14159265358979 * radius * radius;
  const radnet::sim::ImplicitRgg spec{n, radius, radius / 8.0, Rng(seed)};
  radnet::core::GossipRumorMarginalProtocol proto(
      radnet::core::GossipRumorMarginalParams{.p = p});
  radnet::sim::RunOptions options;
  options.max_rounds = 64;
  options.threads = threads;
  return engine.run(spec, proto, Rng(seed + 1), options);
}

radnet::sim::RunResult run_once_csr(const radnet::graph::Digraph& g, double p,
                                    unsigned threads, std::uint64_t seed) {
  radnet::sim::Engine engine;
  BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
  proto.reset(g.num_nodes(), Rng(0));
  radnet::sim::RunOptions options;
  options.max_rounds = proto.round_budget();
  options.threads = threads;
  return engine.run(g, proto, Rng(seed + 1), options);
}

constexpr std::uint32_t kHugeN = 100'000'000;
const double kHugeP = 8.0 * std::log(static_cast<double>(kHugeN)) / kHugeN;

int attempt_huge() {
  const auto run = run_once(kHugeN, kHugeP, /*threads=*/0, /*seed=*/1);
  if (!run.completed) return 2;
  // _exit() skips stream teardown, so flush explicitly.
  std::cout << "  (rounds: " << run.completion_round
            << ", transmissions: " << run.ledger.total_transmissions
            << ", deliveries: " << run.ledger.total_deliveries << ")"
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  radnet::CliArgs args = [&] {
    try {
      return radnet::CliArgs(argc, argv, {"full"});
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      std::exit(2);
    }
  }();
  const bool full = args.get_bool("full", false);

  const auto env = radnet::harness::bench_env();
  radnet::harness::banner(
      "E17 (thread scaling)",
      "Single-trial Algorithm-1 broadcast on the implicit G(n,p) backend: "
      "counter-keyed block-sharded round sweeps scale across threads with "
      "bit-identical results at every thread count.");

  const auto n = static_cast<std::uint32_t>(env.scaled(1u << 24, 1u << 12));
  const double p = 8.0 * std::log(static_cast<double>(n)) / n;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "n = " << n << ", p = 8 ln(n)/n, hardware threads = " << hw
            << " (speedup saturates there; determinism never depends on "
               "it)\n\n";

  const double t0 = now_ms();
  const auto serial = run_once(n, p, 1, env.seed);
  const double serial_ms = now_ms() - t0;

  radnet::Table t({"threads", "wall ms", "speedup", "identical to serial"});
  t.set_caption(
      "E17: one broadcast trial per row, same seed; 'identical' compares "
      "completion, rounds and the full energy ledger bit-for-bit");
  t.row()
      .add(std::uint64_t{1})
      .add(serial_ms, 1)
      .add(1.0, 2)
      .add("yes (baseline)");

  bool all_identical = true;
  double best_speedup = 1.0;
  for (const unsigned threads : {2u, 4u, 8u, 0u}) {
    const double t1 = now_ms();
    const auto run = run_once(n, p, threads, env.seed);
    const double ms = now_ms() - t1;
    const bool same = run == serial;
    all_identical = all_identical && same;
    const double speedup = serial_ms / ms;
    best_speedup = std::max(best_speedup, speedup);
    radnet::Table& row = t.row();
    if (threads == 0)
      row.add("all (" + std::to_string(radnet::global_pool().size()) + ")");
    else
      row.add(std::uint64_t{threads});
    row.add(ms, 1).add(speedup, 2).add(same ? "yes" : "NO — BUG");
  }
  radnet::harness::emit_table(env, "e17", "thread_scaling", t);

  if (!all_identical) {
    std::cout << "\nFAILED: results diverged across thread counts\n";
    return 1;
  }
  std::cout << "\nbest speedup: " << best_speedup << "x on " << hw
            << " hardware threads\n";

  // --- explicit-CSR rows: same sweep, same bit-identity column ----------
  const auto n_csr = static_cast<std::uint32_t>(env.scaled(1u << 20, 1u << 11));
  const double p_csr = 32.0 / n_csr;  // d = 32: heavy rounds, modest memory
  std::cout << "\nexplicit CSR: n = " << n_csr
            << ", p = 32/n (materialised digraph, "
            << "parallel scatter/gather delivery)\n\n";
  Rng grng(env.seed);
  const radnet::graph::Digraph g =
      radnet::graph::gnp_directed(n_csr, p_csr, grng);

  const double c0 = now_ms();
  const auto csr_serial = run_once_csr(g, p_csr, 1, env.seed);
  const double csr_serial_ms = now_ms() - c0;

  radnet::Table ct({"threads", "wall ms", "speedup", "identical to serial"});
  ct.set_caption(
      "E17-CSR: one broadcast trial per row on the same materialised "
      "G(n,p); 'identical' compares completion, rounds and the full "
      "energy ledger bit-for-bit");
  ct.row()
      .add(std::uint64_t{1})
      .add(csr_serial_ms, 1)
      .add(1.0, 2)
      .add("yes (baseline)");

  bool csr_identical = true;
  double csr_best = 1.0;
  for (const unsigned threads : {2u, 4u, 8u, 0u}) {
    const double c1 = now_ms();
    const auto run = run_once_csr(g, p_csr, threads, env.seed);
    const double ms = now_ms() - c1;
    const bool same = run == csr_serial;
    csr_identical = csr_identical && same;
    csr_best = std::max(csr_best, csr_serial_ms / ms);
    radnet::Table& row = ct.row();
    if (threads == 0)
      row.add("all (" + std::to_string(radnet::global_pool().size()) + ")");
    else
      row.add(std::uint64_t{threads});
    row.add(ms, 1).add(csr_serial_ms / ms, 2).add(same ? "yes" : "NO — BUG");
  }
  radnet::harness::emit_table(env, "e17", "thread_scaling_csr", ct);

  if (!csr_identical) {
    std::cout << "\nFAILED: CSR results diverged across thread counts\n";
    return 1;
  }
  std::cout << "\nbest CSR speedup: " << csr_best << "x on " << hw
            << " hardware threads\n";

  // --- sharded sketch pass: churned-dynamic rows ----------------------
  // Never below 2^18 = four listener blocks: a smaller row has too few
  // blocks for its sketch pass to share.
  const auto n_dyn = static_cast<std::uint32_t>(env.scaled(1u << 21, 1u << 18));
  std::cout << "\ndynamic sketch: n = " << n_dyn
            << ", p = 16/n, churn = 0.5 (the per-listener-block sketch "
            << "pass dominates the round)\n\n";
  const double s0 = now_ms();
  const auto sketch_serial = run_once_sketch(n_dyn, 1, env.seed);
  const double sketch_serial_ms = now_ms() - s0;

  radnet::Table st({"threads", "wall ms", "speedup", "identical to serial"});
  st.set_caption(
      "E17-sketch: one churned-dynamic gossip trial per row, same seed; "
      "'identical' compares completion, rounds and the full energy ledger "
      "bit-for-bit");
  st.row()
      .add(std::uint64_t{1})
      .add(sketch_serial_ms, 1)
      .add(1.0, 2)
      .add("yes (baseline)");
  bool sketch_identical = true;
  double sketch_best = 1.0;
  for (const unsigned threads : {2u, 4u, 8u, 0u}) {
    const double s1 = now_ms();
    const auto run = run_once_sketch(n_dyn, threads, env.seed);
    const double ms = now_ms() - s1;
    const bool same = run == sketch_serial;
    sketch_identical = sketch_identical && same;
    sketch_best = std::max(sketch_best, sketch_serial_ms / ms);
    radnet::Table& row = st.row();
    if (threads == 0)
      row.add("all (" + std::to_string(radnet::global_pool().size()) + ")");
    else
      row.add(std::uint64_t{threads});
    row.add(ms, 1)
        .add(sketch_serial_ms / ms, 2)
        .add(same ? "yes" : "NO — BUG");
  }
  radnet::harness::emit_table(env, "e17", "thread_scaling_sketch", st);
  if (!sketch_identical) {
    std::cout << "\nFAILED: sketch-phase results diverged across thread "
                 "counts\n";
    return 1;
  }
  std::cout << "\nbest sketch speedup: " << sketch_best << "x on " << hw
            << " hardware threads\n";

  // --- implicit RGG rounds: mobility rows -------------------------------
  const auto n_rgg = static_cast<std::uint32_t>(env.scaled(1u << 21, 1u << 18));
  std::cout << "\nRGG rounds: n = " << n_rgg
            << ", r = sqrt(16/(pi n)), step = r/8 (motion, cell-ordered "
            << "bucketing and the row-range listener sweep)\n\n";
  const double g0 = now_ms();
  const auto rgg_serial = run_once_rgg(n_rgg, 1, env.seed);
  const double rgg_serial_ms = now_ms() - g0;

  radnet::Table gt({"threads", "wall ms", "speedup", "identical to serial"});
  gt.set_caption(
      "E17-RGG: one mobility-RGG gossip trial per row, same seed; "
      "'identical' compares completion, rounds and the full energy ledger "
      "bit-for-bit");
  gt.row()
      .add(std::uint64_t{1})
      .add(rgg_serial_ms, 1)
      .add(1.0, 2)
      .add("yes (baseline)");
  bool rgg_identical = true;
  double rgg_best = 1.0;
  for (const unsigned threads : {2u, 4u, 8u, 0u}) {
    const double g1 = now_ms();
    const auto run = run_once_rgg(n_rgg, threads, env.seed);
    const double ms = now_ms() - g1;
    const bool same = run == rgg_serial;
    rgg_identical = rgg_identical && same;
    rgg_best = std::max(rgg_best, rgg_serial_ms / ms);
    radnet::Table& row = gt.row();
    if (threads == 0)
      row.add("all (" + std::to_string(radnet::global_pool().size()) + ")");
    else
      row.add(std::uint64_t{threads});
    row.add(ms, 1).add(rgg_serial_ms / ms, 2).add(same ? "yes" : "NO — BUG");
  }
  radnet::harness::emit_table(env, "e17", "thread_scaling_rgg", gt);
  if (!rgg_identical) {
    std::cout << "\nFAILED: RGG round results diverged across thread "
                 "counts\n";
    return 1;
  }
  std::cout << "\nbest RGG speedup: " << rgg_best << "x on " << hw
            << " hardware threads\n";

  if (full) {
    std::cout << "\n--- n = 10^8 single-trial broadcast, every core, under "
                 "an 8 GiB memory budget ---\n"
              << "a materialised G(n,p) would hold ~1.5e10 edges; explicit "
                 "pair state ~10 PB.\n";
    const std::uint64_t limit = 8ull << 30;
    const double t2 = now_ms();
    const int rc = radnet::harness::run_memory_limited(limit, attempt_huge);
    const double ms = now_ms() - t2;
    std::cout << "implicit broadcast trial (n=10^8, p=8 ln(n)/n): "
              << (rc == 0 ? "completed" : "FAILED") << " in " << ms / 1000.0
              << " s (exit " << rc << ")\n";
    if (rc != 0) return 1;
  } else {
    std::cout << "\n(run with --full for the n = 10^8 8 GiB-budget "
                 "demonstration)\n";
  }

  std::cout << "\nShape check: wall time falls ~1/threads until the "
               "hardware budget (or the serial merge of event-heavy "
               "rounds) binds; every row stays bit-identical because "
               "randomness is keyed by (round, block), not by schedule.\n";
  return 0;
}
