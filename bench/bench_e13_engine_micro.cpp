// E13 — simulator microbenchmarks (google-benchmark).
//
// Measures the substrate itself: rounds/second of the optimised engine vs
// the first-principles reference engine across graph sizes and densities,
// plus generator and rumor-merge throughput. These are the numbers that
// justify trusting the experiment sweeps to run at laptop scale.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"
#include "support/bitset.hpp"
#include "support/simd.hpp"

namespace {

using radnet::Rng;
using radnet::graph::Digraph;

/// Everybody transmits with fixed probability; never completes (pure
/// engine-throughput load).
class LoadProtocol final : public radnet::sim::Protocol {
 public:
  explicit LoadProtocol(double q) : q_(q) {}

  void reset(radnet::graph::NodeId n, Rng rng) override {
    rng_ = rng;
    all_.resize(n);
    for (radnet::graph::NodeId v = 0; v < n; ++v) all_[v] = v;
  }
  [[nodiscard]] std::span<const radnet::graph::NodeId> candidates()
      const override {
    return {all_.data(), all_.size()};
  }
  [[nodiscard]] bool wants_transmit(radnet::graph::NodeId,
                                    radnet::sim::Round) override {
    return rng_.bernoulli(q_);
  }
  void on_delivered(radnet::graph::NodeId, radnet::graph::NodeId,
                    radnet::sim::Round) override {}
  [[nodiscard]] bool is_complete() const override { return false; }
  [[nodiscard]] std::string name() const override { return "load"; }

 private:
  double q_;
  Rng rng_;
  std::vector<radnet::graph::NodeId> all_;
};

Digraph make_graph(std::uint32_t n) {
  Rng rng(n);
  return radnet::graph::gnp_directed(n, 8.0 * std::log(n) / n, rng);
}

void BM_EngineRounds(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const Digraph g = make_graph(n);
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = 64;
  for (auto _ : state) {
    LoadProtocol proto(0.1);
    benchmark::DoNotOptimize(engine.run(g, proto, Rng(1), options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.counters["nodes"] = n;
}
BENCHMARK(BM_EngineRounds)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_ReferenceEngineRounds(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const Digraph g = make_graph(n);
  radnet::sim::ReferenceEngine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = 64;
  for (auto _ : state) {
    LoadProtocol proto(0.1);
    benchmark::DoNotOptimize(engine.run(g, proto, Rng(1), options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ReferenceEngineRounds)->Arg(1 << 10)->Arg(1 << 12);

void BM_ImplicitEngineRounds(benchmark::State& state) {
  // Same load as BM_EngineRounds, but over the implicit G(n,p) backend —
  // no graph is ever built; each round is sampled from the transmitter
  // count alone.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double p = 8.0 * std::log(n) / n;
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = 64;
  for (auto _ : state) {
    const radnet::sim::ImplicitGnp gnp{n, p, Rng(n)};
    LoadProtocol proto(0.1);
    benchmark::DoNotOptimize(engine.run(gnp, proto, Rng(1), options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.counters["nodes"] = n;
}
BENCHMARK(BM_ImplicitEngineRounds)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_BroadcastEndToEndCsr(benchmark::State& state) {
  // Graph build + full Algorithm 1 run: the quantity the implicit backend
  // attacks (compare BM_BroadcastEndToEndImplicit at equal n).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double p = 16.0 / n;
  radnet::sim::Engine engine;
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng rng(trial++);
    const Digraph g = radnet::graph::gnp_directed(n, p, rng);
    radnet::core::BroadcastRandomProtocol proto(
        radnet::core::BroadcastRandomParams{.p = p});
    proto.reset(n, Rng(0));
    radnet::sim::RunOptions options;
    options.max_rounds = proto.round_budget();
    benchmark::DoNotOptimize(engine.run(g, proto, Rng(trial), options));
  }
  state.counters["nodes"] = n;
}
BENCHMARK(BM_BroadcastEndToEndCsr)->Arg(1 << 14)->Arg(1 << 16);

void BM_BroadcastEndToEndImplicit(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double p = 16.0 / n;
  radnet::sim::Engine engine;
  std::uint64_t trial = 0;
  for (auto _ : state) {
    const radnet::sim::ImplicitGnp gnp{n, p, Rng(trial++)};
    radnet::core::BroadcastRandomProtocol proto(
        radnet::core::BroadcastRandomParams{.p = p});
    proto.reset(n, Rng(0));
    radnet::sim::RunOptions options;
    options.max_rounds = proto.round_budget();
    benchmark::DoNotOptimize(engine.run(gnp, proto, Rng(trial), options));
  }
  state.counters["nodes"] = n;
}
BENCHMARK(BM_BroadcastEndToEndImplicit)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 20);

/// Shape of the per-sweep SIMD benchmark: Arg(0) = n, Arg(1) = dispatch
/// mode (0 scalar, 1 SIMD — degrades to scalar without AVX2, the
/// avx2_active counter records which kernels really ran). One iteration =
/// one full round sweep; ns/sweep scalar vs SIMD is the tracked pair.
radnet::simd::Mode arg_mode(benchmark::State& state) {
  return state.range(1) == 0 ? radnet::simd::Mode::kScalar
                             : radnet::simd::Mode::kAvx2;
}

struct NullSink {
  std::uint64_t events = 0;
  void deliver(radnet::graph::NodeId, radnet::graph::NodeId) { ++events; }
  void collide(radnet::graph::NodeId) { ++events; }
  void deliver_bulk(std::uint64_t count) { events += count; }
  void collide_bulk(std::uint64_t count) { events += count; }
};

void BM_DenseClassifySweep(benchmark::State& state) {
  // The dense G(n,p) lane-classification sweep in its plain regime
  // (k*p ~ 0.8 ln n, q > 0.5): every listener draws one classification
  // uniform, batched over RNG lanes.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double p = 8.0 * std::log(n) / n;
  radnet::simd::set_mode(arg_mode(state));
  radnet::sim::ImplicitGnpTopology topo(radnet::sim::ImplicitGnp{n, p, Rng(91)});
  std::vector<radnet::graph::NodeId> tx;
  std::vector<char> is_tx(n, 0);
  for (radnet::graph::NodeId v = 0; v < n / 10; ++v) {
    tx.push_back(v * 7 % n);
    is_tx[tx.back()] = 1;
  }
  NullSink sink;
  std::uint32_t round = 0;
  for (auto _ : state) {
    topo.begin_round(round++);
    topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/false,
                 radnet::sim::DeliveryPath::kAuto, std::nullopt,
                 /*collisions_inert=*/false, sink);
    benchmark::DoNotOptimize(sink.events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.counters["nodes"] = n;
  state.counters["avx2_active"] =
      radnet::simd::active_mode() == radnet::simd::Mode::kAvx2 ? 1 : 0;
}
BENCHMARK(BM_DenseClassifySweep)
    ->Args({1 << 14, 0})->Args({1 << 14, 1})
    ->Args({1 << 16, 0})->Args({1 << 16, 1});

void BM_RggDistanceSweep(benchmark::State& state) {
  // One implicit RGG round (motion, cell-ordered bucketing, row-range
  // listener scan) at mean degree 64 with half the nodes transmitting —
  // dense cells, so the distance scan dominates. Arg(0) = n.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double radius = std::sqrt(64.0 / (3.141592653589793 * n));
  radnet::sim::ImplicitRggTopology topo(
      radnet::sim::ImplicitRgg{n, radius, radius / 8.0, Rng(92)});
  std::vector<radnet::graph::NodeId> tx;
  std::vector<char> is_tx(n, 0);
  for (radnet::graph::NodeId v = 0; v < n; v += 2) {
    tx.push_back(v);
    is_tx[v] = 1;
  }
  NullSink sink;
  std::uint32_t round = 0;
  for (auto _ : state) {
    topo.begin_round(round++);
    topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/false,
                 radnet::sim::DeliveryPath::kAuto, std::nullopt,
                 /*collisions_inert=*/false, sink);
    benchmark::DoNotOptimize(sink.events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.counters["nodes"] = n;
}
BENCHMARK(BM_RggDistanceSweep)->Arg(1 << 14)->Arg(1 << 16);

void BM_GnpGeneration(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double p = 8.0 * std::log(n) / n;
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(radnet::graph::gnp_directed(n, p, rng));
  state.counters["nodes"] = n;
}
BENCHMARK(BM_GnpGeneration)->Arg(1 << 12)->Arg(1 << 16);

void BM_GeometricGeneration(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double r = radnet::graph::rgg_threshold_radius(n, 2.0);
  Rng rng(8);
  for (auto _ : state)
    benchmark::DoNotOptimize(radnet::graph::random_geometric(n, r, rng));
}
BENCHMARK(BM_GeometricGeneration)->Arg(1 << 12)->Arg(1 << 16);

void BM_RumorMerge(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  radnet::Bitset a(bits), b(bits);
  for (std::size_t i = 0; i < bits; i += 3) b.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.unite(b));
    benchmark::DoNotOptimize(a.count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_RumorMerge)->Arg(1 << 10)->Arg(1 << 14);

void BM_GossipRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double p = 8.0 * std::log(n) / n;
  const Digraph g = make_graph(n);
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = 32;
  for (auto _ : state) {
    radnet::core::GossipRandomProtocol proto(
        radnet::core::GossipRandomParams{.p = p});
    benchmark::DoNotOptimize(engine.run(g, proto, Rng(2), options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_GossipRound)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
