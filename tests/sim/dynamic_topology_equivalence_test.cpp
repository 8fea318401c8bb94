// Implicit-dynamic vs explicit-dynamic equivalence, pinned statistically.
//
// The ImplicitDynamicGnpTopology backend claims (sim/topology.hpp):
//   * exact equivalence with the explicit ChurnGnp oracle at *any* churn
//     for protocols transmitting at most once per node (Algorithm 1) — no
//     ordered pair is ever examined twice;
//   * exact equivalence at churn = 1 for every protocol (memoryless
//     per-round-resampled G(n,p));
//   * a modelled regime (churn < 1, repeated transmitters) where positive
//     pair persistence is tracked through the sketch and everything else
//     falls back to the Bernoulli marginal.
// These tests assert each claim at its proper strength: two-sample KS and
// chi-square checks (tests/sim/statistical_oracle.hpp) on completion
// round, total transmissions and the energy ledger for the exact regimes,
// a KS-plus-mean band for the modelled one, a direct persistence probe of
// the pair sketch and a closed-form check of its churn persistence law.
// All seeds are fixed; RADNET_STAT_TRIALS scales the resolution (ctest
// label: tier1_stat).
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/dynamics.hpp"
#include "harness/monte_carlo.hpp"
#include "sim/engine.hpp"
#include "statistical_oracle.hpp"
#include "test_protocols.hpp"

namespace radnet::sim {
namespace {

using core::BroadcastRandomParams;
using core::BroadcastRandomProtocol;
using core::GossipRandomParams;
using core::GossipRandomProtocol;
using harness::McResult;
using harness::McSpec;
using testing::chi_square_two_sample;
using testing::ks_two_sample;
using testing::stat_trials;

constexpr double kAlpha = 0.01;

using ProtocolFactory = std::function<std::unique_ptr<Protocol>()>;

McSpec base_spec(std::uint64_t seed, std::uint32_t trials,
                 const ProtocolFactory& factory, Round max_rounds) {
  McSpec spec;
  spec.trials = trials;
  spec.seed = seed;
  spec.make_protocol = [factory](const graph::Digraph&, std::uint32_t) {
    return factory();
  };
  spec.run_options.max_rounds = max_rounds;
  return spec;
}

/// Paired Monte-Carlo runs: the same root seed drives the implicit-dynamic
/// backend and the explicit ChurnGnp oracle.
struct PairedRuns {
  McResult implicit_dynamic;
  McResult explicit_churn;
};

PairedRuns run_paired(graph::NodeId n, double p, double churn,
                      std::uint64_t seed, std::uint32_t trials,
                      const ProtocolFactory& factory, Round max_rounds) {
  McSpec imp = base_spec(seed, trials, factory, max_rounds);
  sim::ImplicitDynamicGnp params;
  params.n = n;
  params.p = p;
  params.churn = churn;
  imp.implicit_dynamic = std::move(params);

  McSpec exp = base_spec(seed, trials, factory, max_rounds);
  exp.make_sequence = [n, p, churn](std::uint32_t, Rng rng) {
    return std::make_unique<graph::ChurnGnp>(n, p, churn, rng);
  };

  return {harness::run_monte_carlo(imp), harness::run_monte_carlo(exp)};
}

std::vector<double> deliveries_of(const McResult& r) {
  std::vector<double> v;
  v.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes) v.push_back(static_cast<double>(o.deliveries));
  return v;
}

std::vector<double> collisions_of(const McResult& r) {
  std::vector<double> v;
  v.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes)
    v.push_back(static_cast<double>(o.collisions));
  return v;
}

struct OracleCase {
  double churn;
  std::uint64_t seed;
};

class DynamicOracle : public ::testing::TestWithParam<OracleCase> {};

// Algorithm 1 transmits at most once per node, so implicit-dynamic is
// *exact* at every churn: completion round, total transmissions and the
// whole energy ledger must be indistinguishable from the explicit oracle.
TEST_P(DynamicOracle, Alg1ExactAtEveryChurn) {
  const auto c = GetParam();
  const graph::NodeId n = 192;
  const double p = 8.0 * std::log(n) / n;
  const std::uint32_t trials = stat_trials(32);

  // Both backends are censored at the same 96-round horizon (alg1
  // completes in ~20 rounds when it completes; the full passive-phase
  // budget would make every failed explicit trial pay ~250 O(n^2)
  // rebuilds for no extra information).
  const auto runs = run_paired(
      n, p, c.churn, c.seed, trials,
      [p] {
        return std::make_unique<BroadcastRandomProtocol>(
            BroadcastRandomParams{.p = p});
      },
      /*max_rounds=*/96);

  const auto& imp = runs.implicit_dynamic;
  const auto& exp = runs.explicit_churn;
  // The backends must agree on the success probability itself — the
  // operating point sits mid-distribution on purpose, so the rate carries
  // distributional information rather than saturating at 1.
  EXPECT_NEAR(imp.success_rate(), exp.success_rate(), 0.25);
  EXPECT_GE(imp.success_rate(), 0.4);
  EXPECT_GE(exp.success_rate(), 0.4);

  const auto ks_rounds = ks_two_sample(imp.rounds_sample().values(),
                                       exp.rounds_sample().values(), kAlpha);
  EXPECT_TRUE(ks_rounds.pass()) << ks_rounds.describe("completion rounds");

  const auto ks_tx = ks_two_sample(imp.total_tx_sample().values(),
                                   exp.total_tx_sample().values(), kAlpha);
  EXPECT_TRUE(ks_tx.pass()) << ks_tx.describe("total transmissions");

  const auto chi_del = chi_square_two_sample(deliveries_of(imp),
                                             deliveries_of(exp), 8, kAlpha);
  EXPECT_TRUE(chi_del.pass()) << chi_del.describe("ledger deliveries");

  const auto chi_col = chi_square_two_sample(collisions_of(imp),
                                             collisions_of(exp), 8, kAlpha);
  EXPECT_TRUE(chi_col.pass()) << chi_col.describe("ledger collisions");

  // Theorem 2.1's per-node bound must hold on both backends.
  EXPECT_LE(imp.max_tx_sample().max(), 1.0);
  EXPECT_LE(exp.max_tx_sample().max(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    ChurnBySeed, DynamicOracle,
    ::testing::Values(OracleCase{1.0, 0xA}, OracleCase{1.0, 0xB},
                      OracleCase{1.0, 0xC}, OracleCase{0.5, 0xA},
                      OracleCase{0.5, 0xB}, OracleCase{0.5, 0xC},
                      OracleCase{0.1, 0xA}, OracleCase{0.1, 0xB},
                      OracleCase{0.1, 0xC}));

// Gossip (Algorithm 2) transmits repeatedly. At churn = 1 the implicit
// backend is still exact (memoryless), so every ledger quantity must match
// the explicit per-round-resampled oracle.
TEST(DynamicGossipOracle, ChurnOneExactForRepeatedTransmitters) {
  const graph::NodeId n = 96;
  const double p = 8.0 * std::log(n) / n;
  const std::uint32_t trials = stat_trials(20);
  GossipRandomProtocol probe(GossipRandomParams{.p = p});
  probe.reset(n, Rng(0));

  for (const std::uint64_t seed : {0xAull, 0xBull, 0xCull}) {
    const auto runs = run_paired(
        n, p, /*churn=*/1.0, seed, trials,
        [p] {
          return std::make_unique<GossipRandomProtocol>(
              GossipRandomParams{.p = p});
        },
        probe.round_budget());
    const auto& imp = runs.implicit_dynamic;
    const auto& exp = runs.explicit_churn;
    ASSERT_EQ(imp.success_rate(), 1.0) << "seed " << seed;
    ASSERT_EQ(exp.success_rate(), 1.0) << "seed " << seed;

    const auto ks_rounds = ks_two_sample(imp.rounds_sample().values(),
                                         exp.rounds_sample().values(), kAlpha);
    EXPECT_TRUE(ks_rounds.pass())
        << ks_rounds.describe("gossip rounds, seed " + std::to_string(seed));
    const auto ks_del =
        ks_two_sample(deliveries_of(imp), deliveries_of(exp), kAlpha);
    EXPECT_TRUE(ks_del.pass())
        << ks_del.describe("gossip deliveries, seed " + std::to_string(seed));
    const auto chi_tx = chi_square_two_sample(
        imp.total_tx_sample().values(), exp.total_tx_sample().values(), 8,
        kAlpha);
    EXPECT_TRUE(chi_tx.pass())
        << chi_tx.describe("gossip transmissions, seed " +
                           std::to_string(seed));
  }
}

// Partial churn with repeated transmitters is the *modelled* regime: the
// sketch tracks positive pair persistence, negative resolutions fall back
// to the Bernoulli marginal. At gossip's operating point (re-examination
// gaps ~ d rounds) the residual bias is small; completion rounds must
// still pass KS against the oracle and the means must sit in a tight band.
TEST(DynamicGossipOracle, ModelledChurnCompletionStaysFaithful) {
  const graph::NodeId n = 96;
  const double p = 8.0 * std::log(n) / n;
  const std::uint32_t trials = stat_trials(20);
  GossipRandomProtocol probe(GossipRandomParams{.p = p});
  probe.reset(n, Rng(0));

  // Two seeds per churn here: the full churn x seed KS matrix already ran
  // in the exact-regime suite above; this band pins the modelled regime.
  for (const double churn : {0.5, 0.1}) {
    for (const std::uint64_t seed : {0xAull, 0xBull}) {
      const auto runs = run_paired(
          n, p, churn, seed, trials,
          [p] {
            return std::make_unique<GossipRandomProtocol>(
                GossipRandomParams{.p = p});
          },
          probe.round_budget());
      const auto& imp = runs.implicit_dynamic;
      const auto& exp = runs.explicit_churn;
      ASSERT_EQ(imp.success_rate(), 1.0) << "churn " << churn;
      ASSERT_EQ(exp.success_rate(), 1.0) << "churn " << churn;

      const auto ks_rounds = ks_two_sample(
          imp.rounds_sample().values(), exp.rounds_sample().values(), kAlpha);
      EXPECT_TRUE(ks_rounds.pass()) << ks_rounds.describe(
          "gossip rounds, churn " + std::to_string(churn) + ", seed " +
          std::to_string(seed));
      const double ratio =
          imp.rounds_sample().mean() / exp.rounds_sample().mean();
      EXPECT_GT(ratio, 0.85) << "churn " << churn << " seed " << seed;
      EXPECT_LT(ratio, 1.18) << "churn " << churn << " seed " << seed;
    }
  }
}

// Direct probe of the pair sketch: one node transmits every round into
// G(n, 0.5) pairs. With churn = 0.01 a pair that just delivered survives
// un-resampled with probability 0.99, so consecutive-round repeat
// deliveries dominate; with churn = 1 each round re-flips the coin. The
// repeat rate separates the two regimes by a wide margin — this is the
// behaviour no memoryless backend can produce.
TEST(DynamicSketch, PersistentPairsRepeatDeliveries) {
  const graph::NodeId n = 16;
  const Round rounds = 48;
  const auto repeat_rate = [&](double churn) {
    ImplicitDynamicGnp spec;
    spec.n = n;
    spec.p = 0.5;
    spec.churn = churn;
    spec.rng = Rng(1234);
    testing::ScriptedProtocol proto(
        std::vector<std::vector<graph::NodeId>>(rounds, {0}));
    Engine engine;
    RunOptions options;
    options.max_rounds = rounds;
    (void)engine.run(spec, proto, Rng(5678), options);
    // heard[r] = bitmask of listeners delivered to in round r (k = 1, so
    // every event is a delivery, never a collision).
    std::vector<std::uint32_t> heard(rounds, 0);
    for (const auto& d : proto.deliveries)
      heard[d.round] |= 1u << d.receiver;
    std::uint32_t repeats = 0, delivered = 0;
    for (Round r = 0; r + 1 < rounds; ++r) {
      delivered += static_cast<std::uint32_t>(__builtin_popcount(heard[r]));
      repeats += static_cast<std::uint32_t>(
          __builtin_popcount(heard[r] & heard[r + 1]));
    }
    EXPECT_GT(delivered, 0u);
    return static_cast<double>(repeats) / static_cast<double>(delivered);
  };
  EXPECT_GT(repeat_rate(0.01), 0.9);
  EXPECT_LT(repeat_rate(1.0), 0.7);
}

// Closed-form oracle for the churn persistence law of ChurnGnp: a pair seen
// present at round 0 and re-examined g rounds later is present with
// probability P = (1-c)^g + (1 - (1-c)^g)·p — it survives un-resampled with
// probability (1-c)^g and is a fresh Bernoulli(p) otherwise. A lone
// scripted sender (k = 1, so every hit is a clean delivery that identifies
// its pair) transmits at rounds 0 and g; among the listeners it reached at
// round 0, the share it reaches again at round g must match P within a
// binomial z-bound, pooled over seeds. n spans two listener blocks and the
// second block's listeners are tested on their own, so a non-first block's
// keyed sketch stream is checked against the law too.
TEST(DynamicSketch, PersistenceMatchesChurnLaw) {
  constexpr graph::NodeId kBlock = 1u << 16;
  const graph::NodeId n = kBlock + 4096;
  const double p = 0.05;
  const std::uint32_t seeds = stat_trials(16);
  struct Case {
    double churn;
    Round gap;
  };
  for (const Case c :
       {Case{0.5, 1}, Case{0.9, 2}, Case{0.2, 3}, Case{0.05, 8}}) {
    const double keep = std::pow(1.0 - c.churn, static_cast<double>(c.gap));
    const double expected = keep + (1.0 - keep) * p;
    std::uint64_t first[2] = {0, 0};  // listeners reached at round 0, per block
    std::uint64_t again[2] = {0, 0};  // ... and again at round gap
    for (std::uint32_t s = 0; s < seeds; ++s) {
      ImplicitDynamicGnp spec;
      spec.n = n;
      spec.p = p;
      spec.churn = c.churn;
      spec.rng = Rng(0x9E55 + s);
      std::vector<std::vector<graph::NodeId>> script(c.gap + 1);
      script.front() = {0};
      script.back() = {0};
      testing::ScriptedProtocol proto(std::move(script));
      Engine engine;
      RunOptions options;
      options.max_rounds = c.gap + 1;
      (void)engine.run(spec, proto, Rng(s), options);
      std::vector<char> reached(n, 0);
      for (const auto& d : proto.deliveries) {
        if (d.round == 0) {
          reached[d.receiver] = 1;
          ++first[d.receiver / kBlock];
        } else if (d.round == c.gap && reached[d.receiver] != 0) {
          ++again[d.receiver / kBlock];
        }
      }
    }
    for (int block = 0; block < 2; ++block) {
      ASSERT_GT(first[block], 0u) << "block " << block << " saw no delivery";
      const double trials = static_cast<double>(first[block]);
      const double z = (static_cast<double>(again[block]) - trials * expected) /
                       std::sqrt(trials * expected * (1.0 - expected));
      EXPECT_LT(std::abs(z), 4.0)
          << "churn " << c.churn << ", gap " << c.gap << ", block " << block
          << ": " << again[block] << " of " << first[block]
          << " re-delivered, expected P = " << expected;
    }
  }
}

// Node failures: a dead radio neither delivers nor hears. At fail_prob
// high enough that most of the network dies within the round budget,
// broadcast must fail honestly; with no failures it succeeds.
TEST(DynamicFailures, FailedRadiosSilenceTheNetwork) {
  const graph::NodeId n = 256;
  const double p = 8.0 * std::log(n) / n;
  const auto success = [&](double fail_prob) {
    ImplicitDynamicGnp spec;
    spec.n = n;
    spec.p = p;
    spec.churn = 1.0;
    spec.fail_prob = fail_prob;
    // Seed re-pinned for the counter-keyed streams (PR 3): at n = 256 the
    // zero-failure completion probability is only ~50%, so the pin picks a
    // seed whose clean run completes.
    spec.rng = Rng(35);
    BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
    proto.reset(n, Rng(0));
    const Round budget = proto.round_budget();
    Engine engine;
    RunOptions options;
    options.max_rounds = budget;
    return engine.run(spec, proto, Rng(36), options).completed;
  };
  EXPECT_TRUE(success(0.0));
  EXPECT_FALSE(success(0.5));  // half the radios die every round
}

// Density schedules: rounds whose p(t) is zero can deliver nothing (at
// churn = 1 there are no persisted pairs), so a schedule that shuts the
// density off after round 4 yields exactly the deliveries of a run
// truncated at round 5.
TEST(DynamicSchedule, ZeroDensityRoundsDeliverNothing) {
  const graph::NodeId n = 128;
  const double p = 8.0 * std::log(n) / n;
  const auto run = [&](Round max_rounds, bool scheduled) {
    ImplicitDynamicGnp spec;
    spec.n = n;
    spec.p = p;
    spec.churn = 1.0;
    if (scheduled)
      spec.p_of_round = [p](Round r) { return r < 5 ? p : 0.0; };
    spec.rng = Rng(7);
    core::GossipRumorMarginalProtocol proto(
        core::GossipRumorMarginalParams{.p = p});
    Engine engine;
    RunOptions options;
    options.max_rounds = max_rounds;
    return engine.run(spec, proto, Rng(8), options);
  };
  const auto scheduled = run(60, true);
  const auto truncated = run(5, false);
  EXPECT_EQ(scheduled.ledger.total_deliveries,
            truncated.ledger.total_deliveries);
  EXPECT_EQ(scheduled.ledger.total_collisions,
            truncated.ledger.total_collisions);
  EXPECT_FALSE(scheduled.completed);
}

// The dynamic backend is a pure function of its spec: identical specs
// (sketch, failures and all) must replay bit-identically, traces included.
TEST(DynamicReproducibility, IdenticalSpecsReplayIdentically) {
  ImplicitDynamicGnp spec;
  spec.n = 192;
  spec.p = 0.06;
  spec.churn = 0.3;
  spec.fail_prob = 0.002;
  spec.rng = Rng(91);
  const auto run_once = [&] {
    GossipRandomProtocol proto(GossipRandomParams{.p = 0.06});
    Engine engine;
    RunOptions options;
    options.max_rounds = 400;
    options.record_trace = true;
    return engine.run(spec, proto, Rng(92), options);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.ledger, b.ledger);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.completion_round, b.completion_round);
}

}  // namespace
}  // namespace radnet::sim
