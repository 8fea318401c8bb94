// Implicit mobility-RGG vs explicit MobilityRgg equivalence.
//
// The ImplicitRggTopology backend (sim/backends/implicit_rgg.hpp) claims
// to be the explicit graph::MobilityRgg process *exactly, in distribution,
// for every protocol*: delivery is deterministic geometry given the
// round's positions, and the motion process (uniform placement, reflected
// uniform steps) follows the same law — only the stream layout of the
// motion draws differs (counter-keyed vs sequential), so runs pair
// distributionally, never bit-for-bit. Pinned here at two strengths:
//
//   * exactly: a brute-force O(n·k) geometry oracle recomputes single
//     rounds from the backend's own positions and must match the cell-grid
//     sweep event-for-event (both duplex modes, with and without the
//     attentive hint);
//   * statistically: paired Monte-Carlo runs against the explicit
//     MobilityRgg oracle — repeated-transmitter gossip (the regime where
//     the G(n,p) sampling backends are merely *modelled*) and Algorithm-1
//     broadcast — with two-sample KS / chi-square checks on completion
//     rounds, transmissions and the energy ledger at 3 seeds each.
//
// Seeds are fixed; RADNET_STAT_TRIALS scales the resolution (ctest label
// tier1_stat). Thread-count bit-identity of the backend lives in
// tests/sim/thread_invariance_test.cpp.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/dynamics.hpp"
#include "graph/generators.hpp"
#include "harness/monte_carlo.hpp"
#include "sim/engine.hpp"
#include "statistical_oracle.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {
namespace {

using core::BroadcastRandomParams;
using core::BroadcastRandomProtocol;
using core::GossipRumorMarginalParams;
using core::GossipRumorMarginalProtocol;
using harness::McResult;
using harness::McSpec;
using testing::chi_square_two_sample;
using testing::ks_two_sample;
using testing::stat_trials;

constexpr double kAlpha = 0.01;

using ProtocolFactory = std::function<std::unique_ptr<Protocol>()>;

/// Paired Monte-Carlo runs: the same root seed drives the implicit RGG
/// backend and the explicit MobilityRgg oracle.
struct PairedRuns {
  McResult implicit_rgg;
  McResult explicit_rgg;
};

PairedRuns run_paired(graph::NodeId n, double radius, double step,
                      std::uint64_t seed, std::uint32_t trials,
                      const ProtocolFactory& factory, Round max_rounds) {
  McSpec base;
  base.trials = trials;
  base.seed = seed;
  base.make_protocol = [factory](const graph::Digraph&, std::uint32_t) {
    return factory();
  };
  base.run_options.max_rounds = max_rounds;

  McSpec imp = base;
  imp.implicit_rgg = ImplicitRgg{n, radius, step, Rng{}};

  McSpec exp = base;
  exp.make_sequence = [n, radius, step](std::uint32_t, Rng rng) {
    return std::make_unique<graph::MobilityRgg>(n, radius, step, rng);
  };

  return {harness::run_monte_carlo(imp), harness::run_monte_carlo(exp)};
}

std::vector<double> deliveries_of(const McResult& r) {
  std::vector<double> v;
  v.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes)
    v.push_back(static_cast<double>(o.deliveries));
  return v;
}

std::vector<double> collisions_of(const McResult& r) {
  std::vector<double> v;
  v.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes)
    v.push_back(static_cast<double>(o.collisions));
  return v;
}

// ---------------------------------------------------------------------------
// Exact single-round oracle: recompute the cell-grid sweep by brute force.

struct CollectSink {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> deliveries;
  std::vector<graph::NodeId> collisions;
  std::uint64_t bulk_deliveries = 0;
  std::uint64_t bulk_collisions = 0;

  void deliver(graph::NodeId receiver, graph::NodeId sender) {
    deliveries.emplace_back(receiver, sender);
  }
  void collide(graph::NodeId receiver) { collisions.push_back(receiver); }
  void deliver_bulk(std::uint64_t count) { bulk_deliveries += count; }
  void collide_bulk(std::uint64_t count) { bulk_collisions += count; }
};

/// The backend's claim, computed the slow way: listener v hears exactly
/// the transmitters at distance <= radius (excluding itself; excluded
/// entirely when transmitting under half-duplex).
CollectSink brute_force_round(const ImplicitRggTopology& topo, double radius,
                              std::span<const graph::NodeId> transmitters,
                              const std::vector<char>& is_tx,
                              bool half_duplex) {
  CollectSink expected;
  const auto& pts = topo.positions();
  const double r2 = radius * radius;
  for (graph::NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (half_duplex && is_tx[v]) continue;
    std::uint32_t hits = 0;
    graph::NodeId sender = 0;
    for (const graph::NodeId t : transmitters) {
      if (t == v) continue;
      const double dx = pts[v].x - pts[t].x;
      const double dy = pts[v].y - pts[t].y;
      if (dx * dx + dy * dy > r2) continue;
      sender = t;
      ++hits;
    }
    if (hits == 1)
      expected.deliveries.emplace_back(v, sender);
    else if (hits >= 2)
      expected.collisions.push_back(v);
  }
  return expected;
}

/// Rounds of a brute-force case swept with and without the prefetch
/// lookahead (ImplicitRggTopology::sweep_prefetches).
struct SweepSides {
  std::uint32_t lookahead = 0;
  std::uint32_t plain = 0;
};

/// Runs `rounds` rounds of the cell-grid sweep against the brute-force
/// oracle, in both duplex modes. `tx_of(round, topo)` picks the round's
/// transmitters; `pool` (null = serial blocks) drives the sharded path.
/// `sides` counts the rounds swept with and without the lookahead.
template <class TxOf>
void expect_sweep_matches_brute_force(graph::NodeId n, double radius,
                                      double step, std::uint64_t seed,
                                      std::uint32_t rounds, ThreadPool* pool,
                                      const TxOf& tx_of, SweepSides& sides) {
  for (const bool half_duplex : {true, false}) {
    ImplicitRggTopology topo(ImplicitRgg{n, radius, step, Rng(seed)});
    topo.set_parallelism(pool);
    std::vector<char> is_tx(n, 0);
    std::uint64_t deliveries = 0, collisions = 0;
    for (std::uint32_t round = 0; round < rounds; ++round) {
      topo.begin_round(round);
      const std::vector<graph::NodeId> tx = tx_of(round, topo);
      for (const graph::NodeId t : tx) is_tx[t] = 1;

      CollectSink got;
      topo.deliver({tx.data(), tx.size()}, is_tx, half_duplex,
                   DeliveryPath::kAuto, std::nullopt,
                   /*collisions_inert=*/false, got);
      ++(topo.sweep_prefetches() ? sides.lookahead : sides.plain);
      const CollectSink expected = brute_force_round(
          topo, radius, {tx.data(), tx.size()}, is_tx, half_duplex);
      ASSERT_EQ(got.deliveries, expected.deliveries)
          << "n " << n << " cells " << topo.grid_cells() << " round "
          << round << " half_duplex " << half_duplex;
      ASSERT_EQ(got.collisions, expected.collisions)
          << "n " << n << " cells " << topo.grid_cells() << " round "
          << round << " half_duplex " << half_duplex;
      EXPECT_EQ(got.bulk_deliveries, 0u);
      EXPECT_EQ(got.bulk_collisions, 0u);
      deliveries += expected.deliveries.size();
      collisions += expected.collisions.size();

      for (const graph::NodeId t : tx) is_tx[t] = 0;
    }
    // The case must exercise both outcomes somewhere.
    EXPECT_GT(deliveries, 0u) << "n " << n << " half_duplex " << half_duplex;
    EXPECT_GT(collisions, 0u) << "n " << n << " half_duplex " << half_duplex;
  }
}

/// A deterministic transmitter set that varies per round: every
/// (stride + round % 11)-th id from offset round % 5. Adjacent ids are
/// geometrically unrelated, but cell collisions among transmitters are
/// what the early exit must handle.
std::vector<graph::NodeId> strided_tx(graph::NodeId n, std::uint32_t round,
                                      graph::NodeId stride) {
  std::vector<graph::NodeId> tx;
  for (graph::NodeId v = round % 5; v < n; v += stride + (round % 11))
    tx.push_back(v);
  return tx;
}

TEST(ImplicitRggGeometry, CellGridSweepMatchesBruteForce) {
  SweepSides all;
  // One block, serial: the original small case.
  {
    const graph::NodeId n = 700;
    const double radius = graph::rgg_threshold_radius(n, 4.0);
    expect_sweep_matches_brute_force(
        n, radius, radius / 6.0, 0x9e0, 24, nullptr,
        [n](std::uint32_t round, const ImplicitRggTopology&) {
          return strided_tx(n, round, 3);
        },
        all);
  }
  // Two listener blocks, the last one partial, on the pool: the block
  // ends of the sharded sweep, on both sides of the lookahead threshold.
  // Even rounds are dense (mean degree 64 with k ~ n/32 keeps ~2
  // transmitters in reach of a listener, so deliveries and collisions
  // both occur) and run the lookahead; odd rounds (k ~ n/1024) are sparse
  // and run the plain scan.
  {
    const graph::NodeId n = 70'000;
    const double radius =
        std::sqrt(64.0 / (3.14159265358979 * static_cast<double>(n)));
    SweepSides sides;
    expect_sweep_matches_brute_force(
        n, radius, radius / 6.0, 0x70a, 4, resolve_pool(0),
        [n](std::uint32_t round, const ImplicitRggTopology&) {
          return strided_tx(n, round, round % 2 == 0 ? 32 : 1024);
        },
        sides);
    EXPECT_EQ(sides.lookahead, 4u);
    EXPECT_EQ(sides.plain, 4u);
    all.lookahead += sides.lookahead;
    all.plain += sides.plain;
  }
  // Degenerate grids: one cell (radius >= 1), where every row range is the
  // whole grid, and two cells per axis, where every neighbourhood row
  // range is clamped on one side.
  for (const double radius : {1.0, 1.3, 0.4}) {
    const graph::NodeId n = 300;
    expect_sweep_matches_brute_force(
        n, radius, 0.05, 0x1ce11, 6, nullptr,
        [n](std::uint32_t round, const ImplicitRggTopology&) {
          // 1, 3 or 5 transmitters: in a grid this coarse a listener
          // hears most of them, so small sets are what yields deliveries.
          const graph::NodeId count = 1 + 2 * (round % 3);
          std::vector<graph::NodeId> tx;
          for (graph::NodeId j = 0; j < count; ++j)
            tx.push_back(round + j * (n / count));
          return tx;
        },
        all);
  }
  // A capped grid: radius far below 1/ceil(sqrt(2n)), so the cell count
  // comes from the O(n) cap, not the radius. Every node in a border row
  // or column transmits (plus a sparse interior set), so the row-range
  // clamps at all four edges carry hits.
  {
    const graph::NodeId n = 700;
    const double radius = 0.02;
    expect_sweep_matches_brute_force(
        n, radius, radius / 4.0, 0xcab, 6, nullptr,
        [n](std::uint32_t round, const ImplicitRggTopology& topo) {
          const std::uint32_t dim = topo.grid_cells();
          EXPECT_EQ(dim, static_cast<std::uint32_t>(std::ceil(
                             std::sqrt(2.0 * static_cast<double>(n)))));
          std::vector<graph::NodeId> tx;
          for (graph::NodeId v = 0; v < n; ++v) {
            const std::uint32_t cell = topo.cell_of(v);
            const std::uint32_t cx = cell % dim, cy = cell / dim;
            const bool border =
                cx == 0 || cy == 0 || cx == dim - 1 || cy == dim - 1;
            if (border || (v + round) % 9 == 0) tx.push_back(v);
          }
          return tx;
        },
        all);
  }
  EXPECT_GT(all.lookahead, 0u);
  EXPECT_GT(all.plain, 0u);
}

TEST(ImplicitRggGeometry, AttentiveHintFoldsExactly) {
  // With an attentive hint, deliveries outside the hint fold into bulk
  // counts (and collisions into bulk when inert) — the per-event stream
  // restricted to the hint plus the bulk totals must reproduce the
  // unhinted round exactly.
  const graph::NodeId n = 600;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  ImplicitRggTopology topo(ImplicitRgg{n, radius, radius / 8.0, Rng(0x7a1)});
  std::vector<char> is_tx(n, 0);
  std::vector<graph::NodeId> tx;
  for (graph::NodeId v = 0; v < n; v += 7) tx.push_back(v);
  for (const graph::NodeId t : tx) is_tx[t] = 1;
  std::vector<graph::NodeId> attentive;  // every third node is attentive
  for (graph::NodeId v = 0; v < n; v += 3) attentive.push_back(v);
  std::vector<char> is_attentive(n, 0);
  for (const graph::NodeId v : attentive) is_attentive[v] = 1;

  topo.begin_round(0);
  CollectSink full;
  topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/true,
               DeliveryPath::kAuto, std::nullopt, false, full);

  CollectSink hinted;
  topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/true,
               DeliveryPath::kAuto,
               std::optional<std::span<const graph::NodeId>>(
                   {attentive.data(), attentive.size()}),
               /*collisions_inert=*/true, hinted);

  std::vector<std::pair<graph::NodeId, graph::NodeId>> expected_events;
  std::uint64_t expected_bulk = 0;
  for (const auto& [recv, sender] : full.deliveries) {
    if (is_attentive[recv])
      expected_events.emplace_back(recv, sender);
    else
      ++expected_bulk;
  }
  EXPECT_EQ(hinted.deliveries, expected_events);
  EXPECT_EQ(hinted.bulk_deliveries, expected_bulk);
  EXPECT_TRUE(hinted.collisions.empty());
  EXPECT_EQ(hinted.bulk_collisions, full.collisions.size());
}

TEST(ImplicitRggGeometry, MotionStaysInUnitSquareAndParksAtStepZero) {
  const graph::NodeId n = 256;
  ImplicitRggTopology moving(ImplicitRgg{n, 0.2, 0.15, Rng(3)});
  moving.begin_round(50);
  for (const auto& pt : moving.positions()) {
    EXPECT_GE(pt.x, 0.0);
    EXPECT_LE(pt.x, 1.0);
    EXPECT_GE(pt.y, 0.0);
    EXPECT_LE(pt.y, 1.0);
  }

  ImplicitRggTopology parked(ImplicitRgg{n, 0.2, 0.0, Rng(3)});
  const std::vector<graph::Point> initial = parked.positions();
  parked.begin_round(50);
  for (graph::NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(parked.positions()[v].x, initial[v].x);
    EXPECT_EQ(parked.positions()[v].y, initial[v].y);
  }
}

TEST(ImplicitRggGeometry, SameSpecReplaysIdentically) {
  const graph::NodeId n = 4096;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  const double p = 3.14159265358979 * radius * radius;
  const auto run_once = [&] {
    Engine engine;
    RunOptions options;
    options.max_rounds = 512;
    options.record_trace = true;
    GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = p});
    return engine.run(ImplicitRgg{n, radius, radius / 8.0, Rng(0xabc)}, proto,
                      Rng(5), options);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// Bucketing oracle: the cell-ordered CSR vs a first-principles counting sort.

TEST(ImplicitRggGeometry, ShardedBucketingMatchesSerialCountingSort) {
  // The bucketing maps transmitters to cells and gathers coordinates in
  // parallel around one serial counting sort. The contract it must keep
  // for the sweep to stay byte-identical: every cell's entry list equals
  // the serial counting sort's — the transmitters of that cell *in
  // transmitter-list order*, at their current positions — and a cell's
  // near flag is set iff some transmitter lies in its 3x3 neighbourhood.
  // Checked on both schedules; n is large enough that a dense round spans
  // several transmitter chunks, so the pooled map and gather really fan
  // out.
  const graph::NodeId n = 140'000;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  ImplicitRggTopology topo(ImplicitRgg{n, radius, radius / 5.0, Rng(0xB0CC)});
  const std::uint32_t dim = topo.grid_cells();
  const std::size_t grid = static_cast<std::size_t>(dim) * dim;
  const auto& pts = topo.positions();

  for (std::uint32_t round = 0; round < 4; ++round) {
    topo.begin_round(round);
    // Transmitter sets from sparse (k = 3) through dense (k = n) — dense
    // rounds put many transmitters in every cell.
    std::vector<graph::NodeId> tx;
    const graph::NodeId stride = round == 0 ? n / 3 : (round == 1 ? 17 : 1);
    for (graph::NodeId v = round % 3; v < n; v += stride) tx.push_back(v);
    const auto k = static_cast<graph::NodeId>(tx.size());

    // The serial counting sort, from first principles.
    std::vector<std::vector<graph::NodeId>> expected(grid);
    for (const graph::NodeId t : tx) expected[topo.cell_of(t)].push_back(t);
    std::vector<char> near(grid, 0);
    for (std::size_t cell = 0; cell < grid; ++cell) {
      if (expected[cell].empty()) continue;
      const auto cx = static_cast<std::int64_t>(cell % dim);
      const auto cy = static_cast<std::int64_t>(cell / dim);
      for (std::int64_t dy = -1; dy <= 1; ++dy)
        for (std::int64_t dx = -1; dx <= 1; ++dx) {
          const std::int64_t nx = cx + dx, ny = cy + dy;
          if (nx < 0 || ny < 0 || nx >= dim || ny >= dim) continue;
          near[static_cast<std::size_t>(ny) * dim + nx] = 1;
        }
    }

    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), resolve_pool(0)}) {
      topo.set_parallelism(pool);
      topo.bucket_for_test({tx.data(), tx.size()});
      for (std::size_t cell = 0; cell < grid; ++cell) {
        const auto got = topo.cell_entries(static_cast<std::uint32_t>(cell));
        ASSERT_EQ(got.size(), expected[cell].size())
            << "round " << round << " k " << k << " pool "
            << (pool != nullptr) << " cell " << cell;
        for (std::size_t i = 0; i < got.size(); ++i) {
          const graph::NodeId t = expected[cell][i];
          ASSERT_EQ(got[i].id, t) << "round " << round << " k " << k
                                  << " pool " << (pool != nullptr)
                                  << " cell " << cell << " entry " << i;
          ASSERT_EQ(got[i].x, pts[t].x);
          ASSERT_EQ(got[i].y, pts[t].y);
        }
        ASSERT_EQ(topo.cell_near(static_cast<std::uint32_t>(cell)),
                  near[cell] != 0)
            << "round " << round << " k " << k << " pool "
            << (pool != nullptr) << " cell " << cell;
      }
    }
    topo.set_parallelism(nullptr);
  }
}

// ---------------------------------------------------------------------------
// Statistical oracle: paired runs against the explicit MobilityRgg.

class RggOracle : public ::testing::TestWithParam<std::uint64_t> {};

// Repeated-transmitter gossip — the regime where the G(n,p) sampling
// backends are merely *modelled* — must be indistinguishable from the
// explicit oracle here: the RGG backend's delivery is deterministic
// geometry, so there is no repeated-examination caveat at all.
TEST_P(RggOracle, GossipMarginalExactForRepeatedTransmitters) {
  const std::uint64_t seed = GetParam();
  const graph::NodeId n = 256;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  const double step = radius / 8.0;
  const double p = 3.14159265358979 * radius * radius;  // d = pi r^2 n
  const std::uint32_t trials = stat_trials(24);
  GossipRumorMarginalProtocol probe(GossipRumorMarginalParams{.p = p});
  probe.reset(n, Rng(0));

  const auto runs = run_paired(
      n, radius, step, seed, trials,
      [p] {
        return std::make_unique<GossipRumorMarginalProtocol>(
            GossipRumorMarginalParams{.p = p});
      },
      probe.round_budget());
  const auto& imp = runs.implicit_rgg;
  const auto& exp = runs.explicit_rgg;
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
  const auto chi_tx = chi_square_two_sample(imp.total_tx_sample().values(),
                                            exp.total_tx_sample().values(), 8,
                                            kAlpha);
  EXPECT_TRUE(chi_tx.pass())
      << chi_tx.describe("gossip transmissions, seed " + std::to_string(seed));
  const auto chi_col =
      chi_square_two_sample(collisions_of(imp), collisions_of(exp), 8, kAlpha);
  EXPECT_TRUE(chi_col.pass())
      << chi_col.describe("gossip collisions, seed " + std::to_string(seed));
}

// Algorithm 1 on a mobile RGG: the protocol is tuned for G(n,p), so
// success sits mid-distribution — both backends must agree on the success
// probability and on the ledger distributions (success itself carries the
// distributional information here; no floor is asserted).
TEST_P(RggOracle, Alg1LedgerMatchesExplicitOracle) {
  const std::uint64_t seed = GetParam();
  const graph::NodeId n = 256;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  const double step = radius / 8.0;
  const double p = 3.14159265358979 * radius * radius;
  const std::uint32_t trials = stat_trials(24);

  const auto runs = run_paired(
      n, radius, step, seed, trials,
      [p] {
        return std::make_unique<BroadcastRandomProtocol>(
            BroadcastRandomParams{.p = p});
      },
      // Both backends censor at the same horizon (alg1 completes within
      // ~60 rounds when it completes; failed trials pay the full budget on
      // the explicit oracle's O(n + m) rebuilds, so keep it tight).
      /*max_rounds=*/160);
  const auto& imp = runs.implicit_rgg;
  const auto& exp = runs.explicit_rgg;
  EXPECT_NEAR(imp.success_rate(), exp.success_rate(), 0.3);

  const auto ks_del =
      ks_two_sample(deliveries_of(imp), deliveries_of(exp), kAlpha);
  EXPECT_TRUE(ks_del.pass())
      << ks_del.describe("alg1 deliveries, seed " + std::to_string(seed));
  const auto ks_tx = ks_two_sample(imp.total_tx_sample().values(),
                                   exp.total_tx_sample().values(), kAlpha);
  EXPECT_TRUE(ks_tx.pass())
      << ks_tx.describe("alg1 transmissions, seed " + std::to_string(seed));
  // Theorem 2.1's at-most-one-transmission property is topology-free and
  // must hold on both backends.
  EXPECT_LE(imp.max_tx_sample().max(), 1.0);
  EXPECT_LE(exp.max_tx_sample().max(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(BySeed, RggOracle,
                         ::testing::Values(0xAull, 0xBull, 0xCull));

}  // namespace
}  // namespace radnet::sim
