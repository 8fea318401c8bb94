// Allocation-bound regression for the sharded per-round phases.
//
// The dynamic backend's per-listener-block sketch pass
// (implicit_dynamic.hpp) and the implicit RGG rounds (implicit_rgg.hpp)
// keep all per-(round, block/chunk) scratch in reusable member buffers,
// and their pool fan-out lambdas capture a single pointer (`this` or one
// reference) so the std::function handed to
// ThreadPool::parallel_for_index stays in its inline storage. The
// consequence pinned here: once warmed up, steady-state rounds perform
// *zero* heap allocations, with a live multi-block decomposition on the
// real global pool. The global operator new below counts every allocation
// in the process (worker threads included), so a regression anywhere in
// the phase machinery — a by-value capture that spills std::function to
// the heap, per-round scratch reconstruction, a merge buffer rebuilt per
// call, a node-allocating sketch insert — fails loudly.
//
// Scenario notes. Both dynamic runs span three listener blocks (the last
// one partial), so the sketch pass and the sweep genuinely fan out. A
// sampling warm-up fills the sketch to capacity. The first test then drops
// the density schedule to p = 0: delivery skips the sampling sweep and
// runs only the sketch pass over the live sketch (tracking stays on, draws
// still consumed). The second keeps sampling with a rotating transmitter
// set, so every counted round resolves pairs, drops negatives and
// refills the freed slots from the sweep's records — the record-insert
// path under a full sketch. The RGG runs drive whole rounds (motion and
// delivery) over three listener blocks; see the test for its two regimes.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "support/thread_pool.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Out-of-line on purpose: with the free() visible at the delete site, GCC
// pairs it against the replaced operator new and emits
// -Wmismatched-new-delete (the pairing is fine — every new below is
// malloc-family — but the warning is not suppressible per-pair).
[[gnu::noinline]] void counted_free(void* ptr) { std::free(ptr); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto al = static_cast<std::size_t>(align);
  const std::size_t padded = (size + al - 1) / al * al;
  if (void* ptr = std::aligned_alloc(al, padded == 0 ? al : padded))
    return ptr;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}

namespace radnet::sim {
namespace {

struct CountSink {
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t bulk = 0;

  void deliver(graph::NodeId, graph::NodeId) { ++deliveries; }
  void collide(graph::NodeId) { ++collisions; }
  void deliver_bulk(std::uint64_t count) { bulk += count; }
  void collide_bulk(std::uint64_t count) { bulk += count; }
};

/// A churned dynamic backend over three listener blocks (2^16, 2^16 and a
/// partial 8'928) on the global pool, driven round by round with one of
/// two transmitter sets (every 4th node, offset 0 or 2). Density kP0 holds
/// for the first `sampling_rounds` rounds and `p_after` from then on.
class DynamicRounds {
 public:
  static constexpr graph::NodeId kN = 140'000;
  static constexpr std::uint32_t kCapacity = 16384;
  static constexpr double kP0 = 1.5 / (kN / 4);  // k·p = 1.5: dense sweep

  DynamicRounds(std::uint32_t sampling_rounds, double p_after)
      : topo_(make_spec(sampling_rounds, p_after)), is_tx_(kN, 0) {
    topo_.set_parallelism(resolve_pool(0));
    for (int set = 0; set < 2; ++set)
      for (graph::NodeId v = 2 * set; v < kN; v += 4) tx_[set].push_back(v);
  }

  void run(std::uint32_t round) {
    const std::vector<graph::NodeId>& tx = tx_[round % 2];
    for (const graph::NodeId t : tx) is_tx_[t] = 1;
    topo_.begin_round(round);
    topo_.deliver({tx.data(), tx.size()}, is_tx_, /*half_duplex=*/false,
                  DeliveryPath::kAuto, std::nullopt,
                  /*collisions_inert=*/false, sink_);
    for (const graph::NodeId t : tx) is_tx_[t] = 0;
  }

  [[nodiscard]] std::size_t sketch_size() const { return topo_.sketch_size(); }
  [[nodiscard]] std::uint64_t deliveries() const { return sink_.deliveries; }

 private:
  static ImplicitDynamicGnp make_spec(std::uint32_t sampling_rounds,
                                      double p_after) {
    ImplicitDynamicGnp spec;
    spec.n = kN;
    spec.p = kP0;
    spec.churn = 0.05;  // slow decay: the sketch stays live for the window
    spec.sketch_capacity = kCapacity;
    spec.rng = Rng(0x5C4A7C4);
    spec.p_of_round = [sampling_rounds, p_after](std::uint32_t round) {
      return round < sampling_rounds ? kP0 : p_after;
    };
    return spec;
  }

  ImplicitDynamicGnpTopology topo_;
  std::vector<char> is_tx_;
  std::vector<graph::NodeId> tx_[2];
  CountSink sink_;
};

TEST(ShardScratch, DynamicSketchPassSteadyStateAllocFree) {
  constexpr std::uint32_t kSamplingRounds = 16;
  DynamicRounds rounds(kSamplingRounds, /*p_after=*/0.0);
  // Warm up: fill the sketch, then let four p = 0 rounds high-water the
  // per-block scratch under the counted regime's workload shape.
  for (std::uint32_t round = 0; round < kSamplingRounds + 4; ++round)
    rounds.run(round);
  ASSERT_GT(rounds.sketch_size(), 4096u)
      << "warm-up failed to populate the sketch; the counted rounds would "
         "not exercise the sketch pass";

  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t round = kSamplingRounds + 4; round < kSamplingRounds + 12;
       ++round)
    rounds.run(round);
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "steady-state sketch-pass rounds allocated " << during
      << " times; per-(round, block) scratch is being rebuilt";
  EXPECT_GT(rounds.sketch_size(), 1024u);  // the pass still had real work
  EXPECT_GT(rounds.deliveries(), 0u);
}

TEST(ShardScratch, DynamicSamplingRoundsWithFullSketchAllocFree) {
  // Sampling throughout: every round resolves the sketched pairs of its
  // transmitters, drops the negatives, and the sweep's records refill the
  // freed slots (the sketch is full, so the record hook both inserts and
  // forgets).
  DynamicRounds rounds(/*sampling_rounds=*/0, DynamicRounds::kP0);
  for (std::uint32_t round = 0; round < 16; ++round) rounds.run(round);
  ASSERT_EQ(rounds.sketch_size(), DynamicRounds::kCapacity)
      << "warm-up failed to fill the sketch";

  const std::uint64_t delivered_before = rounds.deliveries();
  bool stayed_full = true;
  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t round = 16; round < 24; ++round) {
    rounds.run(round);
    stayed_full =
        stayed_full && rounds.sketch_size() == DynamicRounds::kCapacity;
  }
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "steady-state sampling rounds allocated " << during
      << " times; the record insert or per-block scratch allocates";
  EXPECT_TRUE(stayed_full) << "the counted rounds did not refill the sketch";
  EXPECT_GT(rounds.deliveries(), delivered_before);
}

TEST(ShardScratch, RggBucketingSteadyStateAllocFree) {
  // Whole rounds — begin_round (motion) plus deliver (cell map, counting
  // sort, gather, near flags, pooled sweep, merge) — over three listener
  // blocks on the global pool, alternating two transmitter sets of equal
  // size. Two regimes:
  //   * moving devices, deliveries and collisions folded into bulk counts
  //     (empty attentive hint, inert collisions), so every counted round
  //     does fresh geometry while the block buffers stay empty;
  //   * parked devices (step = 0) with every event buffered: the per-block
  //     event counts then repeat exactly, so the warm-up reaches every
  //     buffer's high-water mark and the counted rounds exercise the
  //     buffered merge.
  const graph::NodeId n = 140'000;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  for (const bool moving : {true, false}) {
    ImplicitRggTopology topo(
        ImplicitRgg{n, radius, moving ? radius / 8.0 : 0.0, Rng(0xB0C5C)});
    topo.set_parallelism(resolve_pool(0));
    std::vector<graph::NodeId> tx_sets[2];
    std::vector<char> is_tx(n, 0);
    for (graph::NodeId v = 0; v < n; v += 16) {
      tx_sets[0].push_back(v);
      tx_sets[1].push_back(v + 8);
    }
    const std::vector<graph::NodeId> no_one;
    const auto attentive =
        moving ? std::optional<std::span<const graph::NodeId>>(
                     std::span<const graph::NodeId>(no_one))
               : std::nullopt;
    CountSink sink;
    const auto run = [&](std::uint32_t round) {
      topo.begin_round(round);
      const std::vector<graph::NodeId>& tx = tx_sets[round % 2];
      for (const graph::NodeId t : tx) is_tx[t] = 1;
      topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/true,
                   DeliveryPath::kAuto, attentive,
                   /*collisions_inert=*/moving, sink);
      for (const graph::NodeId t : tx) is_tx[t] = 0;
    };

    for (std::uint32_t round = 0; round < 4; ++round) run(round);
    const CountSink warm = sink;
    const std::uint64_t before = g_allocations.load();
    for (std::uint32_t round = 4; round < 12; ++round) run(round);
    const std::uint64_t during = g_allocations.load() - before;

    EXPECT_EQ(during, 0u)
        << "steady-state RGG rounds (moving " << moving << ") allocated "
        << during << " times; per-round scratch is being rebuilt";
    // The counted rounds did real work.
    if (moving) {
      EXPECT_GT(sink.bulk, warm.bulk);
    } else {
      EXPECT_GT(sink.deliveries, warm.deliveries);
      EXPECT_GT(sink.collisions, warm.collisions);
    }
  }
}

}  // namespace
}  // namespace radnet::sim
