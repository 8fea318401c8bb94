// Allocation-bound regression for the sharded per-round phases.
//
// The dynamic backend's per-listener-block sketch pass
// (implicit_dynamic.hpp) and the sharded RGG transmitter bucketing
// (implicit_rgg.hpp) keep all per-(round, block/chunk) scratch in reusable
// member buffers, and their pool fan-out lambdas capture a single pointer
// (`this` or one reference) so the std::function handed to
// ThreadPool::parallel_for_index stays in its inline storage. The consequence pinned here: once warmed up, steady-state
// rounds perform *zero* heap allocations, with a live multi-block
// decomposition on the real global pool. The global operator new below
// counts every allocation in the process (worker threads included), so a
// regression anywhere in the phase machinery — a by-value capture that
// spills std::function to the heap, per-round scratch reconstruction, a
// merge buffer rebuilt per call, a node-allocating sketch insert — fails
// loudly.
//
// Scenario notes. Both dynamic runs span three listener blocks (the last
// one partial), so the sketch pass and the sweep genuinely fan out. A
// sampling warm-up fills the sketch to capacity. The first test then drops
// the density schedule to p = 0: delivery skips the sampling sweep and
// runs only the sketch pass over the live sketch (tracking stays on, draws
// still consumed). The second keeps sampling with a rotating transmitter
// set, so every counted round resolves pairs, drops negatives and
// refills the freed slots from the sweep's records — the record-insert
// path under a full sketch. The RGG run parks the motion process
// (step = 0) and drives just the bucketing phase through its test hook —
// the counted work is the parallel counting sort plus the cell-ordered
// merge and scatter, nothing else.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
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
  const graph::NodeId n = 8192;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  // step = 0 parks the motion process: identical occupancy every round, so
  // every scratch buffer's high-water mark is hit on the first pass.
  ImplicitRggTopology topo(ImplicitRgg{n, radius, 0.0, Rng(0xB0C5C)});
  topo.begin_round(0);
  topo.set_parallelism(resolve_pool(0));
  topo.set_bucket_chunk(512);  // 8 chunks over k = 4096 transmitters

  std::vector<graph::NodeId> tx;
  for (graph::NodeId v = 0; v < n; v += 2) tx.push_back(v);

  for (int warm = 0; warm < 2; ++warm) {
    topo.bucket_for_test({tx.data(), tx.size()});
    topo.unbucket_for_test();
  }

  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 8; ++round) {
    topo.bucket_for_test({tx.data(), tx.size()});
    topo.unbucket_for_test();
  }
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "steady-state bucketing rounds allocated " << during
      << " times; per-chunk scratch is being rebuilt";

  // The counted work was real: bucket once more and check the grid.
  topo.bucket_for_test({tx.data(), tx.size()});
  std::uint64_t bucketed = 0;
  const std::uint32_t dim = topo.grid_cells();
  for (std::uint32_t cell = 0; cell < dim * dim; ++cell)
    bucketed += topo.cell_entries(cell).size();
  EXPECT_EQ(bucketed, tx.size());
  topo.unbucket_for_test();
  topo.set_bucket_chunk(0);
}

}  // namespace
}  // namespace radnet::sim
