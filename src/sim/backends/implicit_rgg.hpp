// The implicit mobility-RGG backend: random-walk mobility over a random
// geometric graph, with the graph never materialised. This is the
// graph-free counterpart of graph::MobilityRgg — the same process law (n
// devices uniform in the unit square, an independent uniform step of
// length at most `step` per round reflected at the borders, symmetric
// links within `radius`) — realised as O(n) position state plus a
// per-round cell grid instead of an O(m) edge list rebuilt every round.
//
// Exactness contract: *exact in distribution for every protocol.* Unlike
// the G(n,p) sampling backends, delivery here involves no randomness at
// all — given the round's positions, listener v hears transmitter t iff
// their distance is within `radius`, deterministically — so the only
// random state is the motion process itself, which this backend simulates
// faithfully (same initial law, same per-round step law as
// graph::MobilityRgg). There is no repeated-transmitter caveat and no
// modelled regime: a run differs from the explicit oracle only in *which*
// uniforms the motion draws consume (counter-keyed streams here,
// one sequential stream there), i.e. bit-level, never in law.
// tests/sim/rgg_topology_equivalence_test.cpp pins this with KS checks
// against the explicit MobilityRgg oracle and with a brute-force
// O(n·k) geometry cross-check of single rounds.
//
// Cell-grid delivery: positions bucket into a square grid of side >=
// `radius` (cells_ per axis, capped so the grid never exceeds O(n)
// cells). A listener's potential transmitters all lie in its own cell or
// the 8 surrounding ones. Each round lays the k transmitters out as a
// cell-ordered CSR: cell_start_ (grid + 1 prefix offsets, row-major cell
// order) over one AoS entry array {x, y, id}, each cell's entries in
// transmitter-list order. Row-major cells (y, x0..x1) are contiguous in
// that layout, so a listener's 3x3 neighbourhood is three contiguous row
// ranges rather than nine cell segments. One round costs
//   O(n)                 movement (2 uniforms per node)
// + O(k + cells)         cell map (parallel), one serial counting sort,
//                        entry gather (parallel), near flags
// + O(n + sum over listeners near transmitters of their three row
//                        ranges' lengths, early-exiting at the second
//                        hit — a collision needs no exact count)
// with zero graph memory: state is 16 B per node (positions) plus O(cells)
// grid scratch and 24 B per transmitter. Listeners whose 3x3 neighbourhood
// holds no transmitter are rejected with a single byte load.
//
// StreamKey keying scheme (support/rng.hpp): the backend's root key forks
// one lane per round — round r's movement draws come from
// key.fork(r).fork(block) — plus the reserved kInitLane (>= 2^32, so it
// can never collide with a round counter) for the initial placement. A
// node's step is therefore a pure function of (spec seed, round, block),
// never of thread schedule or draw order, so the sharded movement sweep
// is bit-identical at any thread count. The delivery sweep draws no
// randomness at all and shards over the same fixed kShardBlockSize
// listener blocks, emitted through the ShardBuffer/merge machinery of
// sim/sharding.hpp: blocks run in any order, buffers merge serially in
// ascending listener order, and the engine sink observes exactly the
// event sequence a serial sweep would have produced (the block-merge
// ordering invariant). The bucketing's parallel steps are pure maps (cell
// of each transmitter, coordinates of each slot) and its one order-bearing
// step, the counting sort, is serial, so the layout the sweep reads is
// the same at any thread count (the bucketing oracle test checks it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "sim/sharding.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {

/// Parameters of an implicit (never materialised) mobility RGG: n devices
/// in the unit square, uniform step of length at most `step` per round
/// (reflected at the borders), symmetric links within `radius` — the same
/// model as graph::MobilityRgg, graph-free. `rng` is the private motion
/// randomness; a run consumes a copy, so the same spec replays identically.
struct ImplicitRgg {
  NodeId n = 0;
  double radius = 0.0;
  double step = 0.0;
  Rng rng{};
};

/// The implicit mobility-RGG backend. See the file comment for the model,
/// the exactness contract and the cell-grid round cost.
class ImplicitRggTopology {
 public:
  /// Listeners (and movers) per shard block. Fixed — part of the motion
  /// randomness contract: results depend on the block decomposition,
  /// never on thread count. Also the transmitters per chunk of the
  /// bucketing's parallel maps, where the width is not observable.
  static constexpr NodeId kShardBlockSize = detail::kShardBlockSize;

  /// Reserved fork counter for the initial placement draws. Round
  /// counters stay below 2^32, so this lane can never collide with a
  /// round's movement key.
  static constexpr std::uint64_t kInitLane = 0x1'0000'0003ull;

  /// One bucketed transmitter: its position inlined next to its id, so the
  /// sweep reads one contiguous run per neighbourhood row instead of
  /// random-accessing the n-sized positions array.
  struct TxEntry {
    double x;
    double y;
    NodeId id;
  };

  explicit ImplicitRggTopology(const ImplicitRgg& spec)
      : n_(spec.n), radius_(spec.radius), step_(spec.step) {
    RADNET_REQUIRE(spec.n >= 1, "implicit RGG needs n >= 1");
    RADNET_REQUIRE(spec.radius > 0.0 && spec.radius <= 1.5,
                   "radius must be in (0, 1.5]");
    RADNET_REQUIRE(spec.step >= 0.0 && spec.step <= 1.0,
                   "step must be in [0,1]");
    key_ = StreamKey::from_rng(spec.rng);
    r2_ = radius_ * radius_;
    // Cell side >= radius keeps the 3x3 neighbourhood sufficient; the cap
    // keeps grid scratch O(n) even for radii far below the connectivity
    // threshold (larger cells are still correct, just scan more pairs).
    const auto from_radius = static_cast<std::uint64_t>(1.0 / radius_);
    const auto cap = static_cast<std::uint64_t>(
        std::ceil(std::sqrt(2.0 * static_cast<double>(n_))));
    cells_ = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, std::min(from_radius, std::max<std::uint64_t>(1, cap))));
    cell_size_ = 1.0 / static_cast<double>(cells_);
    const std::size_t grid = static_cast<std::size_t>(cells_) * cells_;
    cell_start_.assign(grid + 1, 0);
    near_.assign(grid, 0);
    pts_.resize(n_);
    init_positions();
  }

  [[nodiscard]] NodeId num_nodes() const { return n_; }

  /// The current round's positions (for tests and geometry oracles); valid
  /// after begin_round(r) for round r.
  [[nodiscard]] const std::vector<graph::Point>& positions() const {
    return pts_;
  }

  /// Serial blocks when null (the default); sharded movement, transmitter
  /// bucketing and delivery sweeps on `pool` otherwise. Either way the
  /// output is bit-identical.
  void set_parallelism(ThreadPool* pool) { pool_ = pool; }

  // --- bucketing introspection (for the oracle test and diagnostics) ----

  /// Runs just the bucketing phase for the current round's positions.
  void bucket_for_test(std::span<const NodeId> transmitters) {
    bucket_transmitters(transmitters);
  }
  [[nodiscard]] std::uint32_t grid_cells() const { return cells_; }
  [[nodiscard]] std::uint32_t cell_of(NodeId v) const {
    return cell_index(pts_[v]);
  }
  /// The transmitters bucketed into `cell`, in transmitter-list order (the
  /// order the sweep enumerates hits in); empty for unoccupied cells.
  [[nodiscard]] std::span<const TxEntry> cell_entries(
      std::uint32_t cell) const {
    return {entries_.data() + cell_start_[cell],
            cell_start_[cell + 1] - cell_start_[cell]};
  }
  /// Whether the sweep would consider `cell`'s listeners at all this
  /// round (some transmitter occupies its 3x3 neighbourhood).
  [[nodiscard]] bool cell_near(std::uint32_t cell) const {
    return near_[cell] != 0;
  }
  /// Whether this round's sweep runs the prefetch lookahead: only when
  /// k * 8 >= cells. Below that almost every listener is rejected by its
  /// near flag, and the lookahead's offset prefetches cost more than the
  /// stalls they hide. Measured at n = 2^20, degree 16, one thread: the
  /// plain scan wins at k * 8 / cells <= 0.32 (~1.8x at k = 16), the two
  /// are even at 0.64, and the lookahead wins from 1.29 up (~1.2x at 5
  /// to 20).
  [[nodiscard]] bool sweep_prefetches() const {
    return entries_.size() * 8 >= near_.size();
  }

  /// Advances the motion process to round `round` (non-decreasing, the
  /// engine's access pattern). Round 0 is the initial placement; each
  /// later round applies one reflected uniform step per node, drawn from
  /// that round's counter-keyed streams.
  void begin_round(std::uint32_t round) {
    RADNET_REQUIRE(round >= cur_round_,
                   "implicit RGG must be accessed with non-decreasing rounds");
    while (cur_round_ < round) {
      ++cur_round_;
      move_step(cur_round_);
    }
  }

  template <class Sink>
  void deliver(std::span<const NodeId> transmitters,
               const std::vector<char>& is_tx, bool half_duplex,
               DeliveryPath /*path*/,
               const std::optional<std::span<const NodeId>>& attentive,
               bool collisions_inert, Sink& sink) {
    if (transmitters.empty()) return;
    bucket_transmitters(transmitters);

    const detail::AttentiveFlags* inert_deliveries = nullptr;
    if (attentive.has_value()) {
      att_flags_.set_round(n_, *attentive);
      inert_deliveries = &att_flags_;
    }

    const std::uint64_t blocks = detail::block_count(n_, kShardBlockSize);
    const auto run_block = [&](std::uint64_t b, auto& em) {
      const NodeId lo = static_cast<NodeId>(b * kShardBlockSize);
      const NodeId hi = static_cast<NodeId>(std::min<std::uint64_t>(
          n_, (b + 1) * static_cast<std::uint64_t>(kShardBlockSize)));
      sweep_block(lo, hi, is_tx, half_duplex, em);
    };
    if (pool_ != nullptr && blocks > 1) {
      if (buffers_.size() < blocks) buffers_.resize(blocks);
      const auto run_buffered = [&](std::uint64_t b) {
        detail::ShardBuffer& buf = buffers_[b];
        buf.clear();
        detail::BufferEmitter em{buf, /*want_records=*/false,
                                 collisions_inert, inert_deliveries};
        run_block(b, em);
      };
      // A single captured reference keeps the pool's std::function in its
      // inline storage: no per-round heap allocation.
      pool_->parallel_for_index(
          blocks, [&run_buffered](std::uint64_t b) { run_buffered(b); });
      detail::merge_shard_buffers(
          std::span<const detail::ShardBuffer>(buffers_.data(), blocks), sink,
          detail::RecordNone{});
    } else {
      detail::RecordNone none;
      detail::DirectEmitter<Sink, detail::RecordNone> em{
          sink, none, collisions_inert, inert_deliveries};
      for (std::uint64_t b = 0; b < blocks; ++b) {
        run_block(b, em);
        em.flush_block();
      }
    }

    if (attentive.has_value()) att_flags_.clear_round(*attentive);
  }

 private:
  /// Grid column (or row) of coordinate `v`.
  [[nodiscard]] std::uint32_t cell_coord(double v) const {
    return std::min(static_cast<std::uint32_t>(v / cell_size_), cells_ - 1);
  }

  [[nodiscard]] std::uint32_t cell_index(const graph::Point& pt) const {
    return cell_coord(pt.y) * cells_ + cell_coord(pt.x);
  }

  /// Initial placement: uniform in the unit square, drawn per block from
  /// the reserved init lane so the placement (like every later step) is a
  /// pure function of (spec seed, block).
  void init_positions() {
    const StreamKey init_key = key_.fork(kInitLane);
    for_each_block([&](std::uint64_t b, NodeId lo, NodeId hi) {
      Rng rng = init_key.fork(b).make_rng();
      for (NodeId v = lo; v < hi; ++v)
        pts_[v] = graph::Point{rng.next_double(), rng.next_double()};
    });
  }

  /// One motion round: the same reflected uniform step law as
  /// graph::MobilityRgg::move_step, drawn from (round, block)-keyed
  /// streams. Blocks write disjoint position ranges, so the parallel
  /// schedule is race-free and (being counter-keyed) bit-identical to the
  /// serial one.
  void move_step(std::uint32_t round) {
    if (step_ <= 0.0) return;  // parked devices: topology is static
    const StreamKey round_key = key_.fork(round);
    for_each_block([&](std::uint64_t b, NodeId lo, NodeId hi) {
      Rng rng = round_key.fork(b).make_rng();
      for (NodeId v = lo; v < hi; ++v) {
        graph::Point& pt = pts_[v];
        pt.x += rng.uniform_real(-step_, step_);
        pt.y += rng.uniform_real(-step_, step_);
        if (pt.x < 0.0) pt.x = -pt.x;
        if (pt.x > 1.0) pt.x = 2.0 - pt.x;
        if (pt.y < 0.0) pt.y = -pt.y;
        if (pt.y > 1.0) pt.y = 2.0 - pt.y;
        pt.x = std::clamp(pt.x, 0.0, 1.0);
        pt.y = std::clamp(pt.y, 0.0, 1.0);
      }
    });
  }

  template <class Body>
  void for_each_block(Body&& body) {
    const std::uint64_t blocks = detail::block_count(n_, kShardBlockSize);
    const auto run = [&](std::uint64_t b) {
      const NodeId lo = static_cast<NodeId>(b * kShardBlockSize);
      const NodeId hi = static_cast<NodeId>(std::min<std::uint64_t>(
          n_, (b + 1) * static_cast<std::uint64_t>(kShardBlockSize)));
      body(b, lo, hi);
    };
    if (pool_ != nullptr && blocks > 1)
      pool_->parallel_for_index(blocks, run);
    else
      for (std::uint64_t b = 0; b < blocks; ++b) run(b);
  }

  /// Lays the round's k transmitters out as the cell-ordered CSR the sweep
  /// reads (file comment), in four steps:
  ///   1. cell map (parallel, kShardBlockSize transmitters per chunk):
  ///      tx_cell_[i] = cell of transmitter i;
  ///   2. one serial counting sort over the whole grid: counts, inclusive
  ///      prefix, then a reverse scatter of ids through decrementing
  ///      cursors — stable in transmitter-list order, and each cursor ends
  ///      on its cell's start, which leaves cell_start_ in place;
  ///   3. entry gather (parallel): each slot's coordinates from pts_;
  ///   4. near flags, O(cells), from the prefix array.
  /// Steps 1 and 3 are pure maps and step 2 is serial, so the layout is
  /// identical at any thread count. Nothing needs undoing afterwards: the
  /// next round rebuilds every array from scratch.
  void bucket_transmitters(std::span<const NodeId> transmitters) {
    round_tx_ = transmitters;
    const std::size_t k = transmitters.size();
    tx_cell_.resize(k);
    entries_.resize(k);
    const std::uint64_t chunks = detail::block_count(k, kShardBlockSize);
    detail::run_chunked(pool_, chunks, [this](std::uint64_t c) {
      const std::size_t lo = c * kShardBlockSize;
      const std::size_t hi = std::min<std::size_t>(round_tx_.size(),
                                                   lo + kShardBlockSize);
      for (std::size_t i = lo; i < hi; ++i)
        tx_cell_[i] = cell_index(pts_[round_tx_[i]]);
    });

    const std::size_t grid = near_.size();
    std::fill(cell_start_.begin(), cell_start_.end(), 0u);
    for (const std::uint32_t cell : tx_cell_) ++cell_start_[cell];
    std::uint32_t end = 0;
    for (std::size_t cell = 0; cell < grid; ++cell) {
      end += cell_start_[cell];
      cell_start_[cell] = end;
    }
    cell_start_[grid] = end;
    for (std::size_t i = k; i-- > 0;)
      entries_[--cell_start_[tx_cell_[i]]].id = transmitters[i];

    detail::run_chunked(pool_, chunks, [this](std::uint64_t c) {
      const std::size_t lo = c * kShardBlockSize;
      const std::size_t hi =
          std::min<std::size_t>(entries_.size(), lo + kShardBlockSize);
      for (std::size_t s = lo; s < hi; ++s) {
        const graph::Point& pt = pts_[entries_[s].id];
        entries_[s].x = pt.x;
        entries_[s].y = pt.y;
      }
    });

    mark_near_cells();
  }

  /// near_[c] = 1 iff some transmitter lies in c's 3x3 neighbourhood.
  /// Cells [x0, x1) of a row hold a transmitter iff the row's prefix
  /// offsets at x0 and x1 differ, so each cell takes three such tests
  /// (rows y-1, y, y+1; a border row stands in for its missing
  /// neighbour, which is harmless under OR).
  void mark_near_cells() {
    const std::uint32_t dim = cells_;
    const std::uint32_t last = dim - 1;
    const auto row = [&](std::uint32_t y) {
      return cell_start_.data() + static_cast<std::size_t>(y) * dim;
    };
    for (std::uint32_t y = 0; y < dim; ++y) {
      const std::uint32_t* a = row(y > 0 ? y - 1 : 0);
      const std::uint32_t* b = row(y);
      const std::uint32_t* c = row(std::min(y + 1, last));
      unsigned char* out = near_.data() + static_cast<std::size_t>(y) * dim;
      const auto occupied = [&](std::uint32_t x0, std::uint32_t x1) {
        return (a[x1] != a[x0]) | (b[x1] != b[x0]) | (c[x1] != c[x0]);
      };
      // Interior cells read [x-1, x+2) with no clamps, so this loop
      // vectorises; the two border columns clamp.
      for (std::uint32_t x = 1; x + 1 < dim; ++x)
        out[x] = static_cast<unsigned char>(occupied(x - 1, x + 2));
      out[0] = static_cast<unsigned char>(occupied(0, std::min(2u, dim)));
      if (dim > 1)
        out[last] = static_cast<unsigned char>(occupied(last - 1, dim));
    }
  }

  /// Software-prefetch lookahead of the sweep, in listeners: listener
  /// v + kAhead's near flag and neighbourhood row offsets are requested
  /// while v is scanned, and listener v + kAhead / 2's first row entries
  /// (its offsets have arrived by then). Listener positions are random, so
  /// without it every listener stalls on the offset load and then again on
  /// the entry load. Dense rounds only (sweep_prefetches()).
  static constexpr NodeId kAhead = 16;

  /// One listener block of the delivery sweep: for each listener able to
  /// hear, count transmitters within `radius` over its three neighbourhood
  /// row ranges, early-exiting at the second hit (a collision needs no
  /// exact count). Hits are enumerated row by row, each row in cell order
  /// and each cell in transmitter-list order. Purely deterministic
  /// geometry — no RNG — so block outputs are independent of schedule by
  /// construction.
  template <class Emitter>
  void sweep_block(NodeId lo, NodeId hi, const std::vector<char>& is_tx,
                   bool half_duplex, Emitter& em) const {
    const std::uint32_t last = cells_ - 1;
    const TxEntry* entries = entries_.data();
    const std::uint32_t* starts = cell_start_.data();
    // The first cell (x - 1) of neighbourhood row y + dy, clamped into the
    // grid: prefetch addresses only need to be valid.
    const auto grid_last = static_cast<std::int64_t>(near_.size()) - 1;
    const std::int64_t row_step = cells_;
    const auto row_cell = [&](std::uint32_t cell, std::int64_t dy) {
      return static_cast<std::size_t>(std::clamp<std::int64_t>(
          static_cast<std::int64_t>(cell) + dy * row_step - 1, 0, grid_last));
    };
    // Cell coordinates of listener u at u % kAhead, computed once in the
    // lookahead and read back by the scan.
    std::uint32_t ahead_x[kAhead];
    std::uint32_t ahead_y[kAhead];
    const auto prefetch = [&](NodeId u) {
      const std::uint32_t cx = cell_coord(pts_[u].x);
      const std::uint32_t cy = cell_coord(pts_[u].y);
      ahead_x[u % kAhead] = cx;
      ahead_y[u % kAhead] = cy;
      const std::uint32_t cell = cy * cells_ + cx;
      __builtin_prefetch(near_.data() + cell);
      for (std::int64_t dy = -1; dy <= 1; ++dy)
        __builtin_prefetch(starts + row_cell(cell, dy));
      if (u < lo + kAhead / 2) return;
      const NodeId w = (u - kAhead / 2) % kAhead;
      const std::uint32_t w_cell = ahead_y[w] * cells_ + ahead_x[w];
      if (near_[w_cell] == 0) return;
      for (std::int64_t dy = -1; dy <= 1; ++dy)
        __builtin_prefetch(entries + starts[row_cell(w_cell, dy)]);
    };
    const bool lookahead = sweep_prefetches();
    if (lookahead)
      for (NodeId u = lo; u < std::min<NodeId>(hi, lo + kAhead); ++u)
        prefetch(u);

    for (NodeId v = lo; v < hi; ++v) {
      std::uint32_t cx, cy;
      if (lookahead) {
        cx = ahead_x[v % kAhead];
        cy = ahead_y[v % kAhead];
        if (hi - v > kAhead) prefetch(v + kAhead);
      } else {
        cx = cell_coord(pts_[v].x);
        cy = cell_coord(pts_[v].y);
      }
      if (half_duplex && is_tx[v]) continue;  // its own radio is busy
      if (near_[cy * cells_ + cx] == 0) continue;  // no transmitter in reach
      const graph::Point pv = pts_[v];
      const std::uint32_t x0 = cx > 0 ? cx - 1 : 0;
      const std::uint32_t x1 = std::min(cx + 1, last) + 1;
      const std::uint32_t y1 = std::min(cy + 1, last);
      std::uint32_t hits = 0;
      NodeId sender = 0;
      for (std::uint32_t y = cy > 0 ? cy - 1 : 0; y <= y1 && hits < 2; ++y) {
        const std::uint32_t* row = starts + y * cells_;
        const TxEntry* const end = entries + row[x1];
        for (const TxEntry* e = entries + row[x0]; e != end; ++e) {
          if (e->id == v) continue;
          const double dx = pv.x - e->x;
          const double dy = pv.y - e->y;
          if (dx * dx + dy * dy > r2_) continue;
          sender = e->id;
          if (++hits == 2) break;
        }
      }
      if (hits == 1)
        em.on_deliver(v, sender);
      else if (hits == 2)
        em.on_collide(v);
    }
  }

  NodeId n_ = 0;
  double radius_ = 0.0;
  double step_ = 0.0;
  double r2_ = 0.0;
  std::uint32_t cells_ = 1;   ///< grid cells per axis
  double cell_size_ = 1.0;    ///< 1 / cells_, always >= radius (or capped)
  StreamKey key_;             ///< motion randomness root (from the spec's rng)
  std::uint32_t cur_round_ = 0;
  ThreadPool* pool_ = nullptr;

  std::vector<graph::Point> pts_;          ///< current positions, 16 B/node
  std::span<const NodeId> round_tx_;       ///< the bucketed transmitters
  std::vector<std::uint32_t> tx_cell_;     ///< cell of round_tx_[i]
  std::vector<std::uint32_t> cell_start_;  ///< CSR offsets, grid + 1
  std::vector<TxEntry> entries_;           ///< transmitters in cell order
  std::vector<unsigned char> near_;        ///< 1 iff 3x3 holds a transmitter
  detail::AttentiveFlags att_flags_;          ///< swept rounds' attentive mask
  std::vector<detail::ShardBuffer> buffers_;  ///< per-block scratch, reused
};

}  // namespace radnet::sim
