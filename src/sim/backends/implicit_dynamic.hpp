// The implicit *dynamic* G(n,p) backend: extends the sampling family of
// backends/implicit.hpp to the full dynamic model set of
// graph/dynamics.hpp — per-round link churn on a stationary G(n,p) (churn
// in (0,1]), permanent node failures, and density schedules p(t) (mobility
// read as density change) — without ever materialising a graph. Pair
// states are tracked *lazily*: only pairs whose state was individually
// resolved — a clean delivery identifies its (sender, listener) pair; the
// sparse path enumerates every present pair it touches — enter a bounded
// listener-block sketch; everything else stays at its exact Bernoulli(p)
// marginal. On re-examination after g rounds a sketched pair keeps its
// recorded state with probability (1 - churn)^g (the probability no
// re-sample hit it) and is re-drawn fresh otherwise — exactly the ChurnGnp
// process for tracked pairs.
//
// Exactness contract of the implicit G(n,p) family (see the README
// backend matrix and exactness table for the family-wide picture):
//   - fixed G(n,p), protocols transmitting at most once per node
//     (Algorithm 1): exact, at *any* churn — no ordered pair is ever
//     examined twice, and under churn the first examination of a pair is
//     still Bernoulli(p) by stationarity.
//   - churn = 1 (memoryless per-round re-sampled G(n,p)) and p(t)
//     schedules at churn = 1: exact for every protocol; this is what the
//     static ImplicitGnpTopology simulates for repeated transmitters.
//   - node failures: exact (independent per-node Bernoulli per round).
//   - churn < 1 with repeated transmitters (gossip, Algorithm 3):
//     *modelled* — positive pair persistence is tracked through the
//     sketch, but negatively-resolved pairs and the unidentified members
//     of collisions fall back to the fresh Bernoulli(p) marginal, so the
//     process sits between the true churn-rho graph and the churn = 1
//     limit. tests/sim/dynamic_topology_equivalence_test.cpp pins the
//     exact regimes against the explicit ChurnGnp oracle statistically
//     and bands the modelled regime.
//
// Parallelism: every phase shards into the counter-keyed listener blocks of
// the shared sampler (detail::kShardBlockSize). The round sweeps and the
// failure injection do so as in backends/implicit.hpp; the pair sketch is
// partitioned by the same blocks — block b owns the flat entry list of the
// present pairs whose listener lies in b, capped at its share of
// sketch_capacity. One task per block streams its entries once per round,
// compacting them in place: stale entries are recycled, the pairs of this
// round's transmitters are resolved (persistence draw), negative outcomes
// dropped, and the block's pinned listeners sorted and classified. Every
// draw of block b comes from churn_key.fork(round).fork(b), and the blocks'
// pinned events concatenate in block (= ascending listener) order, so
// results are bit-identical at any thread count (the serial schedule runs
// the same blocks inline). The record hook is a flat append to the
// listener's block; there is no hash map and no cross-block state.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/backends/implicit.hpp"
#include "sim/sharding.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {

/// Parameters of the implicit *dynamic* G(n,p) family: per-round link churn
/// with persistence, permanent node failures, and density schedules p(t).
/// The graph is never materialised; memory is O(sketch_capacity) at worst.
/// See the file comment for which regimes are exact vs modelled.
struct ImplicitDynamicGnp {
  NodeId n = 0;
  /// Stationary edge probability (fresh pair draws use the round's p).
  double p = 0.0;
  /// Fraction of ordered-pair states re-sampled per round, in (0, 1].
  /// churn = 1 is the memoryless per-round-resampled G(n,p) of
  /// graph/dynamics.hpp; churn < 1 persists pair states between rounds,
  /// tracked lazily through the pair sketch.
  double churn = 1.0;
  /// Per-node, per-round probability of permanent radio failure. A failed
  /// node neither delivers nor hears from its failure round on; its
  /// transmit attempts still spend ledger energy (the node cannot know its
  /// radio died). Must be in [0, 1). Note the honest consequence: goals of
  /// the form "every node informed" become unreachable once any uninformed
  /// node fails, so run failure scenarios with a fixed horizon (or read
  /// the incompletion as the result, as the failure-injection tests do).
  double fail_prob = 0.0;
  /// Optional density schedule: the edge probability in force during round
  /// r is clamp(p_of_round(r), 0, 1). Empty means constant p. Models
  /// mobility as density change (devices drifting apart / together);
  /// exact at churn = 1, modelled otherwise.
  std::function<double(std::uint32_t)> p_of_round;
  /// Bound on the pair-state sketch, in entries (12 B each), split over the
  /// listener blocks in proportion to their listener counts. When a block's
  /// share is full, new positive resolutions for its listeners are
  /// forgotten instead of tracked (modelled fallback); stale entries are
  /// recycled every round.
  std::uint32_t sketch_capacity = 1u << 22;
  /// Root of the backend's private randomness, split into the sub-streams
  /// below; a run consumes a copy, so the same spec replays identically.
  Rng rng{};

  /// Sub-stream derivation constants. The backend draws edge/classification
  /// randomness from rng.split(kEdgeStream), sketch persistence draws from
  /// rng.split(kChurnStream) and failure draws from rng.split(kFailStream),
  /// so the three consumers can never interleave-collide with each other or
  /// with the harness's (seed, trial, phase) streams — audited by
  /// tests/support/rng_test.cpp.
  static constexpr std::uint64_t kEdgeStream = 0xed6eull;
  static constexpr std::uint64_t kChurnStream = 0xc4a7ull;
  static constexpr std::uint64_t kFailStream = 0xfa11ull;
};

/// The implicit *dynamic* G(n,p) backend: link churn with lazy pair-state
/// tracking, permanent node failures and density schedules, all without
/// ever materialising a graph. See the file comment for the model and the
/// exact-vs-modelled regimes; statistically pinned against the explicit
/// ChurnGnp oracle by tests/sim/dynamic_topology_equivalence_test.cpp.
class ImplicitDynamicGnpTopology {
 public:
  explicit ImplicitDynamicGnpTopology(const ImplicitDynamicGnp& spec)
      : churn_(spec.churn),
        fail_prob_(spec.fail_prob),
        p_of_round_(spec.p_of_round) {
    RADNET_REQUIRE(spec.churn > 0.0 && spec.churn <= 1.0,
                   "churn must be in (0, 1]");
    RADNET_REQUIRE(spec.fail_prob >= 0.0 && spec.fail_prob < 1.0,
                   "fail_prob must be in [0, 1)");
    sampler_.init(spec.n, spec.p, spec.rng.split(ImplicitDynamicGnp::kEdgeStream));
    churn_key_ =
        StreamKey::from_rng(spec.rng.split(ImplicitDynamicGnp::kChurnStream));
    fail_key_ =
        StreamKey::from_rng(spec.rng.split(ImplicitDynamicGnp::kFailStream));
    // At churn = 1 nothing is tracked: the record hook is a no-op, so the
    // sharded sweeps need not buffer resolved pairs.
    sampler_.set_records_enabled(churn_ < 1.0);
    if (churn_ < 1.0) {
      log1m_churn_ = std::log1p(-churn_);
      // Beyond the horizon a pair survives un-resampled with probability
      // < 1e-12: its recorded state is numerically indistinguishable from
      // a fresh Bernoulli(p), so the entry can be recycled.
      horizon_ = static_cast<std::uint64_t>(
          std::ceil(std::log(1e-12) / log1m_churn_));
      // Block b's share of the capacity is proportional to its listener
      // count; the shares sum to sketch_capacity exactly.
      const std::uint64_t n = spec.n;
      const std::uint64_t cap = spec.sketch_capacity;
      sketch_.resize(detail::block_count(n, detail::kShardBlockSize));
      for (std::uint64_t b = 0; b < sketch_.size(); ++b) {
        const std::uint64_t lo = b * detail::kShardBlockSize;
        const std::uint64_t hi =
            std::min<std::uint64_t>(n, lo + detail::kShardBlockSize);
        sketch_[b].cap = cap * hi / n - cap * lo / n;
      }
      marks_.assign(spec.n, 0);
    }
    if (fail_prob_ > 0.0) {
      inv_log1m_fail_ = 1.0 / std::log1p(-fail_prob_);
      failed_.assign(spec.n, 0);
    }
  }

  [[nodiscard]] NodeId num_nodes() const { return sampler_.n(); }

  /// Number of live pair-state sketch entries (for tests / diagnostics).
  [[nodiscard]] std::size_t sketch_size() const {
    std::size_t size = 0;
    for (const SketchBlock& blk : sketch_) size += blk.entries.size();
    return size;
  }

  /// Number of permanently failed nodes so far.
  [[nodiscard]] NodeId failed_count() const { return failed_count_; }

  /// Accepted for the sharded sweep, the failure injection and the
  /// per-block sketch pass; serial when null. Either way the output is
  /// bit-identical — every phase is block-decomposed and counter-keyed the
  /// same way regardless.
  void set_parallelism(ThreadPool* pool) {
    pool_ = pool;
    sampler_.set_parallelism(pool);
  }

  void begin_round(std::uint32_t round) {
    round_ = round;
    sampler_.begin_round(round);
    // The sketch and failure streams are keyed per (round, block) at phase
    // time: every draw this round is a pure function of (spec seed, round,
    // block), never of how many draws earlier rounds consumed.
    if (p_of_round_)
      sampler_.set_p(std::clamp(p_of_round_(round), 0.0, 1.0));
    if (fail_prob_ > 0.0) draw_failures();
  }

  template <class Sink>
  void deliver(std::span<const NodeId> transmitters,
               const std::vector<char>& is_tx, bool half_duplex,
               DeliveryPath /*path*/,
               const std::optional<std::span<const NodeId>>& attentive,
               bool collisions_inert, Sink& sink) {
    // Dead radios transmit into the void: filter them out of the round.
    std::span<const NodeId> tx = transmitters;
    if (failed_count_ > 0) {
      live_tx_.clear();
      for (const NodeId u : transmitters)
        if (!failed_[u]) live_tx_.push_back(u);
      tx = {live_tx_.data(), live_tx_.size()};
    }
    const std::uint64_t k = tx.size();
    if (k == 0) return;
    const bool sampling = sampler_.p() > 0.0;
    const bool tracking = churn_ < 1.0;
    const bool pinning = tracking && sketch_size() > 0;
    if (!sampling && !pinning) return;

    // Phase 1: resolve every sketched pair whose sender transmits — these
    // listeners ("pinned") have conditioned, non-exchangeable hit laws and
    // are classified individually, block by block.
    std::uint64_t pinned_nontx = 0, pinned_tx = 0;
    pinned_events_.clear();
    if (pinning) {
      phase_ = {tx, &is_tx, half_duplex, churn_key_.fork(round_), {}};
      for (std::uint64_t m = 0; m < kProbsMemo && m <= k; ++m)
        phase_.probs[m] = sampler_.outcome_probs_for(k - m);
      detail::run_chunked(pool_, sketch_.size(),
                          [this](std::uint64_t b) { resolve_block(b); });
      for (const SketchBlock& blk : sketch_) {
        pinned_nontx += blk.nontx;
        pinned_tx += blk.tx;
        pinned_events_.insert(pinned_events_.end(), blk.events.begin(),
                              blk.events.end());
      }
    }

    const auto record = [&](NodeId sender, NodeId listener) {
      if (tracking) insert(sender, listener);
    };
    const auto skip = [&](NodeId v) {
      return (tracking && marks_[v] != 0) ||
             (failed_count_ > 0 && failed_[v] != 0);
    };

    if (sampling) {
      const std::uint64_t live = sampler_.n() - failed_count_;
      RADNET_CHECK(live >= k + pinned_nontx,
                   "pinned listeners exceed the live universe");
      const std::uint64_t universe_nontx = live - k - pinned_nontx;
      const std::uint64_t universe_tx = k - pinned_tx;
      const double expected_events =
          static_cast<double>(sampler_.n()) *
          std::min(1.0, static_cast<double>(k) * sampler_.p());
      if (attentive.has_value() &&
          static_cast<double>(attentive->size()) < expected_events) {
        // Attentive mode: pinned events first (ascending listener), then
        // the hint's listeners in hint order, then the aggregates.
        for (const PinnedEvent& e : pinned_events_) emit(e, sink);
        sampler_.attentive_round(tx, is_tx, half_duplex, *attentive,
                                 collisions_inert, sink, skip, record,
                                 universe_nontx, universe_tx);
      } else {
        // Sweep mode: merge the pre-drawn pinned events into the sweep's
        // ascending listener order.
        MergeSink<Sink> merged{sink, pinned_events_, 0, this};
        sampler_.sweep(tx, is_tx, half_duplex, attentive, collisions_inert,
                       merged, skip, record);
        merged.flush_all();
      }
    } else {
      // p(t) == 0 this round: only persisted pairs can deliver.
      for (const PinnedEvent& e : pinned_events_) emit(e, sink);
    }

    if (pinning)
      for (std::uint64_t b = 0; b < sketch_.size(); ++b)
        for (const PinnedTouch& t : sketch_[b].touches)
          marks_[b * detail::kShardBlockSize + t.offset()] = 0;
  }

 private:
  /// A sketched pair resolved this round: the listener's offset in its
  /// block (< 2^16), the sender and the resolved state, packed into 8 B.
  struct PinnedTouch {
    std::uint64_t key = 0;

    PinnedTouch() = default;
    PinnedTouch(NodeId offset, NodeId sender, bool present)
        : key(std::uint64_t{offset} << 33 | std::uint64_t{sender} << 1 |
              std::uint64_t{present}) {}
    [[nodiscard]] NodeId offset() const {
      return static_cast<NodeId>(key >> 33);
    }
    [[nodiscard]] NodeId sender() const {
      return static_cast<NodeId>(key >> 1);
    }
    [[nodiscard]] bool present() const { return (key & 1) != 0; }
  };
  struct PinnedEvent {
    NodeId listener;
    NodeId sender;  // meaningful only for deliveries
    bool is_delivery;
  };
  /// A sketched pair: `sender`'s link to `listener` was last resolved
  /// present in `round`.
  struct SketchEntry {
    NodeId listener = 0;
    NodeId sender = 0;
    std::uint32_t round = 0;
  };

  /// One listener block's slice of the pair sketch — the present pairs
  /// whose listener lies in the block, in insertion order, at most `cap` of
  /// them — plus the block's per-round scratch. Vectors are cleared, never
  /// shrunk, so steady-state rounds allocate nothing (pinned by
  /// tests/sim/shard_scratch_test.cpp).
  struct SketchBlock {
    std::vector<SketchEntry> entries;
    std::size_t cap = 0;               ///< this block's share of the capacity
    std::vector<PinnedTouch> touches;  ///< this round's resolved pairs
    std::vector<PinnedTouch> sort_scratch;  ///< radix-sort buffer
    std::vector<PinnedEvent> events;   ///< classify output, ascending listener
    std::uint64_t nontx = 0;  ///< non-transmitting pinned listeners
    std::uint64_t tx = 0;     ///< transmitting pinned listeners
  };

  /// Outcome laws precomputed per round for pinned listeners with fewer
  /// than this many excluded transmitters (resolved pairs plus, under full
  /// duplex, the listener itself) — nearly all of them.
  static constexpr std::uint64_t kProbsMemo = 8;

  /// The sketch pass's shared inputs, stashed so the pool fan-out lambda
  /// captures only `this` (std::function inline storage — no per-round
  /// allocation). Valid for the duration of one deliver call.
  struct SketchPhase {
    std::span<const NodeId> tx;
    const std::vector<char>* is_tx = nullptr;
    bool half_duplex = false;
    StreamKey key;  ///< churn_key_.fork(round)
    /// probs[m]: the outcome law over k - m eligible transmitters.
    std::array<detail::GnpSampler::OutcomeProbs, kProbsMemo> probs;
  };

  template <class Sink>
  void emit(const PinnedEvent& e, Sink& sink) const {
    if (e.is_delivery)
      sink.deliver(e.listener, e.sender);
    else
      sink.collide(e.listener);
  }

  /// Forwards sweep events to the engine sink, flushing buffered pinned
  /// events whose listener precedes the sweep's current listener so the
  /// combined stream stays in ascending receiver order. Pinned listeners
  /// are marked and therefore never also produced by the sweep.
  template <class Sink>
  struct MergeSink {
    Sink& inner;
    const std::vector<PinnedEvent>& pending;
    std::size_t next;
    const ImplicitDynamicGnpTopology* self;

    void flush_upto(NodeId v) {
      while (next < pending.size() && pending[next].listener < v)
        self->emit(pending[next++], inner);
    }
    void flush_all() {
      while (next < pending.size()) self->emit(pending[next++], inner);
    }
    void deliver(NodeId receiver, NodeId sender) {
      flush_upto(receiver);
      inner.deliver(receiver, sender);
    }
    void collide(NodeId receiver) {
      flush_upto(receiver);
      inner.collide(receiver);
    }
    void deliver_bulk(std::uint64_t count) { inner.deliver_bulk(count); }
    void collide_bulk(std::uint64_t count) { inner.collide_bulk(count); }
  };

  /// The record hook: a flat append to the listener's block. A full block
  /// forgets the resolution (modelled fallback); the entry list grows
  /// geometrically but never past the block's share of the capacity.
  void insert(NodeId sender, NodeId listener) {
    SketchBlock& blk = sketch_[listener / detail::kShardBlockSize];
    std::vector<SketchEntry>& entries = blk.entries;
    if (entries.size() >= blk.cap) return;
    if (entries.size() == entries.capacity())
      entries.reserve(std::min(blk.cap, 2 * entries.size() + 64));
    entries.push_back({listener, sender, round_});
  }

  /// Block b's sketch pass, on its own (round, block)-keyed stream. It
  /// streams the block's entries once, compacting survivors in place:
  /// entries older than the horizon are recycled; a pair whose sender
  /// transmits and whose listener can hear resolves its persistence — the
  /// recorded present state survives with probability (1-churn)^age (no
  /// re-sample hit it — memoryless, so the entry's clock restarts at this
  /// round), otherwise the pair re-draws fresh Bernoulli(p), and negative
  /// outcomes drop the entry (absence is not stored — the modelled
  /// fallback). Pairs whose listener cannot hear this round (failed, or
  /// transmitting under half-duplex) keep ageing unobserved. The resolved
  /// pairs are then sorted by listener and each pinned listener classified:
  /// total hits = resolved sketch hits + Binomial(k_unknown, p) over its
  /// untracked pairs, collapsed to the silent / single / collided classes
  /// the engine distinguishes. Everything the pass writes — the block's
  /// entries, scratch, and its listeners' marks — belongs to the block.
  void resolve_block(std::uint64_t b) {
    SketchBlock& blk = sketch_[b];
    blk.touches.clear();
    blk.events.clear();
    blk.nontx = 0;
    blk.tx = 0;
    if (blk.entries.empty()) return;
    Rng rng = phase_.key.fork(b).make_rng();
    const auto lo = static_cast<NodeId>(b * detail::kShardBlockSize);
    const std::vector<char>& is_tx = *phase_.is_tx;
    const bool failures = failed_count_ > 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < blk.entries.size(); ++i) {
      SketchEntry e = blk.entries[i];
      const std::uint64_t age = round_ - e.round;
      if (age > horizon_) continue;  // numerically fresh again
      const NodeId w = e.listener;
      if (is_tx[e.sender] && !(failures && (failed_[e.sender] || failed_[w])) &&
          !(phase_.half_duplex && is_tx[w])) {
        bool present = true;
        if (age > 0) {
          const double survive =
              std::exp(static_cast<double>(age) * log1m_churn_);
          if (rng.next_double() >= survive)
            present = rng.bernoulli(sampler_.p());
        }
        blk.touches.emplace_back(w - lo, e.sender, present);
        if (!present) continue;
        e.round = round_;
      }
      blk.entries[kept++] = e;
    }
    blk.entries.resize(kept);
    sort_by_offset(blk.touches, blk.sort_scratch);

    const std::span<const NodeId> tx = phase_.tx;
    const std::uint64_t k = tx.size();
    for (std::size_t i = 0, j = 0; i < blk.touches.size(); i = j) {
      const NodeId offset = blk.touches[i].offset();
      const NodeId w = lo + offset;
      std::uint32_t hits_known = 0;
      NodeId stored_sender = 0;
      for (j = i; j < blk.touches.size() && blk.touches[j].offset() == offset;
           ++j) {
        if (blk.touches[j].present()) {
          ++hits_known;
          stored_sender = blk.touches[j].sender();
        }
      }
      marks_[w] = 1;
      const bool wtx = is_tx[w] != 0;
      ++(wtx ? blk.tx : blk.nontx);
      const std::uint64_t excluded =
          (j - i) + (wtx && !phase_.half_duplex ? 1u : 0u);
      if (hits_known >= 2) {
        blk.events.push_back({w, 0, false});
        continue;
      }
      const auto probs = excluded < kProbsMemo
                             ? phase_.probs[excluded]
                             : sampler_.outcome_probs_for(k - excluded);
      const double u = rng.next_double();
      if (hits_known == 1) {
        // One tracked hit: collision iff any untracked pair also hits.
        blk.events.push_back({w, stored_sender, u < probs.silent});
      } else if (u >= probs.silent) {
        if (u < probs.silent + probs.single) {
          const NodeId sender = pick_unknown_sender(
              rng, tx, w, wtx, {blk.touches.data() + i, j - i});
          insert(sender, w);
          blk.events.push_back({w, sender, true});
        } else {
          blk.events.push_back({w, 0, false});
        }
      }
    }
  }

  /// Stable LSD radix sort of a block's touches by listener offset (two
  /// 8-bit passes): equal listeners keep their scan order, so the result
  /// is a pure function of the block's entries.
  static void sort_by_offset(std::vector<PinnedTouch>& touches,
                             std::vector<PinnedTouch>& scratch) {
    scratch.resize(touches.size());
    for (const unsigned shift : {33u, 41u}) {
      std::array<std::uint32_t, 257> start{};
      for (const PinnedTouch& t : touches) ++start[(t.key >> shift & 255) + 1];
      for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
      for (const PinnedTouch& t : touches)
        scratch[start[t.key >> shift & 255]++] = t;
      touches.swap(scratch);
    }
  }

  /// Uniform draw over the transmitters whose pair to `w` is untracked
  /// (rejecting w itself and the listener's resolved senders — a handful
  /// at most, so rejection terminates fast; probs.single > 0 guarantees
  /// the untracked set is non-empty). Draws from the calling block's
  /// stream.
  static NodeId pick_unknown_sender(Rng& rng, std::span<const NodeId> tx,
                                    NodeId w, bool wtx,
                                    std::span<const PinnedTouch> resolved) {
    for (;;) {
      const NodeId cand =
          tx[static_cast<std::size_t>(rng.uniform_below(tx.size()))];
      if (wtx && cand == w) continue;
      const auto is_cand = [cand](const PinnedTouch& t) {
        return t.sender() == cand;
      };
      if (std::none_of(resolved.begin(), resolved.end(), is_cand)) return cand;
    }
  }

  /// Each live node fails independently with fail_prob per round; landing
  /// on an already-failed node is a no-op, so a skip-sampled sweep of
  /// [0, n) is exact — and because failures are independent per node, the
  /// sweep shards into the same counter-keyed listener blocks as the round
  /// sweep (disjoint failed_ ranges; per-block new-failure counts summed
  /// serially).
  void draw_failures() {
    const std::uint64_t n = sampler_.n();
    const StreamKey round_key = fail_key_.fork(round_);
    const std::uint64_t blocks =
        detail::block_count(n, detail::kShardBlockSize);
    fail_counts_.assign(blocks, 0);
    const auto run_block = [&](std::uint64_t b) {
      Rng rng = round_key.fork(b).make_rng();
      const std::uint64_t lo = b * detail::kShardBlockSize;
      const std::uint64_t span =
          std::min<std::uint64_t>(n, lo + detail::kShardBlockSize) - lo;
      NodeId fresh = 0;
      for (std::uint64_t o = rng.geometric_inv(inv_log1m_fail_) - 1; o < span;
           o += rng.geometric_inv(inv_log1m_fail_)) {
        if (!failed_[lo + o]) {
          failed_[lo + o] = 1;
          ++fresh;
        }
      }
      fail_counts_[b] = fresh;
    };
    detail::run_chunked(pool_, blocks,
                        [&run_block](std::uint64_t b) { run_block(b); });
    for (const NodeId fresh : fail_counts_) failed_count_ += fresh;
  }

  detail::GnpSampler sampler_;
  double churn_;
  double fail_prob_;
  std::function<double(std::uint32_t)> p_of_round_;
  StreamKey churn_key_;  ///< per-(round, block) sketch stream root
  StreamKey fail_key_;   ///< per-(round, block) failure stream root
  ThreadPool* pool_ = nullptr;
  std::vector<NodeId> fail_counts_;  ///< per-block new failures, merged serially
  double log1m_churn_ = 0.0;
  double inv_log1m_fail_ = 0.0;
  std::uint64_t horizon_ = 0;
  std::uint32_t round_ = 0;

  std::vector<SketchBlock> sketch_;  ///< one slice per listener block
  std::vector<char> marks_;          ///< pinned listeners of the round
  std::vector<char> failed_;
  NodeId failed_count_ = 0;
  std::vector<NodeId> live_tx_;
  std::vector<PinnedEvent> pinned_events_;  ///< all blocks', ascending listener
  SketchPhase phase_;                       ///< current sketch pass inputs
};

}  // namespace radnet::sim
