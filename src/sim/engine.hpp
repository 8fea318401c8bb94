// The synchronous radio-network simulation engine.
//
// Implements the paper's round semantics exactly (Section 1.2):
//   1. Every candidate node decides independently whether to transmit.
//   2. A node receives iff *exactly one* of its in-neighbours transmitted;
//      with two or more the messages collide and nothing is received.
//   3. Edges are directed: u -> v means v hears u, not necessarily
//      vice versa (asymmetric communication ranges).
//
// The round loop is statically specialised per topology backend (see
// sim/topology.hpp): explicit CSR graphs cost O(sum of out-degrees of this
// round's transmitters) — or O(receivers) via in-neighbour bitset scans in
// very dense rounds — while the implicit G(n,p) backend costs O(n) per
// round (O(expected hits) when sparse) with no materialised graph at all.
// The engine is a pure function of (topology, protocol state, options);
// reproducibility is tested against the naive reference engine in
// reference_engine.hpp and across delivery paths by the parity tests.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "graph/digraph.hpp"
#include "graph/dynamics.hpp"
#include "sim/adversary.hpp"
#include "sim/energy.hpp"
#include "sim/protocol.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace radnet::sim {

struct RunOptions {
  /// Hard stop after this many rounds even if the protocol is incomplete.
  Round max_rounds = 1u << 20;
  /// Half-duplex radios: a node that transmits in a round cannot receive in
  /// that round (the standard radio-network reading; the paper's broadcast
  /// algorithms are insensitive to this because transmitters are already
  /// informed, but gossip message joining is not).
  bool half_duplex = true;
  /// Stop early once candidates() is empty and the protocol is incomplete —
  /// the execution has provably stalled (used by bounded-activity broadcast
  /// protocols whose nodes all went passive).
  bool stop_on_empty_candidates = false;
  /// Keep simulating after the protocol's goal is reached, until every node
  /// has gone passive (candidates() empty) or max_rounds. Nodes do not know
  /// the broadcast finished — they keep spending energy until their own
  /// activity windows expire — so this is the honest energy accounting the
  /// paper's per-node transmission bounds refer to. completion_round still
  /// records the first round at which the goal held.
  bool run_to_quiescence = false;
  /// Record a full per-round trace (costly; for tests/examples/E2).
  bool record_trace = false;
  /// Delivery strategy for explicit-CSR topologies. kAuto picks per round;
  /// the forced values exist for path-parity tests and microbenchmarks.
  /// Ignored by the implicit backend.
  DeliveryPath delivery_path = DeliveryPath::kAuto;
  /// Within-trial parallelism for the backends' sharded round phases —
  /// the listener-block sweeps, the dynamic backend's per-listener-block
  /// sketch pass and the RGG bucketing's cell map and entry gather:
  /// 1 (default) = serial, 0 = every core (the shared global_pool(), sized
  /// by RADNET_THREADS when set), k > 1 = exactly k pool threads. Purely a
  /// scheduling knob — sampling backends counter-key every RNG draw by
  /// (round, block/chunk), and explicit-CSR delivery and RGG bucketing
  /// involve no RNG at all, so the RunResult is bit-identical for every
  /// value (asserted through tests/sim/shard_invariance.hpp by
  /// tests/sim/thread_invariance_test.cpp). The Monte-Carlo harness
  /// overrides the default with 0 when there are fewer trials than pool
  /// threads (trial- vs round-parallelism).
  unsigned threads = 1;
  /// Invoked after every round with the round just executed; used by the
  /// Phase-1 growth experiment to snapshot protocol counters.
  std::function<void(Round)> round_observer;
  /// Adversary / fault scenario (sim/adversary.hpp): jammers, Byzantine
  /// relays, energy budgets and crash schedules, composed engine-side with
  /// every backend. Default-constructed = no adversary, zero hot-path cost.
  /// All adversarial randomness is keyed on AdversarySpec::seed, so
  /// adversarial runs keep the thread-count bit-identity contract.
  AdversarySpec adversary;
};

struct RunResult {
  /// Protocol reported is_complete() before max_rounds ran out.
  bool completed = false;
  /// Number of rounds actually executed.
  Round rounds_executed = 0;
  /// Round (1-based count) at whose end the protocol became complete;
  /// meaningful only when completed.
  Round completion_round = 0;
  EnergyLedger ledger;
  /// Adversary counters (zeroed when RunOptions::adversary is inactive).
  AdversaryStats adversary;
  Trace trace;  ///< empty unless RunOptions::record_trace

  /// Whole-result bit-identity — the thread-count-invariance contract in
  /// one comparison (used by the invariance tests and the scaling
  /// benches; stays exhaustive as fields are added).
  friend bool operator==(const RunResult&, const RunResult&) = default;
};

class Engine {
 public:
  /// Runs `protocol` on the static topology `g`. The engine calls
  /// protocol.reset(g.num_nodes(), rng) itself so a single protocol object
  /// can be reused across Monte-Carlo trials.
  [[nodiscard]] RunResult run(const graph::Digraph& g, Protocol& protocol,
                              Rng protocol_rng, const RunOptions& options = {});

  /// Runs `protocol` over a *changing* topology (mobility / link churn —
  /// the paper's motivating setting): round r uses topology.at(r). The node
  /// count is fixed; links change between rounds. Protocols need no changes:
  /// obliviousness means they never saw the topology anyway.
  [[nodiscard]] RunResult run(graph::TopologySequence& topology,
                              Protocol& protocol, Rng protocol_rng,
                              const RunOptions& options = {});

  /// Runs `protocol` on an implicit directed G(n,p): delivery outcomes are
  /// sampled per round from the transmitter count and the graph is never
  /// materialised. Exactly equivalent to a fixed G(n,p) whenever each node
  /// transmits at most once (see topology.hpp for the general conditions).
  /// The spec's rng is copied, so the same spec replays identically.
  [[nodiscard]] RunResult run(const ImplicitGnp& gnp, Protocol& protocol,
                              Rng protocol_rng, const RunOptions& options = {});

  /// Runs `protocol` on the implicit *dynamic* G(n,p) family — link churn,
  /// node failures and density schedules without a materialised graph
  /// (graph-free counterpart of ChurnGnp; see topology.hpp for which
  /// regimes are exact vs modelled). The spec's rng is copied, so the same
  /// spec replays identically.
  [[nodiscard]] RunResult run(const ImplicitDynamicGnp& gnp,
                              Protocol& protocol, Rng protocol_rng,
                              const RunOptions& options = {});

  /// Runs `protocol` on the implicit mobility RGG — random-walk mobility
  /// over a random geometric graph without a materialised graph (graph-free
  /// counterpart of graph::MobilityRgg; exact in distribution for every
  /// protocol — see backends/implicit_rgg.hpp). The spec's rng is copied,
  /// so the same spec replays identically.
  [[nodiscard]] RunResult run(const ImplicitRgg& rgg, Protocol& protocol,
                              Rng protocol_rng, const RunOptions& options = {});
};

}  // namespace radnet::sim
