// Outside-in tracing for the radbench benchmark.
//
// Nothing here reaches into the simulator: spans are recorded around the
// calls the benchmark makes into radnet (Engine::run, make_graph) and
// around the calls the engine makes into a protocol, through a forwarding
// sim::Protocol (TracingProtocol). Each trial is one request; its spans
// form the tree
//
//   trial ─┬─ graph.build        (explicit-CSR trials of the batch pass)
//          ├─ reset
//          └─ round ─┬─ select   begin_round .. end of transmitter choice
//                    ├─ deliver  end of choice .. end_round (ledger,
//                    │           backend begin_round/deliver, callbacks)
//                    └─ commit   end_round
//
// Spans live in memory and are folded into per-layer self times when the
// run ends (self time = span duration minus the part its children cover).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/protocol.hpp"

namespace radbench {

namespace graph = radnet::graph;
namespace sim = radnet::sim;
using radnet::Rng;

/// Seconds on the steady clock since an arbitrary process-wide epoch.
[[nodiscard]] double now_s();

enum class SpanKind : std::uint8_t {
  kTrial,
  kGraphBuild,
  kReset,
  kRound,
  kSelect,
  kDeliver,
  kCommit,
};
inline constexpr int kSpanKinds = 7;
[[nodiscard]] const char* span_kind_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kTrial;
  std::int32_t parent = -1;  ///< index into the same trial's spans; -1 = root
  double start = 0.0;
  double end = 0.0;
};

/// Everything recorded for one trial (one request).
struct TrialTrace {
  std::uint64_t request = 0;  ///< trial id, unique within a run
  std::string layer;          ///< "core" or "baselines": the protocol's module
  std::string family;         ///< backend family ("ignp", "csr", ...)
  std::vector<Span> spans;    ///< spans[0] is the trial span
  std::vector<std::uint32_t> tx_per_round;  ///< transmitter count k per round
  std::uint64_t callbacks = 0;  ///< on_delivered/_corrupted/on_collision calls
  std::uint64_t graph_edges = 0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span). Spans must be listed parent-first.
[[nodiscard]] std::vector<double> self_times(std::span<const Span> spans);

/// Per-kind sums of self time over a set of trials.
struct SelfTimes {
  double by_kind[kSpanKinds] = {};
  [[nodiscard]] double operator[](SpanKind kind) const {
    return by_kind[static_cast<int>(kind)];
  }
  void add(const TrialTrace& trial);
};

/// Thread-safe sink for finished trials (batch trials finish on pool
/// threads).
class Recorder {
 public:
  void add(TrialTrace trial);
  [[nodiscard]] std::vector<TrialTrace> take();
  /// A trial whose trace could not be stored (allocation failed in a
  /// destructor); any lost trial makes the traced run incorrect.
  void note_lost();
  [[nodiscard]] std::uint64_t lost() const;

 private:
  std::mutex mu_;
  std::vector<TrialTrace> trials_;  ///< guarded by mu_
  std::atomic<std::uint64_t> lost_{0};
};

/// Forwards every sim::Protocol hook to `inner` unchanged and records the
/// span tree above. The trial span is `trace.spans[0]` when the caller
/// opened it (e.g. before a graph build), else it opens at construction;
/// it closes at close_trial() or destruction, whichever comes first, and
/// the finished TrialTrace then goes to `sink`.
class TracingProtocol final : public sim::Protocol {
 public:
  TracingProtocol(std::unique_ptr<sim::Protocol> inner, TrialTrace trace,
                  Recorder& sink);
  ~TracingProtocol() override;
  TracingProtocol(const TracingProtocol&) = delete;
  TracingProtocol& operator=(const TracingProtocol&) = delete;

  /// Ends the trial span at `end` and hands the trace to the sink.
  void close_trial(double end);

  void reset(graph::NodeId num_nodes, Rng rng) override;
  void begin_round(sim::Round r) override;
  [[nodiscard]] std::span<const graph::NodeId> candidates() const override;
  [[nodiscard]] bool wants_transmit(graph::NodeId v, sim::Round r) override;
  [[nodiscard]] bool sample_transmitters(
      sim::Round r, std::vector<graph::NodeId>& out) override;
  [[nodiscard]] std::optional<std::span<const graph::NodeId>>
  attentive_listeners() const override;
  void on_delivered(graph::NodeId receiver, graph::NodeId sender,
                    sim::Round r) override;
  void on_delivered_corrupted(graph::NodeId receiver, graph::NodeId sender,
                              sim::Round r) override;
  void on_collision(graph::NodeId receiver, sim::Round r) override;
  [[nodiscard]] bool collisions_inert() const override;
  void end_round(sim::Round r) override;
  [[nodiscard]] bool is_complete() const override;
  void set_goal_exclusions(std::span<const graph::NodeId> nodes) override;
  [[nodiscard]] std::optional<graph::NodeId> stranded_count() const override;
  [[nodiscard]] std::string name() const override;

 private:
  void end_selection();

  std::unique_ptr<sim::Protocol> inner_;
  TrialTrace trace_;
  Recorder* sink_;
  bool closed_ = false;
  std::int32_t open_round_ = -1;  ///< span index of the round in progress
  double round_start_ = 0.0;
  double selection_end_ = -1.0;   ///< < round_start_ until selection ends
  // candidates() is const in the interface; the wrapper notes the size of
  // the span it forwarded so it can tell when the last wants_transmit of
  // the round has returned.
  mutable std::size_t candidate_count_ = 0;
  std::size_t queried_ = 0;
  std::uint32_t round_tx_ = 0;
};

}  // namespace radbench
