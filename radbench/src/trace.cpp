#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace radbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTrial: return "trial";
    case SpanKind::kGraphBuild: return "graph.build";
    case SpanKind::kReset: return "reset";
    case SpanKind::kRound: return "round";
    case SpanKind::kSelect: return "select";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kCommit: return "commit";
  }
  return "?";
}

std::vector<double> self_times(std::span<const Span> spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  // Children grouped by parent, each group in start order; a group's
  // covered length is the union of its intervals clipped to the parent.
  std::vector<std::size_t> order;
  order.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].parent != spans[b].parent)
      return spans[a].parent < spans[b].parent;
    return spans[a].start < spans[b].start;
  });
  for (std::size_t g = 0; g < order.size();) {
    const auto parent = static_cast<std::size_t>(spans[order[g]].parent);
    const double lo = spans[parent].start;
    const double hi = spans[parent].end;
    double covered = 0.0;
    double reach = lo;  // everything before `reach` is already counted
    for (; g < order.size() &&
           static_cast<std::size_t>(spans[order[g]].parent) == parent;
         ++g) {
      const double s = std::max(spans[order[g]].start, reach);
      const double e = std::min(spans[order[g]].end, hi);
      if (e > s) {
        covered += e - s;
        reach = e;
      }
    }
    self[parent] -= covered;
  }
  return self;
}

void SelfTimes::add(const TrialTrace& trial) {
  const std::vector<double> self = self_times(trial.spans);
  for (std::size_t i = 0; i < self.size(); ++i)
    by_kind[static_cast<int>(trial.spans[i].kind)] += self[i];
}

void Recorder::add(TrialTrace trial) {
  const std::lock_guard<std::mutex> lock(mu_);
  trials_.push_back(std::move(trial));
}

std::vector<TrialTrace> Recorder::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(trials_, {});
}

void Recorder::note_lost() { lost_.fetch_add(1, std::memory_order_relaxed); }

std::uint64_t Recorder::lost() const {
  return lost_.load(std::memory_order_relaxed);
}

TracingProtocol::TracingProtocol(std::unique_ptr<sim::Protocol> inner,
                                 TrialTrace trace, Recorder& sink)
    : inner_(std::move(inner)), trace_(std::move(trace)), sink_(&sink) {
  if (trace_.spans.empty())
    trace_.spans.push_back({SpanKind::kTrial, -1, now_s(), 0.0});
}

TracingProtocol::~TracingProtocol() {
  try {
    close_trial(now_s());
  } catch (...) {
    sink_->note_lost();
  }
}

void TracingProtocol::close_trial(double end) {
  if (closed_) return;
  closed_ = true;
  // A round the engine abandoned after begin_round (stalled, no
  // candidates) has no children yet; its time falls to the trial.
  if (open_round_ >= 0) trace_.spans.resize(static_cast<std::size_t>(open_round_));
  trace_.spans[0].end = end;
  sink_->add(std::move(trace_));
}

void TracingProtocol::reset(graph::NodeId num_nodes, Rng rng) {
  const double t0 = now_s();
  inner_->reset(num_nodes, std::move(rng));
  trace_.spans.push_back({SpanKind::kReset, 0, t0, now_s()});
}

void TracingProtocol::begin_round(sim::Round r) {
  const double t0 = now_s();
  if (open_round_ >= 0) trace_.spans.resize(static_cast<std::size_t>(open_round_));
  open_round_ = static_cast<std::int32_t>(trace_.spans.size());
  trace_.spans.push_back({SpanKind::kRound, 0, t0, t0});
  round_start_ = t0;
  selection_end_ = -1.0;
  queried_ = 0;
  round_tx_ = 0;
  inner_->begin_round(r);
}

std::span<const graph::NodeId> TracingProtocol::candidates() const {
  const std::span<const graph::NodeId> c = inner_->candidates();
  candidate_count_ = c.size();
  return c;
}

bool TracingProtocol::wants_transmit(graph::NodeId v, sim::Round r) {
  const bool tx = inner_->wants_transmit(v, r);
  if (tx) ++round_tx_;
  if (++queried_ == candidate_count_) end_selection();
  return tx;
}

bool TracingProtocol::sample_transmitters(sim::Round r,
                                          std::vector<graph::NodeId>& out) {
  const bool sampled = inner_->sample_transmitters(r, out);
  if (sampled) {
    round_tx_ = static_cast<std::uint32_t>(out.size());
    end_selection();
  } else if (candidate_count_ == 0) {
    end_selection();
  }
  return sampled;
}

void TracingProtocol::end_selection() { selection_end_ = now_s(); }

std::optional<std::span<const graph::NodeId>>
TracingProtocol::attentive_listeners() const {
  return inner_->attentive_listeners();
}

void TracingProtocol::on_delivered(graph::NodeId receiver,
                                   graph::NodeId sender, sim::Round r) {
  ++trace_.callbacks;
  inner_->on_delivered(receiver, sender, r);
}

void TracingProtocol::on_delivered_corrupted(graph::NodeId receiver,
                                             graph::NodeId sender,
                                             sim::Round r) {
  ++trace_.callbacks;
  inner_->on_delivered_corrupted(receiver, sender, r);
}

void TracingProtocol::on_collision(graph::NodeId receiver, sim::Round r) {
  ++trace_.callbacks;
  inner_->on_collision(receiver, r);
}

bool TracingProtocol::collisions_inert() const {
  return inner_->collisions_inert();
}

void TracingProtocol::end_round(sim::Round r) {
  const double t0 = now_s();
  // Selection always ends before delivery; if no hook marked it (a
  // protocol whose candidates were consumed some other way), the whole
  // pre-commit part of the round counts as selection.
  if (selection_end_ < round_start_) selection_end_ = t0;
  const std::int32_t round = open_round_;
  trace_.spans.push_back({SpanKind::kSelect, round, round_start_, selection_end_});
  trace_.spans.push_back({SpanKind::kDeliver, round, selection_end_, t0});
  inner_->end_round(r);
  const double t1 = now_s();
  trace_.spans.push_back({SpanKind::kCommit, round, t0, t1});
  trace_.spans[static_cast<std::size_t>(round)].end = t1;
  trace_.tx_per_round.push_back(round_tx_);
  open_round_ = -1;
}

bool TracingProtocol::is_complete() const { return inner_->is_complete(); }

void TracingProtocol::set_goal_exclusions(
    std::span<const graph::NodeId> nodes) {
  inner_->set_goal_exclusions(nodes);
}

std::optional<graph::NodeId> TracingProtocol::stranded_count() const {
  return inner_->stranded_count();
}

std::string TracingProtocol::name() const { return inner_->name(); }

}  // namespace radbench
