// Tests of the benchmark's own machinery: the forwarding protocol wrapper,
// the self-time arithmetic and the metric vocabulary.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/batch.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace radbench {
namespace {

// ------------------------------------------------------------ wrapper ---

struct Variant {
  const char* name;
  const char* spec_keys;  ///< extra spec keys
  bool record_trace;
};

// Adversarial runs reach on_delivered_corrupted (Byzantine relays) and
// set_goal_exclusions (jammers); trace-recording runs drop the attentive
// and collisions-inert hints, so every per-event callback fires.
constexpr Variant kVariants[] = {
    {"plain", "", false},
    {"adversarial", " jammers=0.05 byzantine=0.2", false},
    {"record_trace", "", true},
};

TEST(TracingProtocol, ForwardsEveryHookOnEveryBackendAndProtocol) {
  static const graph::Digraph placeholder;
  for (const char* family : {"csr", "ignp", "idgnp churn=0.5", "irgg"})
    for (const char* protocol : {"alg1", "alg2m", "eg2005", "flooding", "decay"})
      for (const Variant& variant : kVariants) {
        const std::string line = std::string("protocol=") + protocol +
                                 " family=" + family +
                                 " n=384 seed=11 max-rounds=200" +
                                 variant.spec_keys;
        SCOPED_TRACE(line + " / " + variant.name);
        const harness::McSpec mc = harness::parse_batch_spec(line).to_mc_spec();
        sim::RunOptions options = mc.run_options;
        options.record_trace = variant.record_trace;
        for (const unsigned threads : {1u, 4u}) {
          options.threads = threads;
          const auto plain_protocol = mc.make_protocol(placeholder, 0);
          const sim::RunResult plain = run_trial(mc, 0, *plain_protocol, options);

          Recorder recorder;
          sim::RunResult traced;
          std::optional<graph::NodeId> traced_stranded;
          std::string traced_name;
          {
            TracingProtocol wrapped(mc.make_protocol(placeholder, 0), TrialTrace{},
                                    recorder);
            traced = run_trial(mc, 0, wrapped, options);
            traced_stranded = wrapped.stranded_count();
            traced_name = wrapped.name();
          }
          EXPECT_TRUE(traced == plain);
          EXPECT_EQ(traced_stranded, plain_protocol->stranded_count());
          EXPECT_EQ(traced_name, plain_protocol->name());

          const std::vector<TrialTrace> trials = recorder.take();
          ASSERT_EQ(trials.size(), 1u);
          const TrialTrace& t = trials[0];
          EXPECT_EQ(t.tx_per_round.size(), plain.rounds_executed);
          std::uint64_t tx = 0;
          for (const std::uint32_t k : t.tx_per_round) tx += k;
          if (std::string(variant.name) != "adversarial") {
            EXPECT_EQ(tx, plain.ledger.total_transmissions);
          }
          EXPECT_LE(t.callbacks, plain.ledger.total_deliveries +
                                     plain.ledger.total_collisions);
          if (variant.record_trace) {
            EXPECT_EQ(t.callbacks, plain.ledger.total_deliveries +
                                       plain.ledger.total_collisions);
          }
          // Every round tiles into select + deliver + commit.
          const std::vector<double> self = self_times(t.spans);
          for (std::size_t i = 0; i < t.spans.size(); ++i) {
            if (t.spans[i].kind == SpanKind::kRound) {
              EXPECT_NEAR(self[i], 0.0, 1e-9);
            }
          }
        }
      }
}

// ---------------------------------------------------------- self time ---

TEST(SelfTimes, SpanMinusCoveredChildren) {
  const std::vector<Span> spans = {
      {SpanKind::kTrial, -1, 0.0, 10.0},
      {SpanKind::kReset, 0, 1.0, 2.0},
      {SpanKind::kRound, 0, 3.0, 7.0},
      {SpanKind::kSelect, 2, 3.0, 4.0},
      {SpanKind::kDeliver, 2, 4.0, 6.0},
      {SpanKind::kCommit, 2, 6.0, 6.5},
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 1.0 - 4.0);
  EXPECT_DOUBLE_EQ(self[1], 1.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0 - 3.5);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);
  EXPECT_DOUBLE_EQ(self[5], 0.5);
}

TEST(SelfTimes, OverlappingChildrenCountOnceAndClipToTheParent) {
  const std::vector<Span> spans = {
      {SpanKind::kTrial, -1, 0.0, 10.0},
      {SpanKind::kRound, 0, 2.0, 5.0},
      {SpanKind::kRound, 0, 1.0, 3.0},   // overlaps [2, 3) of the first
      {SpanKind::kRound, 0, 9.0, 12.0},  // runs past the parent's end
      {SpanKind::kSelect, 1, 2.0, 5.0},  // covers its parent entirely
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 0.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
}

TEST(SelfTimes, SumOverKindsEqualsTheTrialSpan) {
  TrialTrace trial;
  trial.spans = {
      {SpanKind::kTrial, -1, 0.0, 8.0},
      {SpanKind::kGraphBuild, 0, 0.0, 1.5},
      {SpanKind::kReset, 0, 1.5, 2.0},
      {SpanKind::kRound, 0, 2.0, 6.0},
      {SpanKind::kSelect, 3, 2.0, 2.5},
      {SpanKind::kDeliver, 3, 2.5, 5.0},
      {SpanKind::kCommit, 3, 5.0, 6.0},
  };
  SelfTimes sums;
  sums.add(trial);
  double total = 0.0;
  for (const double v : sums.by_kind) total += v;
  EXPECT_DOUBLE_EQ(total, 8.0);
  EXPECT_DOUBLE_EQ(sums[SpanKind::kTrial], 2.0);
  EXPECT_DOUBLE_EQ(sums[SpanKind::kDeliver], 2.5);
}

// ------------------------------------------------------------- metrics ---

TEST(Metrics, EveryNameIsWellFormedAndUsedOnce) {
  std::set<std::string> seen;
  for (const auto list : {end_to_end_metrics(), per_layer_metrics()})
    for (const MetricDef& m : list) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(std::string(m.name)).second) << m.name;
      EXPECT_FALSE(m.unit.empty());
      EXPECT_LE(m.unit.size(), 16u);
      for (const char c : m.unit)
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                    std::string_view("_/%.-").find(c) != std::string_view::npos)
            << m.unit;
    }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("sim deliver"));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("busy{csr}"));
}

TEST(Metrics, ResultLineCarriesExactlyTheRunsKind) {
  Report untraced(false);
  for (const MetricDef& m : end_to_end_metrics()) untraced.set(m.name, 1.5);
  untraced.attempt(3);
  const std::string line = untraced.json();
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, ", 0), 0u);
  const auto quoted = [](std::string_view name) {
    std::string q = "\"";
    q += name;
    return q += "\"";
  };
  for (const MetricDef& m : end_to_end_metrics())
    EXPECT_NE(line.find(quoted(m.name) + ": {\"value\": 1.5"), std::string::npos);
  for (const MetricDef& m : per_layer_metrics())
    EXPECT_EQ(line.find(quoted(m.name)), std::string::npos);

  Report missing(false);
  EXPECT_THROW((void)missing.json(), std::logic_error);
  EXPECT_THROW(missing.set("no_such_metric", 1.0), std::logic_error);
  missing.fail_operation("boom");
  EXPECT_FALSE(missing.correct());
  EXPECT_EQ(missing.failed(), 1u);
}

TEST(Workloads, SpecsDependOnTheSeedOnlyAndParse) {
  for (const std::string_view w : workload_names()) {
    EXPECT_EQ(workload_specs(w, 7), workload_specs(w, 7));
    EXPECT_NE(workload_specs(w, 7), workload_specs(w, 8));
    std::istringstream in(workload_specs(w, 7));
    const auto specs = harness::parse_batch_file(in);
    EXPECT_EQ(specs.size(), w == "batch_sweep" ? 40u : 1u);
  }
  EXPECT_THROW((void)workload_specs("nope", 1), std::invalid_argument);
}

}  // namespace
}  // namespace radbench
