// The benchmark's metric vocabulary and its result line.
//
// Every metric radbench can emit is listed here with its unit, once; a
// run emits all end-to-end metrics (untraced run) or all per-layer metrics
// (traced run), and BENCHMARK.json names the same two lists.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace radbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics (tracing off). Meaning per workload: see README.md.
[[nodiscard]] std::span<const MetricDef> end_to_end_metrics();
/// Per-layer metrics (traced run); a layer a workload does not exercise
/// reads 0.
[[nodiscard]] std::span<const MetricDef> per_layer_metrics();

/// Names match [A-Za-z0-9_.-]+ (and start with a letter or digit).
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Operations attempted/failed, the metric values and the reasons any
/// check failed. `correct` is false as soon as one check fails.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  void set(std::string_view name, double value);
  /// A value printed in table() only (sample counts, sweep_s, ...).
  void info(std::string_view name, std::string_view unit, double value);
  /// One operation (a trial, or a spec line of a sweep) was attempted.
  void attempt(std::uint64_t count = 1) { attempted_ += count; }
  /// An operation failed a check or threw: counts toward `failed`.
  void fail_operation(const std::string& why);
  /// A run-level check failed (no single operation to blame).
  void fail_check(const std::string& why);

  [[nodiscard]] bool correct() const { return problems_.empty(); }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// every metric of this run's kind. Per-layer metrics never set read 0;
  /// an end-to-end metric never set is a benchmark bug and throws.
  [[nodiscard]] std::string json() const;
  /// Human-readable table of the same values, plus fail_ratio.
  [[nodiscard]] std::string table() const;

 private:
  [[nodiscard]] std::span<const MetricDef> defs() const;

  bool traced_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
  std::map<std::string, double, std::less<>> values_;
  std::string info_;
};

}  // namespace radbench
