#include "metrics.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace radbench {
namespace {

constexpr std::array kEndToEnd = {
    MetricDef{"setup_s", "s"},
    MetricDef{"trial_s", "s"},
    MetricDef{"node_rounds_per_s", "1/s"},
    MetricDef{"trials_per_s", "1/s"},
    MetricDef{"peak_rss_mb", "MB"},
    MetricDef{"sim_rounds", "rounds"},
    MetricDef{"sim_tx_per_node", "tx/node"},
};

constexpr std::array kPerLayer = {
    MetricDef{"sim.deliver_s", "s"},
    MetricDef{"sim.deliver_speedup", "x"},
    MetricDef{"sim.outside_s", "s"},
    MetricDef{"sim.rounds", "count"},
    MetricDef{"sim.deliveries", "count"},
    MetricDef{"sim.collisions", "count"},
    MetricDef{"sim.fold_ratio", "ratio"},
    MetricDef{"sim.law_z", "sigma"},
    MetricDef{"core.select_s", "s"},
    MetricDef{"core.commit_s", "s"},
    MetricDef{"core.reset_s", "s"},
    MetricDef{"core.tx", "count"},
    MetricDef{"core.callbacks", "count"},
    MetricDef{"baselines.select_s", "s"},
    MetricDef{"baselines.commit_s", "s"},
    MetricDef{"baselines.reset_s", "s"},
    MetricDef{"baselines.tx", "count"},
    MetricDef{"baselines.callbacks", "count"},
    MetricDef{"graph.build_s", "s"},
    MetricDef{"graph.edges", "count"},
    MetricDef{"harness.parse_s", "s"},
    MetricDef{"harness.trials_run", "count"},
    MetricDef{"harness.saved_ratio", "ratio"},
    MetricDef{"harness.busy_s.csr", "s"},
    MetricDef{"harness.busy_s.ignp", "s"},
    MetricDef{"harness.busy_s.idgnp", "s"},
    MetricDef{"harness.busy_s.irgg", "s"},
    MetricDef{"harness.pool_util", "ratio"},
    MetricDef{"trace.overhead", "ratio"},
    MetricDef{"trace.trial_s", "s"},
};

std::string number(double v) {
  if (!std::isfinite(v))
    throw std::runtime_error("metric value is not a finite number");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() { return kPerLayer; }

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

std::span<const MetricDef> Report::defs() const {
  return traced_ ? per_layer_metrics() : end_to_end_metrics();
}

void Report::set(std::string_view name, double value) {
  for (const MetricDef& d : defs())
    if (d.name == name) {
      values_.insert_or_assign(std::string(name), value);
      return;
    }
  // A metric of the other kind is not part of this run's result line.
  const auto other = traced_ ? end_to_end_metrics() : per_layer_metrics();
  for (const MetricDef& d : other)
    if (d.name == name) return;
  throw std::logic_error("unknown metric " + std::string(name));
}

void Report::info(std::string_view name, std::string_view unit,
                  double value) {
  char line[160];
  std::snprintf(line, sizeof line, "  %-22s %16.6g %s\n",
                std::string(name).c_str(), value, std::string(unit).c_str());
  info_ += line;
}

void Report::fail_operation(const std::string& why) {
  ++failed_;
  problems_.push_back(why);
}

void Report::fail_check(const std::string& why) { problems_.push_back(why); }

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs()) {
    const auto it = values_.find(d.name);
    if (it == values_.end() && !traced_)
      throw std::logic_error("end-to-end metric " + std::string(d.name) +
                             " was never measured");
    const double v = it == values_.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += d.name;
    out += "\": {\"value\": " + number(v) + ", \"unit\": \"";
    out += d.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::table() const {
  std::string out;
  char line[160];
  for (const MetricDef& d : defs()) {
    const auto it = values_.find(d.name);
    std::snprintf(line, sizeof line, "  %-22s %16.6g %s\n",
                  std::string(d.name).c_str(),
                  it == values_.end() ? 0.0 : it->second,
                  std::string(d.unit).c_str());
    out += line;
  }
  std::snprintf(line, sizeof line, "  %-22s %16.6g %s\n", "fail_ratio",
                attempted_ == 0 ? 0.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_),
                "ratio");
  out += line;
  return out + info_;
}

}  // namespace radbench
