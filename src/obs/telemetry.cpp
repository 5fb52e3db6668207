#include "obs/telemetry.h"

#include <algorithm>

#include "support/json.h"

namespace bolt::obs {

void MonitorTelemetry::merge(const MonitorTelemetry& other) {
  packets_executed += other.packets_executed;
  attr_memo_hits += other.attr_memo_hits;
  batches_emitted += other.batches_emitted;
  batch_rows += other.batch_rows;
  batch_fill.merge(other.batch_fill);
  vm_batch_evals += other.vm_batch_evals;
  rows_validated += other.rows_validated;
  epoch_sweeps += other.epoch_sweeps;
  state_high_water = std::max(state_high_water, other.state_high_water);
  delta_windows += other.delta_windows;
  drift_alerts += other.drift_alerts;
}

std::string telemetry_to_json(const MonitorTelemetry& t,
                              const std::string& nf) {
  support::JsonWriter w;
  w.object([&] {
    w.field("nf", nf);
    telemetry_fields(w, t, [&] {
      perf::summary_to_json(w, perf::summarize(t.batch_fill));
    });
  });
  return w.take();
}

std::string telemetry_to_prometheus(const MonitorTelemetry& t,
                                    const std::string& nf) {
  std::string out;
  const std::string label = "{nf=\"" + nf + "\"}";
  const auto metric = [&out, &label](const char* type, const char* name,
                                     const char* help, std::uint64_t value) {
    out += std::string("# HELP ") + name + ' ' + help + "\n# TYPE " + name +
           ' ' + type + '\n' + name + label + ' ' + std::to_string(value) +
           '\n';
  };
  const auto counter = [&metric](const char* name, const char* help,
                                 std::uint64_t value) {
    metric("counter", name, help, value);
  };
  counter("bolt_monitor_packets_total", "Packets executed through the NF.",
          t.packets_executed);
  counter("bolt_monitor_attr_memo_hits_total",
          "Attribution class-key memo short-circuits.", t.attr_memo_hits);
  counter("bolt_monitor_batches_total",
          "SoA batches handed from execute to validate.", t.batches_emitted);
  counter("bolt_monitor_vm_batch_evals_total",
          "Compiled-expression batch evaluations.", t.vm_batch_evals);
  counter("bolt_monitor_rows_validated_total",
          "Rows checked against contract bounds.", t.rows_validated);
  counter("bolt_monitor_epoch_sweeps_total",
          "Epoch-clock state-expiry sweeps.", t.epoch_sweeps);
  metric("gauge", "bolt_monitor_state_high_water",
         "Maximum tracked flow-state entries.", t.state_high_water);
  counter("bolt_monitor_delta_windows_total",
          "Delta report windows emitted.", t.delta_windows);
  counter("bolt_monitor_drift_alerts_total",
          "Contract-drift alerts raised.", t.drift_alerts);
  // Batch fill as a Prometheus summary: quantiles + _sum/_count.
  const perf::QuantileSummary fill = perf::summarize(t.batch_fill);
  out += "# HELP bolt_monitor_batch_fill Rows per emitted SoA batch.\n";
  out += "# TYPE bolt_monitor_batch_fill summary\n";
  const auto quantile = [&out, &nf](const char* q, std::uint64_t value) {
    out += "bolt_monitor_batch_fill{nf=\"" + nf + "\",quantile=\"";
    out += q;
    out += "\"} " + std::to_string(value) + '\n';
  };
  quantile("0.5", fill.p50);
  quantile("0.9", fill.p90);
  quantile("0.99", fill.p99);
  out += "bolt_monitor_batch_fill_sum" + label + ' ' +
         std::to_string(t.batch_rows) + '\n';
  out += "bolt_monitor_batch_fill_count" + label + ' ' +
         std::to_string(t.batches_emitted) + '\n';
  return out;
}

}  // namespace bolt::obs
