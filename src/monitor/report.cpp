#include "monitor/report.h"

#include <cstdio>

#include "support/json.h"
#include "support/strings.h"

namespace bolt::monitor {

namespace {

std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", v * 100.0);
  return buf;
}

std::string pm(std::uint64_t per_mille) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%",
                static_cast<double>(per_mille) / 10.0);
  return buf;
}

}  // namespace

double MetricReport::max_utilization() const {
  if (worst_predicted <= 0) return worst_measured > 0 ? 1.0 : 0.0;
  return static_cast<double>(worst_measured) /
         static_cast<double>(worst_predicted);
}

std::string MonitorReport::str() const {
  std::string out;
  out += "monitor: " + nf + " — " + support::with_commas(
             static_cast<std::int64_t>(packets)) + " packets, " +
         std::to_string(partitions) + " partitions\n";
  out += "violations: " + support::with_commas(
             static_cast<std::int64_t>(violations));
  if (unattributed > 0) {
    out += "   UNATTRIBUTED: " + support::with_commas(
               static_cast<std::int64_t>(unattributed)) +
           " (first at packet " +
           std::to_string(first_unattributed_packet) + ")";
  }
  out += '\n';
  if (state_tracked) {
    out += "state: high-water " + support::with_commas(
               static_cast<std::int64_t>(state_high_water)) +
           " entries/partition, " + support::with_commas(
               static_cast<std::int64_t>(state_residents)) +
           " resident, " + support::with_commas(
               static_cast<std::int64_t>(state_expired_idle)) +
           " idle-expired over " + support::with_commas(
               static_cast<std::int64_t>(epoch_sweeps)) +
           " epoch sweeps\n";
  }
  out += '\n';

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Input Class", "Packets", "Viol", "IC worst", "IC p99",
                  "MA worst", cycles_checked ? "Cyc worst" : "Cyc (off)"});
  for (const ClassReport& c : classes) {
    std::uint64_t viol = 0;
    for (const auto& m : c.metrics) viol += m.violations;
    std::array<std::string, 3> worst;
    for (const perf::Metric m : perf::kAllMetrics) {
      const MetricReport& mr = c.metrics[perf::metric_index(m)];
      worst[perf::metric_index(m)] =
          m == perf::Metric::kCycles && !cycles_checked
              ? "-"
              : pct(mr.max_utilization());
    }
    const MetricReport& ic =
        c.metrics[perf::metric_index(perf::Metric::kInstructions)];
    rows.push_back({c.input_class,
                    support::with_commas(static_cast<std::int64_t>(c.packets)),
                    std::to_string(viol), worst[0],
                    c.packets > 0 ? pm(ic.headroom_pm.p99) : "-", worst[1],
                    worst[2]});
  }
  out += support::render_table(rows);

  // Worst offenders of classes that violated (reproducer pointers).
  for (const ClassReport& c : classes) {
    for (const Offender& o : c.offenders) {
      if (static_cast<std::int64_t>(o.measured) <= o.predicted) continue;
      out += "VIOLATION " + c.input_class + ": packet " +
             std::to_string(o.packet_index) + " " +
             std::string(perf::metric_name(o.metric)) + " measured " +
             support::with_commas(static_cast<std::int64_t>(o.measured)) +
             " > predicted " + support::with_commas(o.predicted) + "\n";
    }
  }
  return out;
}

std::string report_to_json(const MonitorReport& report) {
  support::JsonWriter w;
  w.object([&] {
    w.field("version", kReportSchemaVersion);
    w.field("nf", report.nf);
    w.field("packets", report.packets);
    w.field("attributed", report.attributed);
    w.field("unattributed", report.unattributed);
    if (report.unattributed > 0) {
      w.field("first_unattributed_packet", report.first_unattributed_packet);
    }
    w.field("violations", report.violations);
    w.field("partitions", report.partitions);
    w.field("cycles_checked", report.cycles_checked);
    w.field("state_tracked", report.state_tracked);
    w.field("epoch_ns", report.epoch_ns);
    w.field("epoch_sweeps", report.epoch_sweeps);
    w.field("state_expired_idle", report.state_expired_idle);
    w.field("state_high_water", report.state_high_water);
    w.field("state_residents", report.state_residents);
    w.array("classes", report.classes, [&](const ClassReport& c) {
      w.object([&] {
        w.field("input_class", c.input_class);
        w.field("packets", c.packets);
        w.object("metrics", [&] {
          for (const perf::Metric m : perf::kAllMetrics) {
            const MetricReport& mr = c.metrics[perf::metric_index(m)];
            w.object(perf::metric_name(m), [&] {
              w.field("violations", mr.violations);
              w.field("worst_packet", mr.worst_packet);
              w.field("worst_predicted", mr.worst_predicted);
              w.field("worst_measured", mr.worst_measured);
              w.field("histogram", mr.histogram);
              w.key("headroom_pm");
              perf::summary_to_json(w, mr.headroom_pm);
            });
          }
        });
        w.key("violation_margin_pm");
        perf::summary_to_json(w, c.violation_margin_pm);
        w.array("offenders", c.offenders, [&](const Offender& o) {
          w.object([&] {
            w.field("packet", o.packet_index);
            w.field("metric", perf::metric_name(o.metric));
            w.field("predicted", o.predicted);
            w.field("measured", o.measured);
          });
        });
      });
    });
  });
  return w.take();
}

}  // namespace bolt::monitor
