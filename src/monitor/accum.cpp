#include "monitor/accum.h"

#include <algorithm>
#include <utility>

namespace bolt::monitor {

using perf::Metric;
using perf::kAllMetrics;
using perf::metric_index;
using perf::summarize;

int util_cmp(std::uint64_t ma, std::int64_t pa, std::uint64_t mb,
             std::int64_t pb) {
  const bool inf_a = pa <= 0 && ma > 0;
  const bool inf_b = pb <= 0 && mb > 0;
  if (inf_a || inf_b) {
    if (inf_a && inf_b) return ma < mb ? -1 : ma > mb ? 1 : 0;
    return inf_a ? 1 : -1;
  }
  // Both finite; p <= 0 implies m == 0 here, i.e. utilization 0.
  const std::uint64_t na = pa > 0 ? ma : 0;
  const std::uint64_t da = pa > 0 ? static_cast<std::uint64_t>(pa) : 1;
  const std::uint64_t nb = pb > 0 ? mb : 0;
  const std::uint64_t db = pb > 0 ? static_cast<std::uint64_t>(pb) : 1;
  const unsigned __int128 lhs = static_cast<unsigned __int128>(na) * db;
  const unsigned __int128 rhs = static_cast<unsigned __int128>(nb) * da;
  return lhs < rhs ? -1 : lhs > rhs ? 1 : 0;
}

std::size_t util_bucket(std::uint64_t measured, std::int64_t predicted) {
  if (static_cast<std::int64_t>(measured) > predicted) return kViolationBucket;
  if (predicted <= 0 || measured == 0) return 0;
  const std::uint64_t b =
      measured * 10 / static_cast<std::uint64_t>(predicted);
  return std::min<std::uint64_t>(b, kViolationBucket - 1);
}

std::uint64_t util_pm(std::uint64_t measured, std::int64_t predicted) {
  if (predicted <= 0) return measured > 0 ? kDegenerateUtilPm : 0;
  return measured * 1000 / static_cast<std::uint64_t>(predicted);
}

bool offender_before(const Offender& a, const Offender& b) {
  const int cmp = util_cmp(a.measured, a.predicted, b.measured, b.predicted);
  if (cmp != 0) return cmp > 0;
  return a.packet_index < b.packet_index;
}

void MetricAccum::record(std::uint64_t packet, std::uint64_t measured,
                         std::int64_t predicted) {
  if (static_cast<std::int64_t>(measured) > predicted) ++violations;
  ++histogram[util_bucket(measured, predicted)];
  headroom_pm.add(util_pm(measured, predicted));
  const int cmp =
      util_cmp(measured, predicted, worst_measured, worst_predicted);
  if (!has_worst || cmp > 0 || (cmp == 0 && packet < worst_packet)) {
    has_worst = true;
    worst_packet = packet;
    worst_predicted = predicted;
    worst_measured = measured;
  }
}

void MetricAccum::merge(const MetricAccum& other) {
  violations += other.violations;
  for (std::size_t b = 0; b < kUtilizationBuckets; ++b) {
    histogram[b] += other.histogram[b];
  }
  headroom_pm.merge(other.headroom_pm);
  if (!other.has_worst) return;
  const int cmp = util_cmp(other.worst_measured, other.worst_predicted,
                           worst_measured, worst_predicted);
  if (!has_worst || cmp > 0 ||
      (cmp == 0 && other.worst_packet < worst_packet)) {
    has_worst = true;
    worst_packet = other.worst_packet;
    worst_predicted = other.worst_predicted;
    worst_measured = other.worst_measured;
  }
}

void ClassAccum::add_offender(const Offender& o, std::size_t cap) {
  if (cap == 0) return;
  const auto pos =
      std::lower_bound(offenders.begin(), offenders.end(), o, offender_before);
  if (pos == offenders.end() && offenders.size() >= cap) return;
  offenders.insert(pos, o);
  if (offenders.size() > cap) offenders.pop_back();
}

void ClassAccum::merge(const ClassAccum& other, std::size_t cap) {
  packets += other.packets;
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    metrics[m].merge(other.metrics[m]);
  }
  violation_margin_pm.merge(other.violation_margin_pm);
  for (const Offender& o : other.offenders) add_offender(o, cap);
}

void RunTotals::merge(const RunTotals& other) {
  if (other.unattributed > 0 || other.any_unattributed) {
    unattributed += other.unattributed;
    if (!any_unattributed || other.first_unattributed < first_unattributed) {
      any_unattributed = true;
      first_unattributed = other.first_unattributed;
    }
  }
  epoch_sweeps += other.epoch_sweeps;
  expired_idle += other.expired_idle;
  high_water = std::max(high_water, other.high_water);
  residents += other.residents;
  state_tracked = state_tracked || other.state_tracked;
}

MonitorReport build_report(const std::string& nf, std::uint64_t packets,
                           std::size_t partitions, bool cycles_checked,
                           std::uint64_t epoch_ns_option,
                           const std::vector<std::string>& entry_names,
                           std::vector<ClassAccum>&& merged,
                           const RunTotals& totals) {
  MonitorReport report;
  report.epoch_sweeps = totals.epoch_sweeps;
  report.state_expired_idle = totals.expired_idle;
  report.state_high_water = totals.high_water;
  report.state_residents = totals.residents;
  report.state_tracked = totals.state_tracked;

  report.nf = nf;
  report.packets = packets;
  report.unattributed = totals.unattributed;
  report.first_unattributed_packet = totals.first_unattributed;
  report.attributed = packets - totals.unattributed;
  report.partitions = partitions;
  report.cycles_checked = cycles_checked;
  // A target with no state observers never runs epoch maintenance, no
  // matter what the option says — report the effective value.
  report.epoch_ns = report.state_tracked ? epoch_ns_option : 0;
  report.classes.reserve(merged.size());
  for (std::size_t e = 0; e < merged.size(); ++e) {
    ClassReport cr;
    cr.input_class = entry_names[e];
    cr.packets = merged[e].packets;
    for (std::size_t m = 0; m < 3; ++m) {
      const MetricAccum& acc = merged[e].metrics[m];
      MetricReport& mr = cr.metrics[m];
      mr.violations = acc.violations;
      mr.worst_packet = acc.worst_packet;
      mr.worst_predicted = acc.worst_predicted;
      mr.worst_measured = acc.worst_measured;
      mr.histogram = acc.histogram;
      mr.headroom_pm = summarize(acc.headroom_pm);
      report.violations += acc.violations;
    }
    cr.violation_margin_pm = summarize(merged[e].violation_margin_pm);
    cr.offenders = std::move(merged[e].offenders);
    report.classes.push_back(std::move(cr));
  }
  // Classes sorted by input class for stable human output (contract
  // entries already arrive sorted from the generator; enforce anyway for
  // hand-built contracts).
  std::stable_sort(report.classes.begin(), report.classes.end(),
                   [](const ClassReport& a, const ClassReport& b) {
                     return a.input_class < b.input_class;
                   });
  return report;
}

obs::DeltaWindow build_delta_window(std::uint64_t window,
                                    std::uint64_t window_ns,
                                    const std::vector<std::string>& entry_names,
                                    const std::vector<ClassAccum>& accums,
                                    obs::DriftDetector& detector,
                                    std::vector<obs::DriftAlert>* alerts_out) {
  obs::DeltaWindow dw;
  dw.window = window;
  dw.window_ns = window_ns;
  for (std::size_t e = 0; e < accums.size(); ++e) {
    const ClassAccum& acc = accums[e];
    if (acc.packets == 0) continue;
    obs::DeltaClass dc;
    dc.input_class = entry_names[e];
    dc.packets = acc.packets;
    dw.packets += acc.packets;
    for (const Metric m : kAllMetrics) {
      const int mi = metric_index(m);
      dc.metrics[mi].violations = acc.metrics[mi].violations;
      dc.metrics[mi].headroom_pm = acc.metrics[mi].headroom_pm;
      dw.violations += acc.metrics[mi].violations;
    }
    dw.classes.push_back(std::move(dc));
  }
  std::stable_sort(dw.classes.begin(), dw.classes.end(),
                   [](const obs::DeltaClass& a, const obs::DeltaClass& b) {
                     return a.input_class < b.input_class;
                   });
  // Drift detection over exactly the stream the operator sees: one p99
  // point per (class, metric) per window, in window order.
  for (const obs::DeltaClass& dc : dw.classes) {
    for (const Metric m : kAllMetrics) {
      const perf::QuantileSketch& sk = dc.metrics[metric_index(m)].headroom_pm;
      if (sk.count() == 0) continue;
      obs::DriftAlert alert;
      if (detector.observe(dc.input_class, m, window, sk.quantile(0.99),
                           &alert)) {
        dw.alerts.push_back(alert);
        if (alerts_out != nullptr) alerts_out->push_back(std::move(alert));
      }
    }
  }
  return dw;
}

RunFold::RunFold(std::string nf, const std::vector<std::string>& entry_names,
                 const MonitorOptions& options, std::uint64_t window_ns)
    : nf_(std::move(nf)),
      entry_names_(entry_names),
      options_(options),
      window_ns_(window_ns),
      classes_(entry_names.size()),
      detector_(options.drift) {}

bool RunFold::render(std::uint64_t window,
                     const std::vector<ClassAccum>& accums,
                     obs::DriftDetector& detector,
                     std::vector<obs::DriftAlert>* alerts,
                     obs::DeltaWindow* rendered) const {
  if (window_ns_ == 0) return false;
  std::uint64_t attributed = 0;
  for (const ClassAccum& acc : accums) attributed += acc.packets;
  if (attributed == 0) return false;
  *rendered = build_delta_window(window, window_ns_, entry_names_, accums,
                                 detector, alerts);
  return true;
}

bool RunFold::close(std::uint64_t window,
                    const std::vector<ClassAccum>& accums,
                    const RunTotals& totals, obs::DeltaWindow* rendered) {
  const bool delta = render(window, accums, detector_, &alerts_, rendered);
  if (delta) ++delta_windows_;
  for (std::size_t e = 0; e < classes_.size(); ++e) {
    classes_[e].merge(accums[e], options_.max_offenders);
  }
  totals_.merge(totals);
  return delta;
}

bool RunFold::preview(std::uint64_t window,
                      const std::vector<ClassAccum>& accums,
                      obs::DeltaWindow* rendered) const {
  obs::DriftDetector scratch(options_.drift);
  return render(window, accums, scratch, nullptr, rendered);
}

obs::MonitorTelemetry RunFold::telemetry(obs::MonitorTelemetry counters) const {
  counters.epoch_sweeps = totals_.epoch_sweeps;
  counters.state_high_water = totals_.high_water;
  counters.delta_windows = delta_windows_;
  counters.drift_alerts = alerts_.size();
  return counters;
}

MonitorReport RunFold::finish(std::uint64_t packets, const RunTotals& tail,
                              const obs::MonitorTelemetry& counters,
                              obs::RunObservations* observations) {
  totals_.merge(tail);
  if (observations != nullptr) {
    observations->telemetry = telemetry(counters);
    observations->alerts = std::move(alerts_);
  }
  return build_report(nf_, packets, options_.partitions, options_.check_cycles,
                      options_.epoch_ns, entry_names_, std::move(classes_),
                      totals_);
}

}  // namespace bolt::monitor
