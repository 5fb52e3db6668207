// Order-independent accumulators and the one window fold shared by the
// monitor (StreamMonitor, behind batch, daemon and fleet runs) and the
// fleet merger.
//
// Every accumulator here merges order-independently: counters are sums,
// worsts are maxima under a *total* order (utilization, ties by packet
// index), the bounded offender list is a top-k under the same total order,
// and the sketches are merge-order independent by property test. That is
// what lets statistics accumulate per partition, per validation block, per
// window, or per fleet instance — whose composition depends on execution
// or on deployment shape — and still merge to byte-identical reports.
//
// RunFold is where every deployment shape closes its windows: the monitor
// after merging its partitions' share of each window as packet timestamps
// pass it, the fleet merger after its dedupe. It renders the delta line,
// runs the drift pass, folds the window into the run and finally renders
// the report, so "byte-identical to the batch run" holds by construction
// rather than by keeping copies in step.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "monitor/report.h"
#include "obs/delta.h"
#include "obs/drift.h"
#include "obs/telemetry.h"
#include "perf/metric.h"
#include "perf/quantile_sketch.h"

namespace bolt::monitor {

/// Per-mille utilization recorded for a degenerate bound (predicted <= 0
/// with measured work): effectively infinite, clamped so the sketch stays
/// in integer range.
inline constexpr std::uint64_t kDegenerateUtilPm = 1'000'000'000ull;

/// Exact utilization comparison between two (measured, predicted) pairs
/// without floating point: u(m, p) = m/p for p > 0; 0 when m == 0; and
/// +inf when p <= 0 but work was measured (a degenerate bound is an
/// automatic violation). Returns <0, 0, >0 like strcmp.
int util_cmp(std::uint64_t ma, std::int64_t pa, std::uint64_t mb,
             std::int64_t pb);

/// Decile bucket for a compliant packet, kViolationBucket for a violation.
std::size_t util_bucket(std::uint64_t measured, std::int64_t predicted);

/// Utilization in per-mille of the bound (the sketch's unit).
std::uint64_t util_pm(std::uint64_t measured, std::int64_t predicted);

/// Strictly-higher-utilization-first ordering (ties: lower packet index).
bool offender_before(const Offender& a, const Offender& b);

struct MetricAccum {
  std::uint64_t violations = 0;
  bool has_worst = false;
  std::uint64_t worst_packet = 0;
  std::int64_t worst_predicted = 0;
  std::uint64_t worst_measured = 0;
  std::array<std::uint64_t, kUtilizationBuckets> histogram{};
  perf::QuantileSketch headroom_pm;

  void record(std::uint64_t packet, std::uint64_t measured,
              std::int64_t predicted);
  void merge(const MetricAccum& other);
};

struct ClassAccum {
  std::uint64_t packets = 0;
  std::array<MetricAccum, 3> metrics;
  perf::QuantileSketch violation_margin_pm;
  std::vector<Offender> offenders;  ///< sorted by offender_before, bounded

  void add_offender(const Offender& o, std::size_t cap);
  void merge(const ClassAccum& other, std::size_t cap);
};

/// Everything a run accumulates outside the per-class statistics. Sums,
/// minima (first unattributed packet) and maxima (state high water) — all
/// order-independent, so partitions, closed windows and fleet partials fold
/// through the same type.
struct RunTotals {
  std::uint64_t unattributed = 0;
  std::uint64_t first_unattributed = 0;
  bool any_unattributed = false;
  std::uint64_t epoch_sweeps = 0;
  std::uint64_t expired_idle = 0;
  std::uint64_t high_water = 0;
  std::uint64_t residents = 0;
  bool state_tracked = false;

  void merge(const RunTotals& other);
};

/// Per-window run bookkeeping outside the per-class statistics: the
/// window's RunTotals (residents and state_tracked stay unset) and packet
/// counts. Sums, minima and maxima only — fleet partials carry one per
/// closed window and the merger folds them in any order.
struct WindowStats : RunTotals {
  std::uint64_t packets = 0;  ///< owned packets landed in this window
  /// Owned packets whose timestamp fell before the open window (clamped
  /// into it). Diagnostic only — a healthy monotone stream has zero.
  std::uint64_t late_packets = 0;
};

/// Renders the final MonitorReport from fully merged per-entry accumulators
/// (parallel to `entry_names`, the contract entry order) and run totals.
/// `epoch_ns_option` is MonitorOptions::epoch_ns — the report carries the
/// *effective* value (0 when the target tracks no state). Consumes the
/// accumulators (offender vectors are moved into the report).
MonitorReport build_report(const std::string& nf, std::uint64_t packets,
                           std::size_t partitions, bool cycles_checked,
                           std::uint64_t epoch_ns_option,
                           const std::vector<std::string>& entry_names,
                           std::vector<ClassAccum>&& merged,
                           const RunTotals& totals);

/// Renders one delta window from per-entry accumulations (parallel to
/// `entry_names`; only entries with packets appear) and feeds the drift
/// detector exactly the stream the operator sees: one p99 point per (class,
/// metric) per window, classes in sorted order. Raised alerts land in the
/// returned window *and* in `alerts_out` (when non-null). Call in ascending
/// window order — the detector is stateful.
obs::DeltaWindow build_delta_window(std::uint64_t window,
                                    std::uint64_t window_ns,
                                    const std::vector<std::string>& entry_names,
                                    const std::vector<ClassAccum>& accums,
                                    obs::DriftDetector& detector,
                                    std::vector<obs::DriftAlert>* alerts_out);

/// The run's one window fold (see the file comment).
class RunFold {
 public:
  /// `entry_names` must outlive the fold. Report shape and drift tuning
  /// come from `options`; `window_ns` is 0 when delta mode is off.
  RunFold(std::string nf, const std::vector<std::string>& entry_names,
          const MonitorOptions& options, std::uint64_t window_ns);

  /// Folds the next closed window (ascending order: drift is stateful).
  /// In delta mode, a window with attributed traffic — exactly the windows
  /// a batch delta stream holds — is rendered into `*rendered` through
  /// the drift pass, and close() returns true.
  bool close(std::uint64_t window, const std::vector<ClassAccum>& accums,
             const RunTotals& totals, obs::DeltaWindow* rendered);

  /// Renders a still-open window for an idle flush: a scratch detector
  /// with one window never reaches min_points, and nothing folds.
  bool preview(std::uint64_t window, const std::vector<ClassAccum>& accums,
               obs::DeltaWindow* rendered) const;

  /// `counters` with the merge-time facts folded so far mirrored in:
  /// epoch sweeps, state high water, delta windows, drift alerts.
  obs::MonitorTelemetry telemetry(obs::MonitorTelemetry counters) const;

  /// Folds `tail` (totals outside any window) and renders the report.
  /// `observations`, when non-null, gets the alerts and
  /// telemetry(counters); its deltas are the caller's. Call once.
  MonitorReport finish(std::uint64_t packets, const RunTotals& tail,
                       const obs::MonitorTelemetry& counters,
                       obs::RunObservations* observations);

 private:
  bool render(std::uint64_t window, const std::vector<ClassAccum>& accums,
              obs::DriftDetector& detector,
              std::vector<obs::DriftAlert>* alerts,
              obs::DeltaWindow* rendered) const;

  std::string nf_;
  const std::vector<std::string>& entry_names_;
  MonitorOptions options_;
  std::uint64_t window_ns_;
  std::vector<ClassAccum> classes_;  ///< folded windows, per contract entry
  RunTotals totals_;
  obs::DriftDetector detector_;
  std::vector<obs::DriftAlert> alerts_;
  std::uint64_t delta_windows_ = 0;
};

}  // namespace bolt::monitor
