#include "obs/delta.h"

#include "support/json.h"

namespace bolt::obs {

std::string delta_window_to_json(const DeltaWindow& w) {
  support::JsonWriter j;
  j.object([&] {
    j.field("version", kDeltaSchemaVersion);
    j.field("window", w.window);
    j.field("window_start_ns", w.window * w.window_ns);
    j.field("window_ns", w.window_ns);
    j.field("packets", w.packets);
    j.field("violations", w.violations);
    j.array("classes", w.classes, [&](const DeltaClass& c) {
      j.object([&] {
        j.field("input_class", c.input_class);
        j.field("packets", c.packets);
        j.object("metrics", [&] {
          for (const perf::Metric m : perf::kAllMetrics) {
            const DeltaMetric& dm = c.metrics[perf::metric_index(m)];
            j.object(perf::metric_name(m), [&] {
              j.field("violations", dm.violations);
              j.key("headroom_pm");
              perf::summary_to_json(j, perf::summarize(dm.headroom_pm));
            });
          }
        });
      });
    });
    j.array("alerts", w.alerts, [&](const DriftAlert& a) {
      j.object([&] {
        j.field("input_class", a.input_class);
        j.field("metric", perf::metric_name(a.metric));
        j.field("p99_pm", a.p99_pm);
        j.field("slope_mpm", a.slope_mpm);
        j.field("eta_windows", a.eta_windows);
      });
    });
  });
  return j.take();
}

}  // namespace bolt::obs
