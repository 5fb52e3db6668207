#include "adversary/report.h"

#include <algorithm>
#include <unordered_map>

#include "support/assert.h"
#include "support/json.h"
#include "support/strings.h"

namespace bolt::adversary {

namespace {

using perf::Metric;
using perf::kAllMetrics;
using perf::metric_index;

}  // namespace

std::vector<std::string> GapReport::unreached_classes() const {
  std::vector<std::string> out;
  for (const ClassGap& g : classes) {
    if (!g.reached) out.push_back(g.input_class);
  }
  return out;
}

std::string GapReport::str() const {
  std::string out = "adversarial gap report: " + nf + "\n";
  out += "  packets " + std::to_string(packets) + "   classes reached " +
         std::to_string(classes_reached) + "/" +
         std::to_string(classes_total) + "   attribution mismatches " +
         std::to_string(mismatched);
  if (mismatched > 0) {
    out += " (first at packet " + std::to_string(first_mismatch) + ")";
  }
  out += "   violations " + std::to_string(monitor.violations) + "\n\n";

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Input Class", "Planned", "Observed", "Viol",
                  "p99 bound use (IC/MA/cyc)", "Note"});
  for (const ClassGap& g : classes) {
    std::string util;
    for (std::size_t m = 0; m < 3; ++m) {
      if (m != 0) util += " / ";
      util += std::to_string(g.p99_util_pm[m] / 10) + "." +
              std::to_string(g.p99_util_pm[m] % 10) + "%";
    }
    rows.push_back({g.input_class,
                    support::with_commas(static_cast<std::int64_t>(g.planned)),
                    support::with_commas(static_cast<std::int64_t>(g.observed)),
                    std::to_string(g.violations), util,
                    g.reached ? g.note : ("UNREACHED: " + g.note)});
  }
  out += support::render_table(rows);
  return out;
}

std::string gap_report_to_json(const GapReport& report) {
  support::JsonWriter w;
  w.object([&] {
    w.field("version", 1);
    w.field("nf", report.nf);
    w.field("packets", report.packets);
    w.field("mismatched", report.mismatched);
    w.field("first_mismatch", report.first_mismatch);
    w.field("classes_total", report.classes_total);
    w.field("classes_reached", report.classes_reached);
    w.field("violations", report.monitor.violations);
    w.array("classes", report.classes, [&](const ClassGap& g) {
      w.object([&] {
        w.field("input_class", g.input_class);
        w.field("planned", g.planned);
        w.field("observed", g.observed);
        w.field("reached", g.reached);
        w.field("violations", g.violations);
        w.field("p99_util_pm", g.p99_util_pm);
        w.field("note", g.note);
      });
    });
  });
  return w.take();
}

GapReport replay(const AdversarialTrace& trace, const perf::Contract& contract,
                 const perf::PcvRegistry& reg,
                 monitor::MonitorOptions options) {
  BOLT_CHECK(trace.plans.size() == trace.packets.size(),
             "adversary: trace plans and packets disagree");
  BOLT_CHECK(trace.contract_nf == contract.nf_name(),
             "adversary: trace was synthesised against contract '" +
                 trace.contract_nf + "', not '" + contract.nf_name() + "'");
  // Partition count and epoch clock are part of the plan's semantics — the
  // shadow evolved its state under them.
  options.partitions = trace.partitions;
  options.epoch_ns = trace.epoch_ns;

  monitor::MonitorEngine engine(contract, reg, options);
  std::vector<std::uint32_t> attribution;
  GapReport gap;
  gap.monitor = engine.run(trace.packets,
                           monitor::MonitorEngine::named_factory(trace.nf),
                           &attribution);
  gap.nf = trace.nf;
  gap.packets = trace.packets.size();
  gap.classes_total = contract.entries().size();

  // Close the loop packet-by-packet: the plan's attribution must be what
  // the monitor observed (kNoEntry and kUnattributedEntry share a value).
  static_assert(kNoEntry == monitor::kUnattributedEntry,
                "plan and monitor sentinel values must agree");
  for (std::size_t i = 0; i < trace.plans.size(); ++i) {
    if (trace.plans[i].entry != attribution[i]) {
      if (gap.mismatched == 0) gap.first_mismatch = i;
      ++gap.mismatched;
    }
  }

  std::unordered_map<std::string, const monitor::ClassReport*> observed;
  for (const monitor::ClassReport& cr : gap.monitor.classes) {
    observed.emplace(cr.input_class, &cr);
  }
  gap.classes.reserve(contract.entries().size());
  for (std::size_t e = 0; e < contract.entries().size(); ++e) {
    ClassGap g;
    g.input_class = contract.entries()[e].input_class;
    if (e < trace.classes.size()) {
      g.planned = trace.classes[e].packets;
      g.note = trace.classes[e].note;
    }
    const auto it = observed.find(g.input_class);
    if (it != observed.end()) {
      const monitor::ClassReport& cr = *it->second;
      g.observed = cr.packets;
      g.reached = cr.packets > 0;
      for (const Metric m : kAllMetrics) {
        const std::size_t mi = metric_index(m);
        g.violations += cr.metrics[mi].violations;
        g.p99_util_pm[mi] = cr.metrics[mi].headroom_pm.p99;
        g.best_p99_util_pm = std::max(g.best_p99_util_pm, g.p99_util_pm[mi]);
      }
    }
    if (g.reached) ++gap.classes_reached;
    gap.classes.push_back(std::move(g));
  }
  return gap;
}

}  // namespace bolt::adversary
