#include "obs/fleet.h"

#include <dirent.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "monitor/follow.h"
#include "support/assert.h"
#include "support/io.h"
#include "support/json.h"

namespace bolt::obs {

namespace {

using monitor::ClassAccum;
using monitor::MetricAccum;
using monitor::Offender;
using monitor::RunTotals;
using perf::QuantileSketch;
using support::JsonReader;

/// The wire-only head of a partial (the rest lives in the partial).
struct Header {
  std::int64_t fleet_schema = kFleetSchemaVersion;
  std::string kind;
};

// The layouts below are the one declaration of each partial's key order
// (docs/OBSERVABILITY.md "Fleet partial schema"); window_partial_to_json
// and decode_window_partial, and their final-partial twins, both run them.

template <class J, class H, class P>
void header_fields(J& j, H& h, P& p) {
  j.field("fleet_schema", h.fleet_schema);
  j.field("kind", h.kind);
  j.field("nf", p.nf);
  j.field("instance", p.instance);
  j.field("instances", p.instances);
}

template <class J, class M> void metric_layout(J& j, M& m) {
  j.object([&] {
    j.field("violations", m.violations);
    j.field("has_worst", m.has_worst);
    j.field("worst_packet", m.worst_packet);
    j.field("worst_predicted", m.worst_predicted);
    j.field("worst_measured", m.worst_measured);
    j.field("histogram", m.histogram);
    j.key("headroom");
    QuantileSketch::layout(j, m.headroom_pm);
  });
}

template <class J, class N, class A>
void class_layout(J& j, N& name, A& acc) {
  j.object([&] {
    j.field("input_class", name);
    j.field("packets", acc.packets);
    j.array("metrics", acc.metrics, [&](auto& m) { metric_layout(j, m); });
    j.key("violation_margin");
    QuantileSketch::layout(j, acc.violation_margin_pm);
    j.array("offenders", acc.offenders, [&](auto& o) {
      j.tuple(o.packet_index, o.metric, o.predicted, o.measured);
    });
  });
}

template <class J, class H, class P>
void window_layout(J& j, H& h, P& p) {
  j.object([&] {
    header_fields(j, h, p);
    j.field("window", p.window);
    j.field("window_ns", p.window_ns);
    j.object("stats", [&] {
      j.field("packets", p.packets);
      j.field("unattributed", p.unattributed);
      j.field("first_unattributed", p.first_unattributed);
      j.field("any_unattributed", p.any_unattributed);
      j.field("epoch_sweeps", p.epoch_sweeps);
      j.field("expired_idle", p.expired_idle);
      j.field("high_water", p.high_water);
      j.field("late_packets", p.late_packets);
    });
    j.array("classes", p.classes, p.accums,
            [&](auto& name, auto& acc) { class_layout(j, name, acc); });
  });
}

template <class J, class H, class P>
void final_layout(J& j, H& h, P& p) {
  j.object([&] {
    header_fields(j, h, p);
    j.field("stream_packets", p.stream_packets);
    j.field("partitions", p.partitions);
    j.field("cycles_checked", p.cycles_checked);
    j.field("epoch_ns", p.epoch_ns);
    j.field("max_offenders", p.max_offenders);
    j.field("entries", p.entries);
    j.field("residents", p.residents);
    j.field("state_tracked", p.state_tracked);
    j.key("telemetry");
    j.nullable(p.has_telemetry, [&] {
      j.object([&] {
        telemetry_fields(j, p.telemetry, [&] {
          QuantileSketch::layout(j, p.telemetry.batch_fill);
        });
      });
    });
  });
}

/// Why a read-back class accumulator is inconsistent, or "".
std::string accum_error(const ClassAccum& acc) {
  for (const MetricAccum& m : acc.metrics) {
    if (const char* why = m.headroom_pm.invariant_error()) return why;
  }
  if (const char* why = acc.violation_margin_pm.invariant_error()) return why;
  for (const Offender& o : acc.offenders) {
    const int mi = perf::metric_index(o.metric);
    if (mi < 0 || mi >= 3) return "offender metric index out of range";
  }
  return "";
}

/// The decode verdict. A header of another schema or kind is reported
/// first: it explains any structural failure after it.
bool verdict(const JsonReader& r, const Header& h, const char* kind,
             const std::string& why, std::string* error) {
  if (h.fleet_schema != kFleetSchemaVersion) {
    *error = r.invalid("unsupported fleet partial schema v" +
                       std::to_string(h.fleet_schema));
  } else if (h.kind != kind) {
    *error = r.invalid("expected kind '" + std::string(kind) + "', got '" +
                       h.kind + "'");
  } else if (!r.ok()) {
    *error = r.error();
  } else if (!why.empty()) {
    *error = r.invalid(why);
  } else {
    return true;
  }
  return false;
}

}  // namespace

WindowPartial window_partial(const monitor::StreamMonitor& sm,
                             const monitor::ClosedWindow& cw) {
  WindowPartial wp;
  wp.nf = sm.nf_name();
  wp.instance = sm.fleet().instance;
  wp.instances = sm.fleet().instances;
  wp.window = cw.window;
  wp.window_ns = cw.window_ns;
  for (std::size_t e = 0; e < cw.accums->size(); ++e) {
    const ClassAccum& acc = (*cw.accums)[e];
    if (acc.packets == 0) continue;
    wp.classes.push_back(sm.entry_names()[e]);
    wp.accums.push_back(acc);
  }
  const monitor::WindowStats& stats = *cw.stats;
  wp.packets = stats.packets;
  wp.unattributed = stats.unattributed;
  wp.first_unattributed = stats.first_unattributed;
  wp.any_unattributed = stats.any_unattributed;
  wp.epoch_sweeps = stats.epoch_sweeps;
  wp.expired_idle = stats.expired_idle;
  wp.high_water = stats.high_water;
  wp.late_packets = stats.late_packets;
  return wp;
}

FinalPartial final_partial(const monitor::StreamMonitor& sm,
                           const monitor::StreamResult& result) {
  const monitor::MonitorOptions& options = sm.options();
  FinalPartial fp;
  fp.nf = sm.nf_name();
  fp.instance = sm.fleet().instance;
  fp.instances = sm.fleet().instances;
  fp.stream_packets = sm.packets_fed();
  fp.partitions = options.partitions;
  fp.cycles_checked = options.check_cycles;
  fp.epoch_ns = options.epoch_ns;
  fp.max_offenders = options.max_offenders;
  fp.entries = sm.entry_names();
  fp.residents = result.report.state_residents;
  fp.state_tracked = result.report.state_tracked;
  fp.has_telemetry = options.telemetry;
  fp.telemetry = result.observations.telemetry;
  return fp;
}

std::string window_partial_to_json(const WindowPartial& p) {
  const Header h{kFleetSchemaVersion, "window"};
  support::JsonWriter w;
  window_layout(w, h, p);
  return w.take();
}

std::string final_partial_to_json(const FinalPartial& p) {
  const Header h{kFleetSchemaVersion, "final"};
  support::JsonWriter w;
  final_layout(w, h, p);
  return w.take();
}

bool decode_window_partial(const std::string& text, WindowPartial* out,
                           std::string* error) {
  // Defaults that only a read value can contradict.
  Header h{kFleetSchemaVersion, "window"};
  JsonReader r(text, "fleet window partial");
  window_layout(r, h, *out);
  r.end();
  std::string why;
  for (std::size_t c = 0; c < out->accums.size() && why.empty(); ++c) {
    why = accum_error(out->accums[c]);
  }
  return verdict(r, h, "window", why, error);
}

bool decode_final_partial(const std::string& text, FinalPartial* out,
                          std::string* error) {
  Header h{kFleetSchemaVersion, "final"};
  JsonReader r(text, "fleet final partial");
  final_layout(r, h, *out);
  r.end();
  const char* why = out->telemetry.batch_fill.invariant_error();
  return verdict(r, h, "final", why != nullptr ? why : "", error);
}

WindowPartial parse_window_partial(const std::string& text) {
  WindowPartial p;
  std::string error;
  if (!decode_window_partial(text, &p, &error)) {
    support::fatal(error, __FILE__, __LINE__);
  }
  return p;
}

FinalPartial parse_final_partial(const std::string& text) {
  FinalPartial p;
  std::string error;
  if (!decode_final_partial(text, &p, &error)) {
    support::fatal(error, __FILE__, __LINE__);
  }
  return p;
}

std::string spool_window_path(const std::string& dir, const std::string& nf,
                              std::uint32_t instance, std::uint64_t window) {
  return dir + "/" + nf + ".i" + std::to_string(instance) + ".w" +
         std::to_string(window) + ".json";
}

std::string spool_final_path(const std::string& dir, const std::string& nf,
                             std::uint32_t instance) {
  return dir + "/" + nf + ".i" + std::to_string(instance) + ".final.json";
}

bool read_spool(const std::string& dir, const std::string& nf,
                std::vector<WindowPartial>* windows,
                std::vector<FinalPartial>* finals, std::string* error) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return true;  // no spool yet — nothing to merge
  const std::string prefix = nf + ".i";
  std::vector<std::string> names;
  while (const dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + 5) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - 5, 5, ".json") != 0) continue;
    names.push_back(name);
  }
  closedir(d);
  // Sorted scan order: the result is deterministic no matter how the
  // filesystem enumerates.
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    std::string text;
    std::string why;
    bool ok = support::read_file(path, &text);
    if (!ok) {
      why = "cannot read fleet partial";
    } else if (name.size() > 11 &&
               name.compare(name.size() - 11, 11, ".final.json") == 0) {
      ok = decode_final_partial(text, &finals->emplace_back(), &why);
    } else {
      ok = decode_window_partial(text, &windows->emplace_back(), &why);
    }
    if (!ok) {
      *error = path + ": " + why;
      return false;
    }
  }
  return true;
}

FleetMergeResult merge_partials(const std::vector<WindowPartial>& windows,
                                const std::vector<FinalPartial>& finals,
                                const DriftOptions& drift) {
  BOLT_CHECK(!finals.empty(),
             "fleet merge: no final partials (every instance must drain "
             "before merging)");

  // Deduplicate finals by instance. Duplicates should be byte-identical
  // copies; keep the max (stream_packets, serialised bytes) so the choice
  // is order-independent even if they are not.
  std::map<std::uint32_t, const FinalPartial*> final_by_instance;
  for (const FinalPartial& f : finals) {
    auto [it, inserted] = final_by_instance.emplace(f.instance, &f);
    if (inserted) continue;
    const FinalPartial* kept = it->second;
    if (f.stream_packets > kept->stream_packets ||
        (f.stream_packets == kept->stream_packets &&
         final_partial_to_json(f) > final_partial_to_json(*kept))) {
      it->second = &f;
    }
  }

  const FinalPartial& ref = *final_by_instance.begin()->second;
  for (const auto& [instance, f] : final_by_instance) {
    BOLT_CHECK(f->nf == ref.nf, "fleet merge: partials disagree on nf");
    BOLT_CHECK(f->instances == ref.instances,
               "fleet merge: partials disagree on fleet size");
    BOLT_CHECK(instance < f->instances,
               "fleet merge: instance id out of range");
    BOLT_CHECK(f->partitions == ref.partitions,
               "fleet merge: partials disagree on partitions");
    BOLT_CHECK(f->cycles_checked == ref.cycles_checked,
               "fleet merge: partials disagree on cycles_checked");
    BOLT_CHECK(f->epoch_ns == ref.epoch_ns,
               "fleet merge: partials disagree on epoch_ns");
    BOLT_CHECK(f->max_offenders == ref.max_offenders,
               "fleet merge: partials disagree on max_offenders");
    BOLT_CHECK(f->entries == ref.entries,
               "fleet merge: partials disagree on the contract entry list");
  }

  // Deduplicate window partials by (instance, window), same tie-break.
  std::map<std::pair<std::uint32_t, std::uint64_t>, const WindowPartial*>
      window_by_key;
  for (const WindowPartial& w : windows) {
    BOLT_CHECK(w.nf == ref.nf, "fleet merge: partials disagree on nf");
    BOLT_CHECK(w.instances == ref.instances,
               "fleet merge: partials disagree on fleet size");
    const auto key = std::make_pair(w.instance, w.window);
    auto [it, inserted] = window_by_key.emplace(key, &w);
    if (inserted) continue;
    const WindowPartial* kept = it->second;
    if (w.packets > kept->packets ||
        (w.packets == kept->packets &&
         window_partial_to_json(w) > window_partial_to_json(*kept))) {
      it->second = &w;
    }
  }

  const std::vector<std::string>& entry_names = ref.entries;
  std::unordered_map<std::string, std::size_t> entry_index;
  for (std::size_t e = 0; e < entry_names.size(); ++e) {
    entry_index.emplace(entry_names[e], e);
  }
  monitor::MonitorOptions shape;
  shape.partitions = static_cast<std::size_t>(ref.partitions);
  shape.check_cycles = ref.cycles_checked;
  shape.epoch_ns = ref.epoch_ns;
  shape.max_offenders = static_cast<std::size_t>(ref.max_offenders);
  shape.drift = drift;

  // Merge instances per window (std::map: the fold takes windows in
  // ascending order). Window bookkeeping is window-independent sums,
  // minima and maxima, so it folds straight into the run's tail.
  std::uint64_t window_ns = 0;
  std::map<std::uint64_t, std::vector<ClassAccum>> merged_windows;
  RunTotals tail;
  for (const auto& [key, w] : window_by_key) {
    if (w->window_ns > 0) {
      BOLT_CHECK(window_ns == 0 || window_ns == w->window_ns,
                 "fleet merge: partials disagree on window_ns");
      window_ns = w->window_ns;
    }
    auto [it, inserted] = merged_windows.try_emplace(w->window);
    if (inserted) it->second.assign(entry_names.size(), ClassAccum{});
    for (std::size_t c = 0; c < w->classes.size(); ++c) {
      const auto at = entry_index.find(w->classes[c]);
      BOLT_CHECK(at != entry_index.end(),
                 "fleet merge: window partial names unknown class '" +
                     w->classes[c] + "'");
      it->second[at->second].merge(w->accums[c], shape.max_offenders);
    }
    RunTotals wt;
    wt.unattributed = w->unattributed;
    wt.first_unattributed = w->first_unattributed;
    wt.any_unattributed = w->any_unattributed;
    wt.epoch_sweeps = w->epoch_sweeps;
    wt.expired_idle = w->expired_idle;
    wt.high_water = w->high_water;
    tail.merge(wt);
  }

  // Stream length: every instance fed the full stream, so finals agree;
  // max tolerates an instance that was drained early.
  std::uint64_t stream_packets = 0;
  MonitorTelemetry counters;
  for (const auto& [instance, f] : final_by_instance) {
    stream_packets = std::max(stream_packets, f->stream_packets);
    tail.residents += f->residents;
    tail.state_tracked = tail.state_tracked || f->state_tracked;
    if (f->has_telemetry) counters.merge(f->telemetry);
  }

  FleetMergeResult out;
  monitor::RunFold fold(ref.nf, entry_names, shape, window_ns);
  for (const auto& [window, accums] : merged_windows) {
    DeltaWindow dw;
    if (fold.close(window, accums, RunTotals{}, &dw)) {
      out.observations.deltas.push_back(std::move(dw));
    }
  }
  out.report = fold.finish(stream_packets, tail, counters, &out.observations);
  return out;
}

}  // namespace bolt::obs
