#include "adversary/trace.h"

#include <cstdio>

#include "net/pcap.h"
#include "support/assert.h"
#include "support/io.h"
#include "support/json.h"

namespace bolt::adversary {

namespace {

/// One sidecar row per packet: its plan plus the ingress port PCAP lacks.
struct PlanRow {
  std::int64_t entry = -1;  ///< contract entry; kNoEntry serialises as -1
  std::int64_t in_port = 0;
  std::array<std::int64_t, 3> predicted{};
};

/// The sidecar's wire-only parts (the rest lives in AdversarialTrace).
struct Sidecar {
  std::int64_t version = kTraceSchemaVersion;
  std::vector<PlanRow> rows;
};

/// The one declaration of the sidecar's key order.
template <class J, class T, class S>
void sidecar_layout(J& j, T& trace, S& sidecar) {
  j.object([&] {
    j.field("version", sidecar.version);
    j.field("nf", trace.nf);
    j.field("contract_nf", trace.contract_nf);
    j.field("seed", trace.seed);
    j.field("partitions", trace.partitions);
    j.field("epoch_ns", trace.epoch_ns);
    j.array("classes", trace.classes, [&](auto& cp) {
      j.object([&] {
        j.field("input_class", cp.input_class);
        j.field("packets", cp.packets);
        j.field("reached", cp.reached);
        j.field("note", cp.note);
      });
    });
    j.array("packets", sidecar.rows, [&](auto& row) {
      j.object([&] {
        j.field("entry", row.entry);
        j.field("in_port", row.in_port);
        j.field("predicted", row.predicted);
      });
    });
  });
}

std::string plan_to_json(const AdversarialTrace& trace) {
  Sidecar sidecar;
  for (std::size_t i = 0; i < trace.plans.size(); ++i) {
    const PacketPlan& plan = trace.plans[i];
    PlanRow& row = sidecar.rows.emplace_back();
    if (plan.entry != kNoEntry) row.entry = plan.entry;
    row.in_port = trace.packets[i].in_port();
    row.predicted = plan.predicted;
  }
  support::JsonWriter w;
  sidecar_layout(w, trace, sidecar);
  return w.take();
}

/// Why the pass's rows do not make a valid plan for `trace`, or "".
std::string plan_error(const AdversarialTrace& trace, const Sidecar& sidecar) {
  if (trace.partitions == 0) return "partitions must be positive";
  for (std::size_t i = 0; i < sidecar.rows.size(); ++i) {
    const PlanRow& row = sidecar.rows[i];
    // -1 is the explicit "no contract entry" marker; anything else must
    // index the class table this very sidecar declared.
    if (row.entry < -1) return "packet plan entry below -1";
    if (row.entry >= 0 &&
        static_cast<std::uint64_t>(row.entry) >= trace.classes.size()) {
      return "packet plan entry " + std::to_string(row.entry) +
             " out of range (sidecar declares " +
             std::to_string(trace.classes.size()) + " classes)";
    }
    if (row.in_port < 0 || row.in_port > 0xffff) {
      return "in_port " + std::to_string(row.in_port) +
             " outside the 16-bit port range";
    }
    // Every plan must have its packet: a sidecar that outruns the pcap is
    // a mismatched pair, never a silent drop of in_ports.
    if (i >= trace.packets.size()) {
      return "sidecar plan " + std::to_string(i) +
             " has no pcap packet (pcap carries " +
             std::to_string(trace.packets.size()) + ")";
    }
  }
  // The converse truncation: fewer plans than packets (a cut-off plan
  // array still closing its brackets cleanly, or the wrong pcap).
  if (sidecar.rows.size() != trace.packets.size()) {
    return "sidecar carries " + std::to_string(sidecar.rows.size()) +
           " packet plans but the pcap carries " +
           std::to_string(trace.packets.size()) + " packets";
  }
  return "";
}

}  // namespace

bool decode_trace_plan(const std::string& json, AdversarialTrace* trace,
                       std::string* error) {
  Sidecar sidecar;
  support::JsonReader r(json, "adversary trace json");
  sidecar_layout(r, *trace, sidecar);
  r.end();
  if (sidecar.version != kTraceSchemaVersion) {
    *error = r.invalid("unsupported trace schema version " +
                       std::to_string(sidecar.version));
    return false;
  }
  if (!r.ok()) {
    *error = r.error();
    return false;
  }
  if (const std::string why = plan_error(*trace, sidecar); !why.empty()) {
    *error = r.invalid(why);
    return false;
  }
  trace->plans.clear();
  for (std::size_t i = 0; i < sidecar.rows.size(); ++i) {
    const PlanRow& row = sidecar.rows[i];
    PacketPlan& plan = trace->plans.emplace_back();
    plan.entry = row.entry < 0 ? kNoEntry : static_cast<std::uint32_t>(row.entry);
    plan.predicted = row.predicted;
    // PCAP carries no ingress-port column; restore it from the sidecar.
    trace->packets[i].set_in_port(static_cast<std::uint16_t>(row.in_port));
  }
  return true;
}

bool save_trace(const std::string& prefix, const AdversarialTrace& trace) {
  const std::string pcap_path = prefix + ".pcap";
  const std::string json_path = prefix + ".json";
  if (!support::write_file(json_path, plan_to_json(trace) + "\n")) {
    return false;
  }
  // Serialise in memory and write through the same graceful path — a full
  // disk must not abort the process, and must not leave a dangling
  // sidecar next to a missing/truncated pcap.
  const std::vector<std::uint8_t> pcap = net::serialize_pcap(trace.packets);
  if (!support::write_file(
          pcap_path, std::string(pcap.begin(), pcap.end()))) {
    std::remove(json_path.c_str());
    return false;
  }
  return true;
}

AdversarialTrace load_trace(const std::string& prefix) {
  AdversarialTrace trace;
  trace.packets = net::read_pcap(prefix + ".pcap");
  std::string error;
  if (!decode_trace_plan(
          support::read_file_or_die(prefix + ".json", "adversarial trace"),
          &trace, &error)) {
    support::fatal(error, __FILE__, __LINE__);
  }
  return trace;
}

}  // namespace bolt::adversary
