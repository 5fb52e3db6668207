// Adversarial trace serialisation.
//
// A trace is two artifacts under one path prefix:
//   <prefix>.pcap — the packets (nanosecond PCAP, replayable by any tool),
//   <prefix>.json — the plan sidecar: per-packet target class + predicted
//                   bounds + ingress port (PCAP has no port column), plus
//                   the per-class synthesis summary and the replay
//                   parameters (partitions, epoch) the plan assumed.
// Together they make "the contract says this traffic is worst-case" a
// shippable, replayable claim: `bolt_cli adversary <nf> --out t` writes
// them, and a later monitor/CI run can re-measure the same bytes.
#pragma once

#include <string>

#include "adversary/adversary.h"

namespace bolt::adversary {

/// Plan sidecar schema version.
inline constexpr std::int64_t kTraceSchemaVersion = 1;

/// Writes <prefix>.pcap + <prefix>.json. Returns false on I/O failure
/// (never leaves a truncated pair behind).
bool save_trace(const std::string& prefix, const AdversarialTrace& trace);

/// Decodes a plan sidecar into `*trace`, whose `packets` must already hold
/// the pair's pcap (their ingress ports are restored from the sidecar).
/// Returns false with `*error` ("adversary trace json: <why>[ at byte N]")
/// on malformed JSON, a schema-version mismatch, an out-of-range entry or
/// port, or a pcap/sidecar packet-count disagreement; `*trace` is then
/// unspecified.
bool decode_trace_plan(const std::string& json, AdversarialTrace* trace,
                       std::string* error);

/// Loads a trace pair back. Aborts loudly on a missing file or with
/// decode_trace_plan()'s message.
AdversarialTrace load_trace(const std::string& prefix);

}  // namespace bolt::adversary
