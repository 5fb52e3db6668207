// Adversarial workload synthesis — running a performance contract
// *backwards* (paper §5.1's unconstrained/adversarial traffic, mechanised).
//
// A contract says: for input class K, cost is bounded by f_K(PCVs). This
// subsystem inverts that statement into traffic: for every contract class
// it (a) takes the class's solved symbolic witness (the concrete packet the
// generator's solver produced for one of the class's paths) and
// materialises it into well-formed frames through net::PacketBuilder, and
// (b) wraps it in the *state history* the class's stateful cases demand —
// flow/MAC occupancy ramps up to table capacity, hash-collision chains
// against the (public or leaked) table key, deepest-walk LPM destinations,
// heartbeat-miss storms that kill every Maglev backend — so the probe
// packet actually lands in the class it targets.
//
// The synthesiser drives a *shadow* of the monitor's measurement side: one
// NF instance per flow-affine partition, advanced packet by packet with the
// same deterministic epoch clock MonitorEngine uses. Every emitted packet
// is committed to the shadow, so its attribution (the class the monitor
// will observe) and its predicted per-metric bound (the contract evaluated
// at the shadow-observed PCVs) are *facts about the replay*, not hopes:
// replaying the trace through MonitorEngine must reproduce the plan's
// attribution packet-for-packet (adversary/report.h closes that loop and
// reports the gaps).
//
// Everything is deterministic in AdversaryOptions::seed: the same options
// produce byte-identical traces, and replay reports are byte-identical at
// any thread count (the monitor's standing guarantee).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "net/packet.h"
#include "nf/framework.h"
#include "perf/contract.h"
#include "perf/pcv.h"

namespace bolt::adversary {

/// Attribution slot for packets whose observed class has no contract entry
/// (possible only against a stored artifact missing generated classes).
inline constexpr std::uint32_t kNoEntry = ~0u;

struct AdversaryOptions {
  /// Scatters the synthesised flows/MACs through key space. The trace is a
  /// pure function of (target, contract, options).
  std::uint64_t seed = 1;
  /// Flow-affine state partitions the replay will use — part of the plan's
  /// semantics: stateful sequences are confined to single partitions (the
  /// attacker's version of hitting one RSS queue), so the partition count
  /// decides which flows can share history.
  std::size_t partitions = 8;
  /// Deterministic epoch clock mirrored into the shadow (must match the
  /// replay's MonitorOptions::epoch_ns).
  std::uint64_t epoch_ns = 1'000'000'000;
  /// Measurement-side framework costs (mirrors MonitorOptions::framework).
  nf::FrameworkCosts framework = nf::framework_full();
  /// Steady-state probe packets emitted per targeted class on top of the
  /// packets that set its state up.
  std::size_t probes_per_class = 12;
  net::TimestampNs start_ns = 1'000'000'000;
  std::uint64_t gap_ns = 10'000;  ///< inter-packet spacing (100kpps)
  /// Worker threads for the in-process witness generation (0 = auto).
  std::size_t threads = 0;
};

/// Per-packet plan entry: where the packet will land and what the contract
/// permits it to cost there. Parallel to AdversarialTrace::packets.
struct PacketPlan {
  /// Contract entry (index into the contract's entry vector) the shadow
  /// attributed this packet to. kNoEntry if the observed class has no
  /// contract entry.
  std::uint32_t entry = kNoEntry;
  /// Contract bound per metric, evaluated at the shadow-observed PCVs
  /// (indexed by perf::metric_index).
  std::array<std::int64_t, 3> predicted{};
};

/// Per-class synthesis summary. Parallel to the contract's entries.
struct ClassPlan {
  std::string input_class;
  std::uint64_t packets = 0;  ///< trace packets attributed to this class
  bool reached = false;
  std::string note;  ///< why unreached, or how the state was driven
};

struct AdversarialTrace {
  std::string nf;           ///< registry target name ("nat", "bridge", ...)
  std::string contract_nf;  ///< the contract's nf_name (artifact cross-check)
  std::uint64_t seed = 0;
  std::size_t partitions = 0;
  std::uint64_t epoch_ns = 0;
  std::vector<net::Packet> packets;
  std::vector<PacketPlan> plans;    ///< parallel to `packets`
  std::vector<ClassPlan> classes;   ///< parallel to the contract's entries

  std::size_t classes_reached() const;
  /// Input classes with no attributed packet, in contract order.
  std::vector<std::string> unreached_classes() const;
};

/// Synthesises the adversarial trace for a registered target
/// (core::make_named_target name). `contract`/`reg` are what the replay
/// will validate against — freshly generated or a stored artifact loaded
/// through perf::load_contract. Witnesses come from `path_reports` when
/// the caller already ran the generator (avoids a second symbex pass);
/// with nullptr they are (re)generated in-process. Stored-contract classes
/// the generator no longer produces are reported as unreached with a note.
AdversarialTrace adversarial_traffic(
    const std::string& nf_name, const perf::Contract& contract,
    const perf::PcvRegistry& reg, const AdversaryOptions& options = {},
    const std::vector<core::PathReport>* path_reports = nullptr);

/// Re-plans an arbitrary packet sequence through a fresh shadow: rebuilds
/// the plans (attribution + predicted bounds at the shadow-observed PCVs)
/// and per-class summaries for `packets` exactly as the replay will observe
/// them. Packets are taken verbatim — timestamps and in_ports included —
/// so the caller owns clock discipline (per-partition timestamps must be
/// non-decreasing, the standing replay assumption). This is the primitive
/// the hunter and the trace minimizer are built on: a mutated or subsetted
/// packet sequence invalidates its old plans (state histories shift, so
/// attributions and bounds move), and adversary::replay demands plans
/// parallel to packets.
AdversarialTrace plan_packets(
    const std::string& nf_name, const perf::Contract& contract,
    const perf::PcvRegistry& reg, std::vector<net::Packet> packets,
    const AdversaryOptions& options = {});

}  // namespace bolt::adversary
