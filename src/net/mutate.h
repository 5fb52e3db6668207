// Trace mutators — the hunter's move set over packet sequences.
//
// Each mutator is a small deterministic transformation of a packet vector,
// parameterised entirely by indices/amounts the caller picks (the caller
// owns the randomness; these functions own the invariants). All of them
// preserve the one property every replay consumer assumes: timestamps are
// globally non-decreasing (which implies per-partition monotonicity for
// any partitioning). Mutators that would break an invariant or get
// out-of-range indices return false and leave the vector untouched.
//
// The move set mirrors the bug classes the violation hunter targets:
//   * snap_to_boundary — epoch-boundary straddles: a packet lands exactly
//     on a sweep edge (ts == k * epoch_ns), the place where maintenance
//     cost attribution can leak.
//   * stretch_gap — idle gaps that force epoch crossings (and therefore
//     sweeps) where the seed trace had none.
//   * swap_contents / rotate_window — cross-class interleavings and
//     scheduling-sensitive orderings: packet contents move against a
//     fixed clock, so state histories interleave differently.
//   * duplicate_at — bursts: occupancy ramps that rekey/fill mid-burst.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace bolt::net {

/// Snaps packet `i`'s timestamp forward to the next exact multiple of
/// `epoch_ns` (a sweep edge), then repairs monotonicity by clamping every
/// later timestamp up to at least the new value. A packet already sitting
/// on a boundary advances a full epoch (the mutation must move the clock,
/// or repeated applications are no-ops).
bool snap_to_boundary(std::vector<Packet>& packets, std::size_t i,
                      std::uint64_t epoch_ns);

/// Adds `delta_ns` to every timestamp from index `i` on — an idle gap that
/// can push the tail of the trace across one or more epoch boundaries.
bool stretch_gap(std::vector<Packet>& packets, std::size_t i,
                 std::uint64_t delta_ns);

/// Exchanges the *contents* (bytes + in_port) of packets `i` and `j` while
/// leaving both timestamps in place: the wire order and clock are
/// untouched, but the two flows' state histories interleave differently.
bool swap_contents(std::vector<Packet>& packets, std::size_t i,
                   std::size_t j);

/// Rotates the contents of the window [i, i+len) by one position
/// (timestamps fixed, like swap_contents) — a localised reordering storm.
bool rotate_window(std::vector<Packet>& packets, std::size_t i,
                   std::size_t len);

/// Inserts a copy of packet `i` immediately after it, same timestamp — a
/// burst doubling that accelerates occupancy ramps.
bool duplicate_at(std::vector<Packet>& packets, std::size_t i);

}  // namespace bolt::net
