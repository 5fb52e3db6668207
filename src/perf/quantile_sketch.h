// QuantileSketch — a deterministic, mergeable quantile summary for online
// PCV distributions (the monitor's "show me the p99 headroom" view).
//
// The sketch is a sparse log-bucketed histogram (HDR-style): values below
// 2^(kSubBits+1) get exact buckets; larger values share one bucket per
// 1/2^kSubBits relative slice of their octave. That buys three properties
// the monitor's determinism contract needs and that randomized sketches
// (KLL, sampling) cannot give:
//
//  * The sketch is a pure function of the recorded *multiset* — no
//    randomness, no insertion-order dependence.
//  * Merge is bucket-wise addition: commutative, associative, and
//    byte-identical no matter how per-partition sketches are combined
//    (tests/test_quantile_sketch.cpp proves merge-order independence).
//  * quantile(q) is conservative: it returns the upper edge of the bucket
//    holding the nearest-rank element, so the estimate never understates
//    the true quantile and overstates it by at most one part in
//    2^kSubBits (~3% at the default) — the right bias for headroom
//    reporting (an operator sees "at most this close to the bound").
//
// Storage is a sorted sparse vector of (bucket, count): contract classes
// concentrate on a handful of buckets, so a sketch is tens of entries, not
// the ~2k of a dense layout — cheap enough for one sketch per class per
// metric per monitor partition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bolt::support {
class JsonWriter;
}  // namespace bolt::support

namespace bolt::perf {

class QuantileSketch {
 public:
  /// Sub-bucket resolution: 2^kSubBits buckets per octave, i.e. a relative
  /// value error of at most 1/2^kSubBits (~3.1%). Values below
  /// 2^(kSubBits+1) are exact.
  static constexpr unsigned kSubBits = 5;

  /// Records one value.
  void add(std::uint64_t value);

  /// Bucket-wise addition; the result is identical for any merge order or
  /// partitioning of the same underlying multiset.
  void merge(const QuantileSketch& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Smallest / largest recorded value (0 when empty).
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }

  /// Nearest-rank quantile estimate for q in [0, 1]: the upper edge of the
  /// bucket containing the ceil(q*count)-th smallest value, clamped to the
  /// recorded max. Guarantees (see tests):
  ///   exact <= quantile(q) <= exact + exact/2^kSubBits + 1
  /// Returns 0 on an empty sketch.
  std::uint64_t quantile(double q) const;

  /// Number of recorded values whose bucket upper edge is <= `value`'s
  /// bucket upper edge (a rank lower bound usable for CDF-style checks).
  std::uint64_t rank_upper_bound(std::uint64_t value) const;

  /// Canonical serialisation (used by tests to assert merge-order
  /// independence byte-for-byte, and by debug dumps).
  std::string serialize() const;

  bool operator==(const QuantileSketch& other) const;
  bool operator!=(const QuantileSketch& other) const { return !(*this == other); }

  /// Bucket mapping, exposed for the property tests.
  static std::uint32_t bucket_of(std::uint64_t value);
  static std::uint64_t bucket_lo(std::uint32_t bucket);
  static std::uint64_t bucket_hi(std::uint32_t bucket);

  /// The wire layout of the raw state (the fleet partial format in
  /// obs/fleet.cpp), for support/json.h's writer and reader alike. A sketch
  /// read this way is unchecked until invariant_error() accepts it.
  template <class J, class S> static void layout(J& j, S& s) {
    j.object([&] {
      j.field("count", s.count_);
      j.field("min", s.min_);
      j.field("max", s.max_);
      j.field("buckets", s.buckets_);
    });
  }

  /// nullptr when the state is consistent, else why not: unsorted or
  /// duplicate buckets, zero counts, a count mismatch, or min/max outside
  /// the recorded buckets — a read-back sketch that fails this was
  /// corrupted in transit.
  const char* invariant_error() const;

 private:
  /// Sorted by bucket index; counts are strictly positive.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t min_ = 0;  ///< 0 while empty, like max_
  std::uint64_t max_ = 0;
};

/// Selected quantiles of a sketch, extracted once at reporting time. All
/// fields are integers, so every rendering that consumes a summary is
/// byte-deterministic. Shared by the monitor's end-of-run report and the
/// telemetry layer's per-window delta stream (src/obs/) — one extraction,
/// one JSON shape.
struct QuantileSummary {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max = 0;
};

/// Extracts the canonical summary quantiles from a merged sketch.
QuantileSummary summarize(const QuantileSketch& sketch);

/// Writes the summary as a JSON object ({"count":..,"p50":..,...}) — the
/// shape the monitor report, the delta stream and the telemetry
/// exposition embed.
void summary_to_json(support::JsonWriter& w, const QuantileSummary& s);

}  // namespace bolt::perf
