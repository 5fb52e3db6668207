#include "monitor/monitor.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "monitor/accum.h"
#include "monitor/exec.h"
#include "net/flow.h"
#include "net/headers.h"
#include "obs/delta.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace bolt::monitor {

// The per-partition executor and row validator live in monitor/exec.h; the
// accumulators and the one window fold (RunFold: delta lines, drift, the
// report) live in monitor/accum.h. Both are shared with the streaming
// monitor (follow.cpp) and the fleet merger (obs/fleet.cpp), which must
// produce byte-identical output to this engine.

namespace {

/// Window id -> per-entry accumulation. std::map so windows fold in
/// ascending order.
using WindowMap = std::map<std::uint64_t, std::vector<ClassAccum>>;

/// Everything one partition accumulates; merged in partition order.
struct PartitionResult {
  /// Per window, as a stream instance keeps them; one window, 0, when
  /// delta mode is off.
  WindowMap windows;
  RunTotals totals;
  obs::MonitorTelemetry tel;
};

/// Streams one partition's packets through a fresh PartitionExec, holding
/// one open RowBlock per contract entry. A block is validated when it
/// fills, when its entry's next row falls in another delta window (so a
/// block never spans windows), and at the end of the partition.
void run_partition(const ContractTables& tables, const MonitorOptions& options,
                   const MonitorEngine::TargetFactory& factory,
                   const std::vector<net::Packet>& packets,
                   const std::vector<std::uint64_t>& indices,
                   std::vector<std::uint32_t>* attribution,
                   PartitionResult& out) {
  const std::size_t entries = tables.entry_names.size();
  obs::MonitorTelemetry* tel = options.telemetry ? &out.tel : nullptr;
  PartitionExec exec(tables, options, factory);
  RowValidator validator(tables, options);
  std::vector<RowBlock> open(entries);

  const auto flush = [&](std::uint32_t entry) {
    RowBlock& block = open[entry];
    auto [it, inserted] = out.windows.try_emplace(block.window);
    if (inserted) it->second.resize(entries);
    validator.validate(entry, block, it->second[entry], tel);
    block.rows = 0;
  };

  for (const std::uint64_t index : indices) {
    const net::Packet& packet = packets[index];
    const std::uint32_t entry = exec.step(packet, index, out.totals, tel);
    if (attribution != nullptr) (*attribution)[index] = entry;
    if (entry == kUnattributedEntry) continue;
    RowBlock& block = open[entry];
    if (tables.delta_window_ns > 0) {
      // Semantic window id — a pure function of the packet timestamp, so
      // the delta stream inherits the report's determinism.
      const std::uint64_t window = packet.timestamp_ns() / tables.delta_window_ns;
      if (block.rows > 0 && block.window != window) flush(entry);
      block.window = window;
    }
    exec.append_row(block, index);
    if (block.rows == kBlockRows) flush(entry);
  }
  for (std::uint32_t entry = 0; entry < entries; ++entry) {
    if (open[entry].rows > 0) flush(entry);
  }
  if (exec.tracks_state()) {
    out.totals.state_tracked = true;
    out.totals.residents = exec.occupancy();
  }
}

}  // namespace

std::size_t partition_of(const net::Packet& packet, std::size_t partitions) {
  if (partitions <= 1) return 0;
  std::uint64_t h = 0;
  if (const auto eth = net::parse_ethernet(packet.bytes())) {
    h = net::mix64(eth->src.to_u64() * 0x9E3779B97F4A7C15ULL ^
                   eth->dst.to_u64());
  }
  if (const auto tuple = net::extract_five_tuple(packet)) {
    h = net::mix64(h ^ tuple->key());
  }
  return static_cast<std::size_t>(h % partitions);
}

MonitorEngine::MonitorEngine(const perf::Contract& contract,
                             const perf::PcvRegistry& reg,
                             MonitorOptions options)
    : options_(options) {
  if (options_.partitions == 0) options_.partitions = 1;
  tables_ = std::make_unique<const ContractTables>(contract, reg, options_);
}

MonitorEngine::~MonitorEngine() = default;

MonitorEngine::TargetFactory MonitorEngine::named_factory(std::string name) {
  return [name = std::move(name)](perf::PcvRegistry& reg) {
    core::NfTarget target;
    BOLT_CHECK(core::make_named_target(name, reg, target),
               "monitor: unknown target '" + name + "'");
    return target;
  };
}

MonitorReport MonitorEngine::run(const std::vector<net::Packet>& packets,
                                 const TargetFactory& factory,
                                 std::vector<std::uint32_t>* attribution,
                                 obs::RunObservations* observations) const {
  const ContractTables& tables = *tables_;
  // Fixed flow-affine partition: membership depends only on packet
  // contents and the partition count, never on scheduling. Partitions
  // carry indices only — packets are copied one at a time as each is
  // processed, so monitoring never duplicates the whole trace.
  const std::size_t partitions = options_.partitions;
  std::vector<std::vector<std::uint64_t>> work(partitions);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    work[partition_of(packets[i], partitions)].push_back(i);
  }
  if (attribution != nullptr) {
    attribution->assign(packets.size(), kUnattributedEntry);
  }

  // One pool task per partition, submitted heaviest-first (ties to the
  // lower id). The pool hands out indices from an atomic counter, so this
  // is greedy longest-processing-time list scheduling. Scheduling cannot
  // change report bytes: each partition computes the same result wherever
  // it runs, and results merge in partition order.
  std::vector<std::size_t> order(partitions);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return work[a].size() > work[b].size();
                   });
  std::vector<PartitionResult> results(partitions);
  support::ThreadPool pool(
      std::min(support::resolve_threads(options_.threads), partitions));
  pool.parallel_for(0, partitions, [&](std::size_t i) {
    const std::size_t p = order[i];
    run_partition(tables, options_, factory, packets, work[p], attribution,
                  results[p]);
  });

  // Merge the partitions per window (window ids are semantic and every
  // accumulator is order-independent), then fold the windows in order.
  WindowMap windows;
  RunTotals totals;
  obs::MonitorTelemetry counters;
  for (PartitionResult& pr : results) {
    for (auto& [w, accums] : pr.windows) {
      auto [it, inserted] = windows.try_emplace(w, std::move(accums));
      if (inserted) continue;
      for (std::size_t e = 0; e < accums.size(); ++e) {
        it->second[e].merge(accums[e], options_.max_offenders);
      }
    }
    totals.merge(pr.totals);
    counters.merge(pr.tel);
  }
  results.clear();

  // Without observations nobody reads the delta stream, so none renders.
  RunFold fold(tables.contract.nf_name(), tables.entry_names, options_,
               observations != nullptr ? tables.delta_window_ns : 0);
  if (observations != nullptr) *observations = obs::RunObservations{};
  for (const auto& [w, accums] : windows) {
    obs::DeltaWindow dw;
    if (fold.close(w, accums, RunTotals{}, &dw)) {
      observations->deltas.push_back(std::move(dw));
    }
  }
  return fold.finish(packets.size(), totals, counters, observations);
}

}  // namespace bolt::monitor