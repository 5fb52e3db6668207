#include "monitor/monitor.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "monitor/accum.h"
#include "monitor/exec.h"
#include "net/flow.h"
#include "net/headers.h"
#include "obs/delta.h"
#include "obs/drift.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace bolt::monitor {

// The per-partition executor and row validator live in monitor/exec.h; the
// accumulators, the exact utilization arithmetic and the report/delta
// rendering live in monitor/accum.h. Both are shared with the streaming
// monitor (follow.cpp) and the fleet merger (obs/fleet.cpp), which must
// produce byte-identical output to this engine.

namespace {

/// Everything one partition accumulates; merged in partition order.
struct PartitionResult {
  std::vector<ClassAccum> classes;  ///< per contract entry
  /// Delta-report mode: window id -> per-entry accumulation. std::map so
  /// the end-of-run merge walks windows in order.
  std::map<std::uint64_t, std::vector<DeltaEntryAccum>> delta_windows;
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
  out.classes.assign(entries, ClassAccum{});
  PartitionExec exec(tables, options, factory);
  RowValidator validator(tables, options);
  std::vector<RowBlock> open(entries);

  const auto flush = [&](std::uint32_t entry) {
    RowBlock& block = open[entry];
    DeltaEntryAccum* delta = nullptr;
    if (tables.delta_window_ns > 0) {
      auto [it, inserted] = out.delta_windows.try_emplace(block.window);
      if (inserted) it->second.resize(entries);
      delta = &it->second[entry];
    }
    validator.validate(entry, block, out.classes[entry], delta, tel);
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

  const std::size_t entries = tables.entry_names.size();
  std::vector<ClassAccum> merged(entries);
  RunTotals totals;
  for (const PartitionResult& pr : results) {
    for (std::size_t e = 0; e < entries; ++e) {
      merged[e].merge(pr.classes[e], options_.max_offenders);
    }
    totals.merge(pr.totals);
  }
  MonitorReport report = build_report(
      tables.contract.nf_name(), packets.size(), partitions,
      options_.check_cycles, options_.epoch_ns, tables.entry_names,
      std::move(merged), totals);

  if (observations != nullptr) {
    *observations = obs::RunObservations{};
    if (tables.delta_window_ns > 0) {
      // Merge the per-partition window maps. Window ids are semantic and
      // every accumulator is order-independent, so the merged stream is
      // byte-deterministic at any thread count.
      std::map<std::uint64_t, std::vector<DeltaEntryAccum>> windows;
      for (const PartitionResult& pr : results) {
        for (const auto& [w, accums] : pr.delta_windows) {
          auto [it, inserted] = windows.try_emplace(w);
          if (inserted) it->second.resize(entries);
          for (std::size_t e = 0; e < entries; ++e) {
            it->second[e].merge(accums[e]);
          }
        }
      }
      obs::DriftDetector detector(options_.drift);
      observations->deltas.reserve(windows.size());
      for (const auto& [w, accums] : windows) {
        observations->deltas.push_back(
            build_delta_window(w, tables.delta_window_ns, tables.entry_names,
                               accums, detector, &observations->alerts));
      }
    }
    // Fold the per-partition telemetry, then mirror the merge-time facts
    // the report already computed.
    obs::MonitorTelemetry& tel = observations->telemetry;
    for (const PartitionResult& pr : results) tel.merge(pr.tel);
    tel.epoch_sweeps = report.epoch_sweeps;
    tel.state_high_water = report.state_high_water;
    tel.delta_windows = observations->deltas.size();
    tel.drift_alerts = observations->alerts.size();
  }
  return report;
}

}  // namespace bolt::monitor
