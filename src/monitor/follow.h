// The contract monitor's one run loop. Every monitor run feeds a
// StreamMonitor chunks of packets: `monitor --pcap` one bounded pcap read
// at a time until EOF, `--follow` each poll of a growing file until
// stopped, MonitorEngine::run() its whole vector at once, and a caller
// with one packet at a time chunks of one. A chunk runs in three steps:
//  1. One sequential pass assigns each packet its flow-affine partition
//     and its delta window. Windows only move forward: a packet older than
//     the open window is clamped into it and counted in
//     WindowStats::late_packets.
//  2. The owned partitions with traffic run as support::ThreadPool tasks
//     (MonitorOptions::threads), heaviest first, through their
//     PartitionExec (monitor/exec.h), each keeping one RowBlock open per
//     contract entry.
//  3. Every window below the chunk's last one merges across partitions and
//     closes through RunFold (monitor/accum.h); the on-window callback sees
//     it at once — delta lines, drift alerts and fleet partials all flow
//     incrementally.
// Partition state, open blocks and the open window carry across chunks, so
// reports are byte-identical however the input is cut and at any thread
// count. Memory is bounded by the chunk and the open window, not by the
// run: closed windows fold into the run and are dropped, and per-flow
// state ages out through the deterministic epoch clock.
//
// Fleet mode: N instances each feed the FULL traffic stream but own a
// disjoint subset of the flow-affine partitions (default: partition p
// belongs to instance p % instances). Ownership is partition-aligned, so
// each instance's per-flow state, epoch sweeps and occupancy marks evolve
// exactly as they would inside a single monitor — which is what makes the
// merged fleet report byte-identical to the single-instance one. Each
// closed window becomes one spool partial (obs::window_partial, obs/fleet.h)
// that the merger folds back together.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "monitor/accum.h"
#include "monitor/exec.h"
#include "monitor/monitor.h"
#include "net/packet.h"
#include "obs/telemetry.h"

namespace bolt::support {
class ThreadPool;
}  // namespace bolt::support

namespace bolt::monitor {

/// Fleet placement for one streaming instance.
struct FleetOptions {
  /// This instance's id, in [0, instances).
  std::uint32_t instance = 0;
  /// Total instances the partition space is split across. 1 = the whole
  /// monitor in one process (every partition owned).
  std::uint32_t instances = 1;
  /// Optional explicit partition -> owning instance map (size must equal
  /// MonitorOptions::partitions). Empty = partition p belongs to
  /// instance p % instances.
  std::vector<std::uint32_t> owners;
};

/// A window handed to the on-window callback at close (or idle flush). The
/// accumulator and stats pointers are valid only for the callback's
/// duration.
struct ClosedWindow {
  std::uint64_t window = 0;
  std::uint64_t window_ns = 0;
  /// True for an idle-flush emission: the window is still open and will be
  /// emitted again (authoritatively, with drift detection) when it closes.
  bool provisional = false;
  /// True when the window holds attributed traffic: `delta` is then the
  /// rendered window, exactly what the batch delta stream would contain.
  bool has_delta = false;
  obs::DeltaWindow delta;
  const std::vector<ClassAccum>* accums = nullptr;  ///< per contract entry
  const WindowStats* stats = nullptr;
};

struct StreamResult {
  MonitorReport report;
  obs::RunObservations observations;  ///< alerts + telemetry (deltas were
                                      ///< streamed through the callback)
};

class StreamMonitor {
 public:
  using WindowFn = std::function<void(const ClosedWindow&)>;

  /// `contract` and `reg` must outlive the monitor (same contract-side
  /// artifacts as MonitorEngine). Windows close on packet timestamps when
  /// options.delta_every > 0 and options.epoch_ns > 0; otherwise the whole
  /// run accumulates as one unemitted window and only finish() reports.
  /// `factory` is called once per owned partition, on first traffic
  /// (heaviest partition of that chunk first), and at finish() for owned
  /// partitions that never saw any.
  StreamMonitor(const perf::Contract& contract, const perf::PcvRegistry& reg,
                const MonitorEngine::TargetFactory& factory,
                MonitorOptions options, FleetOptions fleet = {},
                WindowFn on_window = nullptr);
  ~StreamMonitor();
  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// Feeds the next `count` packets of the global stream as one chunk
  /// (every instance of a fleet feeds the same stream; non-owned packets
  /// advance the window clock and the global index, nothing else).
  /// `attribution`, when non-null, has `count` slots: each owned packet's
  /// receives its contract entry (or kUnattributedEntry), the rest are not
  /// written.
  void feed(const net::Packet* packets, std::size_t count,
            std::uint32_t* attribution = nullptr);

  /// The chunk-of-one case; allocation-free once the monitor is warm.
  void feed(const net::Packet& packet);

  /// Idle-flush hook: emits the open window provisionally (no drift
  /// detection, `provisional = true`) so a quiet input does not hold the
  /// last window hostage. Repeated calls without new data are no-ops.
  void idle_flush();

  /// Closes the open window and renders the final report + observations.
  /// Call exactly once; feed() must not be called afterwards.
  StreamResult finish();

  std::uint64_t packets_fed() const { return next_index_; }

  /// Point-in-time telemetry for the daemon's live --metrics-out refresh:
  /// the running counters plus current merge-time facts (closed-window
  /// state only — the open window is not folded in yet). Telemetry is
  /// execution-shaped and never byte-pinned, so a mid-run snapshot is fine.
  obs::MonitorTelemetry telemetry_snapshot() const;

  const std::string& nf_name() const { return tables_.contract.nf_name(); }
  const std::vector<std::string>& entry_names() const {
    return tables_.entry_names;
  }
  const MonitorOptions& options() const { return options_; }
  const FleetOptions& fleet() const { return fleet_; }

 private:
  struct Slice;      ///< one window's accumulation (per partition or merged)
  struct Partition;  ///< an owned partition's executor, blocks and slices

  bool owned(std::size_t partition) const;
  Partition& partition(std::size_t p);
  /// Runs partition `p`'s packets of the current chunk.
  void process_partition(std::size_t p, const net::Packet* packets,
                         std::uint64_t base, std::uint32_t* attribution);
  /// Closes the oldest `count` pending windows, in ascending order.
  void close_windows(std::size_t count);
  void emit(Slice& window, bool provisional);
  /// The partitions' hot-path counters, summed.
  obs::MonitorTelemetry counters() const;

  MonitorEngine::TargetFactory factory_;
  MonitorOptions options_;
  FleetOptions fleet_;
  WindowFn on_window_;
  ContractTables tables_;

  /// Built on an owned partition's first packet (or at finish()); the
  /// same executor for the whole run.
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::size_t owned_count_ = 0;
  std::unique_ptr<support::ThreadPool> pool_;

  // The current chunk, refilled by every feed (buffers are reused).
  std::vector<std::uint64_t> chunk_windows_;      ///< per packet, clamped
  std::vector<std::vector<std::uint32_t>> work_;  ///< per partition
  std::vector<std::size_t> active_;  ///< owned partitions with work

  /// Windows seen and not yet closed, ascending; back() is the open one.
  std::vector<std::uint64_t> pending_;
  bool open_dirty_ = false;  ///< owned data since the last (provisional) emit

  RunFold fold_;  ///< closed windows, folded in order

  std::uint64_t next_index_ = 0;  ///< global packet index (all instances
                                  ///< agree: every instance feeds the full
                                  ///< stream)
  bool finished_ = false;
};

}  // namespace bolt::monitor
