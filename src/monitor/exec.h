// The monitor's one execution core: per-contract tables, the per-partition
// executor and the row validator. The monitor's one run loop
// (StreamMonitor, follow.cpp) — behind batch runs, the daemon and every
// fleet instance — runs packets through exactly this code, so "a daemon
// drained by SIGTERM reports what a batch run would have" and "a merged
// fleet reports what one monitor would have" hold by construction, not by
// keeping parallel copies in step. The adversary's shadow
// (adversary/adversary.cpp) is the second caller: it plans each synthesised
// packet with one PartitionExec per partition, so the class and bound it
// plans are the ones the replay will observe.
//
// The model is the paper's: one packet processed to completion by one NF
// instance. A partition is a flow-affine sub-stream with its own NF
// instance (PartitionExec); each packet is executed, metered, attributed
// to a contract entry, and its dense PCV row is checked against that
// entry's compiled bounds (RowValidator) into the ClassAccum of the window
// the packet lands in. StreamMonitor hands the validator blocks of up to
// kBlockRows same-entry, same-window rows to amortise the expression VM's
// dispatch. Validation is row-independent and every accumulator merges
// order-independently, so the block size never shows in report bytes.
// What happens to a window after it closes — delta line, drift pass, the
// fold into the run, the report — is RunFold's (monitor/accum.h).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/runner.h"
#include "core/targets.h"
#include "hw/models.h"
#include "ir/interp.h"
#include "monitor/accum.h"
#include "monitor/attribute.h"
#include "monitor/monitor.h"
#include "net/packet.h"
#include "obs/telemetry.h"
#include "perf/contract.h"
#include "perf/expr_vm.h"
#include "perf/pcv.h"

namespace bolt::monitor {

/// Rows per validation block: enough to amortise the
/// expression VM's per-call dispatch, small enough to stay in cache.
inline constexpr std::size_t kBlockRows = 64;

/// Contract-side tables every engine derives once per contract. `contract`
/// and `reg` must outlive the tables.
struct ContractTables {
  ContractTables(const perf::Contract& contract, const perf::PcvRegistry& reg,
                 const MonitorOptions& options);

  const perf::Contract& contract;
  const perf::PcvRegistry& reg;  ///< the registry the contract's PCVs use
  /// Per contract entry, the compiled bound of each metric (metric_index).
  std::vector<std::array<perf::CompiledExpr, 3>> bounds;
  std::unordered_map<std::string, std::size_t> entry_index;  ///< class key
  std::vector<std::string> entry_names;  ///< input classes, entry order
  std::size_t slot_stride = 1;           ///< dense PCV row width
  std::uint64_t delta_window_ns = 0;     ///< epoch_ns * delta_every (0 = off)
};

/// Rows of one contract entry awaiting validation, structure-of-arrays: a
/// dense (rows x slot_stride) PCV matrix, the measured triple per row and
/// the global packet index per row. Buffers grow on first use and are
/// reused once `rows` is reset.
struct RowBlock {
  std::size_t rows = 0;
  std::vector<std::uint64_t> slots;
  std::vector<std::uint64_t> measured;  ///< rows x 3, by metric_index
  std::vector<std::uint64_t> indices;
  std::uint64_t window = 0;  ///< delta window of every row
};

/// One flow-affine partition's live state: a fresh NF instance described
/// by a partition-local PCV registry, its conservative cycle model and
/// runner, the class resolver bound to it, the PCV/loop slot maps into the
/// contract registry, and the deterministic epoch clock.
class PartitionExec {
 public:
  PartitionExec(const ContractTables& tables, const MonitorOptions& options,
                const MonitorEngine::TargetFactory& factory);
  PartitionExec(const PartitionExec&) = delete;
  PartitionExec& operator=(const PartitionExec&) = delete;

  /// Runs one packet to completion: the epoch tick (an idle-expiry sweep
  /// when the packet crosses a boundary), execute, the occupancy sample,
  /// and attribution. Sweeps, expiries, the high-water mark and
  /// unattributed packets fold into `totals`. Returns the contract entry,
  /// or kUnattributedEntry; for an entry, append_row() then stores the
  /// packet's dense PCV row and measured triple.
  std::uint32_t step(const net::Packet& packet, std::uint64_t index,
                     RunTotals& totals, obs::MonitorTelemetry* tel);

  /// Appends the last attributed step's row to `block`.
  void append_row(RowBlock& block, std::uint64_t index) const;

  bool tracks_state() const { return track_state_; }
  /// Current state occupancy (end-of-run residents).
  std::uint64_t occupancy() const { return target_.state_occupancy(); }

  /// The last step's packet as the NF left it (header rewrites readable),
  /// its run result (verdict, out port) and the partition's NF instance.
  /// The adversary's shadow reads these to steer its next packet.
  const net::Packet& last_packet() const { return scratch_pkt_; }
  const ir::RunResult& last_run() const { return run_; }
  const core::NfTarget& target() const { return target_; }

 private:
  static constexpr std::uint32_t kUnmapped = ~0u;

  const ContractTables& tables_;
  const MonitorOptions& options_;
  perf::PcvRegistry local_reg_;
  core::NfTarget target_;
  hw::ConservativeModel cycles_;
  std::unique_ptr<core::NfRunner> runner_;
  ClassResolver resolver_;
  std::vector<std::uint32_t> pcv_slot_;   ///< local PcvId -> contract slot
  std::vector<std::uint32_t> loop_slot_;  ///< flat loop -> contract slot
  bool track_state_ = false;
  bool epochs_on_ = false;
  bool have_epoch_ = false;
  std::uint64_t next_boundary_ = 0;
  std::uint64_t straddle_leak_ = 0;  ///< inject_straddle_bug's extra count
  net::Packet scratch_pkt_;  ///< reused packet copy (the NF mutates headers)
  ir::RunResult run_;        ///< reused run result
};

/// Evaluates an entry's compiled bounds over a block of rows and folds
/// every row into one ClassAccum — the accumulator of the window the block
/// belongs to; the caller picks it, so the validator knows nothing of
/// windows. Holds the reusable expression scratch, so steady-state
/// validation performs no allocations.
class RowValidator {
 public:
  RowValidator(const ContractTables& tables, const MonitorOptions& options)
      : tables_(tables), options_(options) {}

  void validate(std::uint32_t entry, const RowBlock& block, ClassAccum& acc,
                obs::MonitorTelemetry* tel);

 private:
  const ContractTables& tables_;
  const MonitorOptions& options_;
  perf::BatchScratch scratch_;
  std::array<std::vector<std::int64_t>, 3> predicted_;
};

}  // namespace bolt::monitor
