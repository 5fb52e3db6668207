#include "monitor/exec.h"

#include <algorithm>

namespace bolt::monitor {

namespace {

using perf::Metric;
using perf::kAllMetrics;
using perf::metric_index;

}  // namespace

ContractTables::ContractTables(const perf::Contract& contract_in,
                               const perf::PcvRegistry& reg_in,
                               const MonitorOptions& options)
    : contract(contract_in), reg(reg_in) {
  slot_stride = std::max<std::size_t>(reg.size(), 1);
  bounds.reserve(contract.entries().size());
  entry_names.reserve(contract.entries().size());
  for (std::size_t i = 0; i < contract.entries().size(); ++i) {
    const perf::ContractEntry& entry = contract.entries()[i];
    std::array<perf::CompiledExpr, 3> exprs;
    for (const Metric m : kAllMetrics) {
      const int mi = metric_index(m);
      exprs[mi] = perf::CompiledExpr::compile(entry.perf.get(m));
      slot_stride = std::max(slot_stride, exprs[mi].slot_count());
    }
    bounds.push_back(std::move(exprs));
    entry_index.emplace(entry.input_class, i);
    entry_names.push_back(entry.input_class);
  }
  if (options.delta_every > 0 && options.epoch_ns > 0) {
    delta_window_ns = options.epoch_ns * options.delta_every;
  }
}

PartitionExec::PartitionExec(const ContractTables& tables,
                             const MonitorOptions& options,
                             const MonitorEngine::TargetFactory& factory)
    : tables_(tables),
      options_(options),
      target_(factory(local_reg_)),
      cycles_(options.cycle_costs),
      resolver_(&tables.entry_index) {
  // PCVs are interned into the partition-local registry; map its ids onto
  // the contract registry's by name once, up front.
  pcv_slot_.assign(local_reg_.size(), kUnmapped);
  for (const perf::PcvId id : local_reg_.all()) {
    const std::string& name = local_reg_.name(id);
    if (tables.reg.contains(name)) pcv_slot_[id] = tables.reg.require(name);
  }
  resolver_.bind(target_);
  runner_ = target_.make_runner(options.framework,
                                options.check_cycles ? &cycles_ : nullptr,
                                options.engine);
  // Loop-trip PCVs (linearised loop families): flat loop slot -> contract
  // slot of the PCV named after the loop (kUnmapped when the contract does
  // not price that loop).
  ir::RunLabels& labels = runner_->labels();
  loop_slot_.assign(labels.loop_count(), kUnmapped);
  for (std::size_t flat = 0; flat < labels.loop_count(); ++flat) {
    const std::string& name = labels.loop_name(flat);
    if (tables.reg.contains(name)) loop_slot_[flat] = tables.reg.require(name);
  }
  track_state_ = target_.has_state_observers();
  epochs_on_ = options.epoch_ns > 0 && track_state_;
}

std::uint32_t PartitionExec::step(const net::Packet& packet,
                                  std::uint64_t index, RunTotals& totals,
                                  obs::MonitorTelemetry* tel) {
  // Deterministic epoch clock: driven purely by this partition's packet
  // timestamps (never wall-clock), so every crossing — and therefore every
  // idle-expiry sweep and occupancy sample — is a pure function of the
  // trace and the partition count. The per-packet check is one compare
  // against the next boundary; the division only runs at crossings.
  straddle_leak_ = 0;
  if (epochs_on_) {
    const std::uint64_t epoch_ns = options_.epoch_ns;
    const std::uint64_t ts = packet.timestamp_ns();
    if (!have_epoch_) {
      have_epoch_ = true;
      next_boundary_ = (ts / epoch_ns + 1) * epoch_ns;
    } else if (ts >= next_boundary_) {
      // Sweep state stale as of the boundary the clock just crossed.
      const std::uint64_t epoch = ts / epoch_ns;
      totals.expired_idle += target_.expire_state(epoch * epoch_ns);
      ++totals.epoch_sweeps;
      next_boundary_ = (epoch + 1) * epoch_ns;
      // Test-only seeded bug (MonitorOptions::inject_straddle_bug): leak
      // one instruction of sweep cost into a packet sitting exactly on the
      // boundary it just triggered.
      if (options_.inject_straddle_bug && ts == epoch * epoch_ns) {
        straddle_leak_ = 1;
      }
    }
  }

  scratch_pkt_ = packet;
  if (options_.check_cycles) cycles_.begin_packet();
  runner_->process_into(scratch_pkt_, run_);
  if (track_state_) {
    totals.high_water = std::max<std::uint64_t>(totals.high_water,
                                                target_.state_occupancy());
  }
  if (tel != nullptr) ++tel->packets_executed;

  const std::uint32_t entry =
      resolver_.resolve(run_, runner_->labels(), kUnattributedEntry,
                        tel != nullptr ? &tel->attr_memo_hits : nullptr);
  if (entry == kUnattributedEntry) {
    if (!totals.any_unattributed || index < totals.first_unattributed) {
      totals.any_unattributed = true;
      totals.first_unattributed = index;
    }
    ++totals.unattributed;
  }
  return entry;
}

void PartitionExec::append_row(RowBlock& block, std::uint64_t index) const {
  const std::size_t stride = tables_.slot_stride;
  const std::size_t r = block.rows++;
  if (block.indices.size() < block.rows) {
    block.slots.resize(block.rows * stride);
    block.measured.resize(block.rows * 3);
    block.indices.resize(block.rows);
  }
  std::uint64_t* row = block.slots.data() + r * stride;
  std::fill_n(row, stride, 0);
  for (const auto& [id, value] : run_.pcvs.values()) {
    if (id < pcv_slot_.size() && pcv_slot_[id] != kUnmapped) {
      row[pcv_slot_[id]] = value;
    }
  }
  for (std::size_t flat = 0; flat < run_.loop_trips.size(); ++flat) {
    const std::uint64_t trips = run_.loop_trips[flat];
    if (trips != 0 && loop_slot_[flat] != kUnmapped) {
      row[loop_slot_[flat]] = trips;
    }
  }
  std::uint64_t* measured = block.measured.data() + r * 3;
  measured[metric_index(Metric::kInstructions)] =
      run_.instructions + straddle_leak_;
  measured[metric_index(Metric::kMemoryAccesses)] = run_.mem_accesses;
  measured[metric_index(Metric::kCycles)] =
      options_.check_cycles ? cycles_.packet_cycles() : 0;
  block.indices[r] = index;
}

void RowValidator::validate(std::uint32_t entry, const RowBlock& block,
                            ClassAccum& acc, obs::MonitorTelemetry* tel) {
  const std::size_t rows = block.rows;
  if (rows == 0) return;
  const bool check_cycles = options_.check_cycles;
  for (const Metric m : kAllMetrics) {
    const int mi = metric_index(m);
    if (m == Metric::kCycles && !check_cycles) continue;
    if (predicted_[mi].size() < rows) predicted_[mi].resize(rows);
    tables_.bounds[entry][mi].eval_batch(block.slots.data(),
                                         tables_.slot_stride, rows,
                                         predicted_[mi].data(), scratch_);
  }
  if (tel != nullptr) {
    tel->vm_batch_evals += check_cycles ? 3 : 2;
    tel->rows_validated += rows;
    ++tel->batches_emitted;
    tel->batch_rows += rows;
    tel->batch_fill.add(rows);
  }
  acc.packets += rows;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t index = block.indices[r];
    Offender worst;
    bool has_offender = false;
    for (const Metric m : kAllMetrics) {
      const int mi = metric_index(m);
      if (m == Metric::kCycles && !check_cycles) continue;
      const std::uint64_t measured = block.measured[r * 3 + mi];
      const std::int64_t bound = predicted_[mi][r];
      const bool violated = static_cast<std::int64_t>(measured) > bound;
      acc.metrics[mi].record(index, measured, bound);
      if (violated) {
        // Violation margin in per-mille of the bound (how far past it).
        acc.violation_margin_pm.add(
            bound > 0 ? (measured - static_cast<std::uint64_t>(bound)) *
                            1000 / static_cast<std::uint64_t>(bound)
                      : kDegenerateUtilPm);
      }
      if (!has_offender ||
          util_cmp(measured, bound, worst.measured, worst.predicted) > 0) {
        has_offender = true;
        worst.packet_index = index;
        worst.metric = m;
        worst.predicted = bound;
        worst.measured = measured;
      }
    }
    if (has_offender) acc.add_offender(worst, options_.max_offenders);
  }
}

}  // namespace bolt::monitor
