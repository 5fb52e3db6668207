#include "monitor/follow.h"

#include <utility>

#include "obs/delta.h"
#include "support/assert.h"

namespace bolt::monitor {

namespace {

MonitorOptions normalized(MonitorOptions options) {
  if (options.partitions == 0) options.partitions = 1;
  return options;
}

}  // namespace

struct StreamMonitor::WindowData {
  explicit WindowData(std::size_t entries) : accums(entries) {}

  std::vector<ClassAccum> accums;  ///< per contract entry
  RunTotals totals;                ///< residents/state_tracked stay unset
  std::uint64_t packets = 0;
  std::uint64_t late_packets = 0;
};

StreamMonitor::StreamMonitor(const perf::Contract& contract,
                             const perf::PcvRegistry& reg,
                             const MonitorEngine::TargetFactory& factory,
                             MonitorOptions options, FleetOptions fleet,
                             WindowFn on_window)
    : factory_(factory),
      options_(normalized(std::move(options))),
      fleet_(std::move(fleet)),
      on_window_(std::move(on_window)),
      tables_(contract, reg, options_),
      validator_(tables_, options_),
      fold_(contract.nf_name(), tables_.entry_names, options_,
            tables_.delta_window_ns) {
  if (fleet_.instances == 0) fleet_.instances = 1;
  BOLT_CHECK(fleet_.instance < fleet_.instances,
             "stream monitor: instance id out of range");
  BOLT_CHECK(fleet_.owners.empty() || fleet_.owners.size() == options_.partitions,
             "stream monitor: owners map must cover every partition");
  for (const std::uint32_t owner : fleet_.owners) {
    BOLT_CHECK(owner < fleet_.instances,
               "stream monitor: partition owner out of range");
  }
  partitions_.resize(options_.partitions);
  // Probe the factory once for the state-observer flag: the batch engine
  // reports state_tracked for every run regardless of traffic, and so
  // must an instance that happened to own only quiet partitions.
  {
    perf::PcvRegistry probe_reg;
    track_state_ = factory_(probe_reg).has_state_observers();
  }
}

StreamMonitor::~StreamMonitor() = default;

bool StreamMonitor::owned(std::size_t partition) const {
  const std::uint32_t owner =
      fleet_.owners.empty()
          ? static_cast<std::uint32_t>(partition % fleet_.instances)
          : fleet_.owners[partition];
  return owner == fleet_.instance;
}

PartitionExec& StreamMonitor::partition(std::size_t p) {
  if (partitions_[p] == nullptr) {
    partitions_[p] = std::make_unique<PartitionExec>(tables_, options_, factory_);
  }
  return *partitions_[p];
}

void StreamMonitor::feed(const net::Packet& packet) {
  BOLT_CHECK(!finished_, "stream monitor: feed after finish");
  const std::uint64_t index = next_index_++;
  const std::uint64_t window_ns = tables_.delta_window_ns;
  const std::uint64_t w = window_ns > 0 ? packet.timestamp_ns() / window_ns : 0;

  // The window clock advances on *every* packet of the global stream
  // (owned or not), so all fleet instances close the same windows at the
  // same stream positions.
  if (open_ == nullptr || w > open_window_) {
    close_open(/*provisional=*/false);
    open_ = std::make_unique<WindowData>(tables_.entry_names.size());
    open_window_ = w;
  }

  const std::size_t p = partition_of(packet, options_.partitions);
  if (!owned(p)) return;
  if (w < open_window_) ++open_->late_packets;
  ++open_->packets;
  open_dirty_ = true;

  obs::MonitorTelemetry* tel = options_.telemetry ? &tel_ : nullptr;
  PartitionExec& exec = partition(p);
  const std::uint32_t entry = exec.step(packet, index, open_->totals, tel);
  if (entry == kUnattributedEntry) return;
  row_.rows = 0;
  exec.append_row(row_, index);
  validator_.validate(entry, row_, open_->accums[entry], tel);
}

void StreamMonitor::close_open(bool provisional) {
  if (open_ == nullptr) return;
  if (provisional && !open_dirty_) return;  // nothing new since last flush

  ClosedWindow cw;
  cw.window = open_window_;
  cw.window_ns = tables_.delta_window_ns;
  cw.provisional = provisional;
  cw.accums = &open_->accums;
  const RunTotals& wt = open_->totals;
  WindowStats stats;
  stats.packets = open_->packets;
  stats.unattributed = wt.unattributed;
  stats.first_unattributed = wt.first_unattributed;
  stats.any_unattributed = wt.any_unattributed;
  stats.epoch_sweeps = wt.epoch_sweeps;
  stats.expired_idle = wt.expired_idle;
  stats.high_water = wt.high_water;
  stats.late_packets = open_->late_packets;
  cw.stats = &stats;
  // A provisional emission renders through a scratch drift pass and folds
  // nothing; the authoritative close folds the window into the run.
  cw.has_delta =
      provisional
          ? fold_.preview(open_window_, open_->accums, &cw.delta)
          : fold_.close(open_window_, open_->accums, wt, &cw.delta);
  if (on_window_ != nullptr) on_window_(cw);
  open_dirty_ = false;
}

obs::MonitorTelemetry StreamMonitor::telemetry_snapshot() const {
  return fold_.telemetry(tel_);
}

void StreamMonitor::idle_flush() {
  BOLT_CHECK(!finished_, "stream monitor: idle_flush after finish");
  close_open(/*provisional=*/true);
}

StreamResult StreamMonitor::finish() {
  BOLT_CHECK(!finished_, "stream monitor: finish called twice");
  finished_ = true;
  close_open(/*provisional=*/false);
  open_.reset();

  // Residents match the batch engine, which instantiates every partition
  // (even traffic-free ones) and sums end-of-run occupancy. An instance
  // only answers for partitions it owns — summed across a fleet, every
  // partition is counted exactly once, same as a single monitor.
  RunTotals tail;
  tail.state_tracked = track_state_;
  if (track_state_) {
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      if (!owned(p)) continue;
      tail.residents += partition(p).occupancy();
    }
  }
  StreamResult out;
  out.report = fold_.finish(next_index_, tail, tel_, &out.observations);
  return out;
}

}  // namespace bolt::monitor
