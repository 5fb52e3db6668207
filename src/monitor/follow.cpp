#include "monitor/follow.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "obs/delta.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace bolt::monitor {

namespace {

MonitorOptions normalized(MonitorOptions options) {
  if (options.partitions == 0) options.partitions = 1;
  return options;
}

}  // namespace

struct StreamMonitor::Slice {
  Slice(std::uint64_t w, std::size_t entries) : window(w), accums(entries) {}

  /// Folds `other` (same window) in; every part is order-independent.
  void merge(const Slice& other, std::size_t max_offenders) {
    for (std::size_t e = 0; e < accums.size(); ++e) {
      accums[e].merge(other.accums[e], max_offenders);
    }
    stats.merge(other.stats);
    stats.packets += other.stats.packets;
    stats.late_packets += other.stats.late_packets;
  }

  std::uint64_t window;
  std::vector<ClassAccum> accums;  ///< per contract entry
  WindowStats stats;
};

struct StreamMonitor::Partition {
  Partition(const ContractTables& tables, const MonitorOptions& options,
            const MonitorEngine::TargetFactory& factory)
      : exec(tables, options, factory),
        validator(tables, options),
        open(tables.entry_names.size()) {}

  /// The slice of window `w`, which is never below the newest one.
  Slice& slice(std::uint64_t w) {
    if (slices.empty() || slices.back().window != w) {
      slices.emplace_back(w, open.size());
    }
    return slices.back();
  }

  void flush(std::uint32_t entry, obs::MonitorTelemetry* tel) {
    RowBlock& block = open[entry];
    auto it = slices.rbegin();
    while (it->window != block.window) ++it;
    validator.validate(entry, block, it->accums[entry], tel);
    block.rows = 0;
  }

  /// Validates every open block of a window up to `last`.
  void flush_through(std::uint64_t last, obs::MonitorTelemetry* tel) {
    for (std::uint32_t e = 0; e < open.size(); ++e) {
      if (open[e].rows > 0 && open[e].window <= last) flush(e, tel);
    }
  }

  PartitionExec exec;
  RowValidator validator;
  std::vector<RowBlock> open;  ///< per contract entry
  std::deque<Slice> slices;    ///< windows not yet closed, ascending
  obs::MonitorTelemetry tel;
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
  work_.resize(options_.partitions);
  for (std::size_t p = 0; p < options_.partitions; ++p) {
    if (owned(p)) ++owned_count_;
  }
  pool_ = std::make_unique<support::ThreadPool>(std::max<std::size_t>(
      1, std::min(support::resolve_threads(options_.threads), owned_count_)));
}

StreamMonitor::~StreamMonitor() = default;

bool StreamMonitor::owned(std::size_t partition) const {
  const std::uint32_t owner =
      fleet_.owners.empty()
          ? static_cast<std::uint32_t>(partition % fleet_.instances)
          : fleet_.owners[partition];
  return owner == fleet_.instance;
}

StreamMonitor::Partition& StreamMonitor::partition(std::size_t p) {
  if (partitions_[p] == nullptr) {
    partitions_[p] = std::make_unique<Partition>(tables_, options_, factory_);
  }
  return *partitions_[p];
}

void StreamMonitor::feed(const net::Packet& packet) { feed(&packet, 1); }

void StreamMonitor::feed(const net::Packet* packets, std::size_t count,
                         std::uint32_t* attribution) {
  BOLT_CHECK(!finished_, "stream monitor: feed after finish");
  BOLT_CHECK(count <= ~std::uint32_t{0}, "stream monitor: chunk too large");
  if (count == 0) return;
  const std::uint64_t base = next_index_;
  next_index_ += count;

  // Step 1, sequential: partition and clamped window of every packet. The
  // window clock advances on *every* packet of the global stream (owned or
  // not), so all fleet instances close the same windows at the same
  // stream positions.
  for (const std::size_t p : active_) work_[p].clear();
  active_.clear();
  chunk_windows_.resize(count);
  const std::uint64_t window_ns = tables_.delta_window_ns;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t w =
        window_ns > 0 ? packets[i].timestamp_ns() / window_ns : 0;
    if (pending_.empty() || w > pending_.back()) {
      pending_.push_back(w);
      open_dirty_ = false;
    }
    chunk_windows_[i] = pending_.back();
    const std::size_t p = partition_of(packets[i], options_.partitions);
    if (!owned(p)) continue;
    if (work_[p].empty()) active_.push_back(p);
    work_[p].push_back(static_cast<std::uint32_t>(i));
    open_dirty_ = true;
  }

  // Step 2: one pool task per partition with traffic, heaviest first (ties
  // to the lower id), so the pool's atomic index counter performs greedy
  // longest-processing-time list scheduling. Scheduling cannot change
  // report bytes: each partition computes the same result wherever it runs.
  if (active_.size() == 1) {
    process_partition(active_[0], packets, base, attribution);
  } else if (!active_.empty()) {
    std::sort(active_.begin(), active_.end(),
              [&](std::size_t a, std::size_t b) {
                return std::pair(work_[b].size(), a) <
                       std::pair(work_[a].size(), b);
              });
    pool_->parallel_for(0, active_.size(), [&](std::size_t i) {
      process_partition(active_[i], packets, base, attribution);
    });
  }

  // Step 3: every window below the chunk's last one is complete.
  if (pending_.size() > 1) close_windows(pending_.size() - 1);
}

void StreamMonitor::process_partition(std::size_t p,
                                      const net::Packet* packets,
                                      std::uint64_t base,
                                      std::uint32_t* attribution) {
  Partition& part = partition(p);
  obs::MonitorTelemetry* tel = options_.telemetry ? &part.tel : nullptr;
  const std::uint64_t window_ns = tables_.delta_window_ns;
  for (const std::uint32_t i : work_[p]) {
    const net::Packet& packet = packets[i];
    const std::uint64_t w = chunk_windows_[i];
    WindowStats& stats = part.slice(w).stats;
    ++stats.packets;
    if (window_ns > 0 && packet.timestamp_ns() / window_ns < w) {
      ++stats.late_packets;
    }
    const std::uint32_t entry = part.exec.step(packet, base + i, stats, tel);
    if (attribution != nullptr) attribution[i] = entry;
    if (entry == kUnattributedEntry) continue;
    // A block never spans windows, so it validates into one accumulator.
    RowBlock& block = part.open[entry];
    if (block.rows > 0 && block.window != w) part.flush(entry, tel);
    block.window = w;
    part.exec.append_row(block, base + i);
    if (block.rows == kBlockRows) part.flush(entry, tel);
  }
}

void StreamMonitor::close_windows(std::size_t count) {
  const std::uint64_t last = pending_[count - 1];
  for (const auto& part : partitions_) {
    if (part == nullptr) continue;
    part->flush_through(last, options_.telemetry ? &part->tel : nullptr);
  }
  const std::size_t entries = tables_.entry_names.size();
  for (std::size_t k = 0; k < count; ++k) {
    Slice window(pending_[k], entries);
    for (const auto& part : partitions_) {
      if (part == nullptr || part->slices.empty() ||
          part->slices.front().window != window.window) {
        continue;
      }
      window.merge(part->slices.front(), options_.max_offenders);
      part->slices.pop_front();
    }
    emit(window, /*provisional=*/false);
  }
  pending_.erase(pending_.begin(), pending_.begin() + std::ptrdiff_t(count));
}

void StreamMonitor::emit(Slice& window, bool provisional) {
  ClosedWindow cw;
  cw.window = window.window;
  cw.window_ns = tables_.delta_window_ns;
  cw.provisional = provisional;
  cw.accums = &window.accums;
  cw.stats = &window.stats;
  // A provisional emission renders through a scratch drift pass and folds
  // nothing; the authoritative close folds the window into the run.
  cw.has_delta =
      provisional
          ? fold_.preview(window.window, window.accums, &cw.delta)
          : fold_.close(window.window, window.accums, window.stats, &cw.delta);
  if (on_window_ != nullptr) on_window_(cw);
}

obs::MonitorTelemetry StreamMonitor::counters() const {
  obs::MonitorTelemetry sum;
  for (const auto& part : partitions_) {
    if (part != nullptr) sum.merge(part->tel);
  }
  return sum;
}

obs::MonitorTelemetry StreamMonitor::telemetry_snapshot() const {
  return fold_.telemetry(counters());
}

void StreamMonitor::idle_flush() {
  BOLT_CHECK(!finished_, "stream monitor: idle_flush after finish");
  if (pending_.empty() || !open_dirty_) return;  // nothing new since last
  // Only the open window is pending between feeds; validate its blocks
  // early (validation is row-independent) and emit a merged copy.
  Slice window(pending_.back(), tables_.entry_names.size());
  for (const auto& part : partitions_) {
    if (part == nullptr) continue;
    part->flush_through(window.window,
                        options_.telemetry ? &part->tel : nullptr);
    if (!part->slices.empty()) {
      window.merge(part->slices.back(), options_.max_offenders);
    }
  }
  emit(window, /*provisional=*/true);
  open_dirty_ = false;
}

StreamResult StreamMonitor::finish() {
  BOLT_CHECK(!finished_, "stream monitor: finish called twice");
  finished_ = true;
  if (!pending_.empty()) close_windows(pending_.size());

  // Residents match a run that instantiates every partition (even
  // traffic-free ones) and sums end-of-run occupancy. An instance only
  // answers for partitions it owns — summed across a fleet, every
  // partition is counted exactly once, same as a single monitor.
  RunTotals tail;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    if (!owned(p)) continue;
    const PartitionExec& exec = partition(p).exec;
    if (!exec.tracks_state()) continue;
    tail.state_tracked = true;
    tail.residents += exec.occupancy();
  }
  if (owned_count_ == 0) {
    // No partition to ask: the report still says whether the NF keeps
    // state, as every other instance's does.
    perf::PcvRegistry probe_reg;
    tail.state_tracked = factory_(probe_reg).has_state_observers();
  }
  StreamResult out;
  out.report = fold_.finish(next_index_, tail, counters(), &out.observations);
  return out;
}

}  // namespace bolt::monitor
