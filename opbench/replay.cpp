// opbench_replay — the operator-path benchmark's traced layer replay.
//
//   opbench_replay --seed S --contract C --pcap P --longrun L --workdir D
//                  [--cycles 0|1] [--seconds T] [--spans FILE]
//
// Feeds P through each layer's public functions in the engine's order:
// dispatch, then per partition and per batch of up to 64 packets the epoch
// sweep, stage, execute, execute + cycle meter, attribute, validate and
// accumulate; then render and write the report. L
// goes through two fleet-instance StreamMonitors, their spool partials and
// the merger; nat's contract is generated and the adversary synthesises,
// plans and replays. Every call sits inside a span recorded by this file
// (name, start, end, parent, run id); spans stay in memory and are written
// to FILE at exit. Repeats until T seconds have passed (at least twice)
// and prints the per-layer medians as one JSON object. Exits 1 when the
// replay's per-class packet and violation counts differ from
// MonitorEngine's report, when the fleet merge differs from a batch run,
// or when the adversary's replays diverge or violate.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/report.h"
#include "core/bolt.h"
#include "core/targets.h"
#include "hw/models.h"
#include "monitor/accum.h"
#include "monitor/attribute.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "net/pcap.h"
#include "obs/fleet.h"
#include "perf/contract_io.h"
#include "perf/expr_vm.h"
#include "support/io.h"

using namespace bolt;

namespace {

constexpr std::size_t kPartitions = 8;
constexpr std::uint64_t kEpochNs = 1'000'000'000;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kBatch = 64;          // the engine's default batch
constexpr std::size_t kAdversaryTraces = 8;  // plan + replay per rep
const char* const kNf = "nat";

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- spans --

enum Layer : std::uint32_t {
  kRep,
  kReadPcap,
  kLoadContract,
  kDispatch,
  kPartition,
  kExpire,
  kStage,
  kExecute,
  kMetered,
  kAttribute,
  kValidate,
  kAccumulate,
  kRender,
  kWriteFile,
  kEngine1t,
  kEngine4t,
  kEngineBuild,
  kStreamFeed,
  kWindowClose,
  kStreamFinish,
  kPartialWrite,
  kPartialParse,
  kMerge,
  kGenerate,
  kSynthesize,
  kPlan,
  kReplay,
  kLayerCount
};

const char* const kLayerNames[kLayerCount] = {
    "replay",           "net.read_pcap",      "perf.load_contract",
    "monitor.dispatch", "monitor.partition",  "dslib.expire",
    "monitor.stage",
    "core.execute",     "ir.meter",           "monitor.attribute",
    "perf.validate",    "monitor.accumulate", "monitor.render",
    "support.write_file", "monitor.engine_1t", "monitor.engine_4t",
    "monitor.engine_build", "monitor.stream.feed",
    "monitor.stream.window_close", "monitor.stream.finish",
    "obs.partial.write", "obs.partial.parse", "obs.merge",
    "core.generate",    "adversary.synthesize", "adversary.plan",
    "adversary.replay"};

constexpr std::uint32_t kNoSpan = ~0u;

struct Span {
  std::uint32_t layer;
  std::uint32_t parent;
  std::uint32_t run;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// In-memory span log. Spans nest strictly (one thread), so a span's self
/// time is its duration minus its direct children's durations.
class Tracer {
 public:
  void set_enabled(bool on) { on_ = on; }
  void set_run(std::uint32_t run) { run_ = run; }

  std::uint32_t open(Layer layer) {
    if (!on_) return kNoSpan;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({layer, top(), run_, now_ns(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(std::uint32_t id) {
    if (id == kNoSpan) return;
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }
  /// Records an already-finished span (under `parent`, or the open span).
  std::uint32_t add(Layer layer, std::uint64_t start, std::uint64_t end,
                    std::uint32_t parent = kNoSpan) {
    if (!on_) return kNoSpan;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({layer, parent == kNoSpan ? top() : parent, run_, start,
                      end});
    return id;
  }

  /// Summed self time per layer over the spans of `run`.
  std::array<double, kLayerCount> self_ns(std::uint32_t run) const {
    std::array<double, kLayerCount> t{};
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run) continue;
      const auto dur = static_cast<std::int64_t>(s.end_ns - s.start_ns);
      self[i] += dur;
      if (s.parent != kNoSpan) self[s.parent] -= dur;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run != run) continue;
      t[spans_[i].layer] +=
          static_cast<double>(std::max<std::int64_t>(self[i], 0));
    }
    return t;
  }

  bool write(const std::string& path) const {
    std::string out = "run,id,parent,name,start_ns,end_ns\n";
    char line[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof line, "%u,%zu,%ld,%s,%llu,%llu\n", s.run, i,
                    s.parent == kNoSpan ? -1L : static_cast<long>(s.parent),
                    kLayerNames[s.layer],
                    static_cast<unsigned long long>(s.start_ns),
                    static_cast<unsigned long long>(s.end_ns));
      out += line;
    }
    return support::write_file(path, out);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::uint32_t top() const { return stack_.empty() ? kNoSpan : stack_.back(); }

  bool on_ = true;
  std::uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span: opened on construction, closed on scope exit.
class Scope {
 public:
  Scope(Tracer& t, Layer layer) : t_(t), id_(t.open(layer)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

// ------------------------------------------------------------ arguments --

struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& k) const { return values.count(k) > 0; }
  std::string str(const std::string& k, const std::string& def = "") const {
    const auto it = values.find(k);
    return it == values.end() ? def : it->second;
  }
  std::uint64_t num(const std::string& k, std::uint64_t def) const {
    const auto it = values.find(k);
    return it == values.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "opbench_replay: unexpected argument '%s'\n", argv[i]);
      std::exit(2);
    }
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.values[key] = argv[++i];
    } else {
      a.values[key] = "1";
    }
  }
  return a;
}

std::string require(const Args& a, const std::string& key) {
  if (!a.has(key)) {
    std::fprintf(stderr, "opbench_replay: --%s is required\n", key.c_str());
    std::exit(2);
  }
  return a.str(key);
}

// ------------------------------------------------------------- contract --

/// nat's contract, generated in-process (the same artifact `bolt_cli
/// contract nat` stores), with the path reports the adversary seeds from.
core::GenerationResult generate_nat(perf::PcvRegistry& reg) {
  core::NfTarget target;
  if (!core::make_named_target(kNf, reg, target)) std::abort();
  core::BoltOptions options;
  options.threads = kThreads;
  core::ContractGenerator generator(reg, options);
  return generator.generate(target.analysis());
}

adversary::AdversaryOptions adversary_options(std::uint64_t seed) {
  adversary::AdversaryOptions o;
  o.seed = seed;
  o.partitions = kPartitions;
  o.epoch_ns = kEpochNs;
  o.threads = kThreads;
  return o;
}

// --------------------------------------------------------- batch replay --

monitor::MonitorOptions monitor_options(std::size_t threads, bool cycles) {
  monitor::MonitorOptions o;
  o.partitions = kPartitions;
  o.threads = threads;
  o.epoch_ns = kEpochNs;
  o.check_cycles = cycles;
  return o;
}

/// Contract-side tables the engine derives once: compiled bounds, the
/// class-key index and the dense PCV row width.
struct ContractTables {
  std::vector<std::array<perf::CompiledExpr, 3>> vms;
  std::unordered_map<std::string, std::size_t> entry_index;
  std::vector<std::string> entry_names;
  std::size_t stride = 1;

  ContractTables(const perf::Contract& contract, const perf::PcvRegistry& reg) {
    stride = std::max<std::size_t>(reg.size(), 1);
    for (std::size_t i = 0; i < contract.entries().size(); ++i) {
      const perf::ContractEntry& entry = contract.entries()[i];
      std::array<perf::CompiledExpr, 3> vm;
      for (const perf::Metric m : perf::kAllMetrics) {
        const int mi = perf::metric_index(m);
        vm[mi] = perf::CompiledExpr::compile(entry.perf.get(m));
        stride = std::max(stride, vm[mi].slot_count());
      }
      vms.push_back(std::move(vm));
      entry_index.emplace(entry.input_class, i);
      entry_names.push_back(entry.input_class);
    }
  }
};

/// Rows of one contract entry within the current batch.
struct EntryRows {
  std::size_t rows = 0;
  std::vector<std::uint64_t> slots;
  std::array<std::vector<std::uint64_t>, 3> measured;
  std::array<std::vector<std::int64_t>, 3> predicted;
  std::vector<std::uint64_t> indices;
};

struct BatchOut {
  std::vector<monitor::ClassAccum> accums;
  monitor::RunTotals totals;
  std::uint64_t executed = 0;
  std::uint64_t instructions = 0;
  std::uint64_t accesses = 0;
  std::uint64_t resolves = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t rows = 0;
  std::uint64_t largest_partition = 0;
};

/// One partition's epoch clock, exactly the engine's: the first packet
/// arms it, and a packet at or past the next boundary triggers a sweep of
/// the state stale as of its own epoch (so it belongs to the new epoch).
struct EpochClock {
  bool armed = false;
  std::uint64_t next = 0;
  /// Returns true (and the sweep time) when `ts` crosses a boundary.
  bool crosses(std::uint64_t ts, std::uint64_t* sweep_at) {
    if (!armed) {
      armed = true;
      next = (ts / kEpochNs + 1) * kEpochNs;
      return false;
    }
    if (ts < next) return false;
    const std::uint64_t epoch = ts / kEpochNs;
    *sweep_at = epoch * kEpochNs;
    next = (epoch + 1) * kEpochNs;
    return true;
  }
};

/// Replays `packets` layer by layer, one partition at a time. Two twin NF
/// instances per partition see the same packets in the same order, so
/// their state stays identical: the plain one times execute alone, the one
/// with a conservative cycle sink times execute + meter and feeds
/// attribution and validation (the engine's own instance shape).
BatchOut batch_replay(const perf::Contract& contract,
                      const perf::PcvRegistry& reg, const ContractTables& ct,
                      const std::vector<net::Packet>& packets, bool cycles,
                      Tracer& tr) {
  BatchOut out;
  out.accums.assign(contract.entries().size(), monitor::ClassAccum{});
  const monitor::MonitorOptions defaults = monitor_options(1, cycles);
  const auto factory = monitor::MonitorEngine::named_factory(kNf);

  std::vector<std::vector<std::uint64_t>> work(kPartitions);
  {
    Scope s(tr, kDispatch);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      work[monitor::partition_of(packets[i], kPartitions)].push_back(i);
    }
  }

  const std::size_t stride = ct.stride;
  std::vector<EntryRows> rows(contract.entries().size());
  for (EntryRows& r : rows) {
    r.slots.resize(kBatch * stride);
    for (auto& col : r.measured) col.resize(kBatch);
    for (auto& col : r.predicted) col.resize(kBatch);
    r.indices.resize(kBatch);
  }
  std::vector<net::Packet> staged(kBatch);
  std::vector<ir::RunResult> runs(kBatch);
  std::vector<std::uint64_t> run_cycles(kBatch);
  std::vector<std::uint32_t> entries(kBatch);
  perf::BatchScratch scratch;
  net::Packet scratch_a;
  net::Packet scratch_b;
  ir::RunResult run_a;
  constexpr std::uint32_t kUnmapped = ~0u;

  for (std::size_t p = 0; p < kPartitions; ++p) {
    Scope partition_span(tr, kPartition);
    const std::vector<std::uint64_t>& idx = work[p];
    out.largest_partition =
        std::max<std::uint64_t>(out.largest_partition, idx.size());

    perf::PcvRegistry local_a;
    perf::PcvRegistry local_b;
    const core::NfTarget target_a = factory(local_a);
    const core::NfTarget target_b = factory(local_b);
    std::vector<std::uint32_t> pcv_slot(local_b.size(), kUnmapped);
    for (const perf::PcvId id : local_b.all()) {
      const std::string& name = local_b.name(id);
      if (reg.contains(name)) pcv_slot[id] = reg.require(name);
    }
    monitor::ClassResolver resolver(&ct.entry_index);
    resolver.bind(target_b);
    hw::ConservativeModel meter(defaults.cycle_costs);
    const auto runner_a = target_a.make_runner(defaults.framework, nullptr);
    const auto runner_b = target_b.make_runner(defaults.framework, &meter);
    ir::RunLabels& labels = runner_b->labels();
    std::vector<std::uint32_t> loop_slot(labels.loop_count(), kUnmapped);
    for (std::size_t flat = 0; flat < labels.loop_count(); ++flat) {
      const std::string& name = labels.loop_name(flat);
      if (reg.contains(name)) loop_slot[flat] = reg.require(name);
    }

    const bool track_state = target_a.has_state_observers();
    EpochClock clock;
    std::size_t next = 0;
    while (next < idx.size()) {
      // A batch ends before the next packet that crosses an epoch boundary:
      // the sweep runs at the start of the batch that packet opens.
      std::size_t n = 0;
      std::uint64_t sweep_at = 0;
      bool sweep = false;
      while (next + n < idx.size() && n < kBatch) {
        std::uint64_t at = 0;
        const std::uint64_t ts = packets[idx[next + n]].timestamp_ns();
        EpochClock probe = clock;
        if (track_state && probe.crosses(ts, &at)) {
          if (n > 0) break;
          sweep = true;
          sweep_at = at;
        }
        clock = probe;
        ++n;
      }
      if (sweep) {
        {
          Scope s(tr, kExpire);
          out.totals.expired_idle += target_a.expire_state(sweep_at);
        }
        target_b.expire_state(sweep_at);  // twin bookkeeping, not engine work
        ++out.totals.epoch_sweeps;
      }

      // Staging copies the batch out of the trace once, so both twins read
      // it from cache and neither pays the trace's misses for the other.
      {
        Scope s(tr, kStage);
        for (std::size_t i = 0; i < n; ++i) staged[i] = packets[idx[next + i]];
      }
      {
        Scope s(tr, kExecute);
        for (std::size_t i = 0; i < n; ++i) {
          scratch_a = staged[i];
          runner_a->process_into(scratch_a, run_a);
          out.instructions += run_a.instructions;
          out.accesses += run_a.mem_accesses;
          if (track_state) {
            out.totals.high_water = std::max<std::uint64_t>(
                out.totals.high_water, target_a.state_occupancy());
          }
        }
      }
      {
        Scope s(tr, kMetered);
        for (std::size_t i = 0; i < n; ++i) {
          scratch_b = staged[i];
          meter.begin_packet();
          runner_b->process_into(scratch_b, runs[i]);
          run_cycles[i] = meter.packet_cycles();
        }
      }
      {
        Scope s(tr, kAttribute);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t index = idx[next + i];
          const ir::RunResult& run = runs[i];
          const std::uint32_t entry = resolver.resolve(
              run, labels, monitor::kUnattributedEntry, &out.memo_hits);
          ++out.resolves;
          entries[i] = entry;
          if (entry == monitor::kUnattributedEntry) {
            if (!out.totals.any_unattributed ||
                index < out.totals.first_unattributed) {
              out.totals.any_unattributed = true;
              out.totals.first_unattributed = index;
            }
            ++out.totals.unattributed;
            continue;
          }
          EntryRows& r = rows[entry];
          std::uint64_t* row = r.slots.data() + r.rows * stride;
          std::fill_n(row, stride, 0);
          for (const auto& [id, value] : run.pcvs.values()) {
            if (id < pcv_slot.size() && pcv_slot[id] != kUnmapped) {
              row[pcv_slot[id]] = value;
            }
          }
          for (std::size_t flat = 0; flat < run.loop_trips.size(); ++flat) {
            const std::uint64_t trips = run.loop_trips[flat];
            if (trips != 0 && loop_slot[flat] != kUnmapped) {
              row[loop_slot[flat]] = trips;
            }
          }
          r.measured[0][r.rows] = run.instructions;
          r.measured[1][r.rows] = run.mem_accesses;
          r.measured[2][r.rows] = cycles ? run_cycles[i] : 0;
          r.indices[r.rows] = index;
          ++r.rows;
        }
      }
      {
        Scope s(tr, kValidate);
        for (std::size_t e = 0; e < rows.size(); ++e) {
          EntryRows& r = rows[e];
          if (r.rows == 0) continue;
          for (const perf::Metric m : perf::kAllMetrics) {
            if (m == perf::Metric::kCycles && !cycles) continue;
            const int mi = perf::metric_index(m);
            ct.vms[e][mi].eval_batch(r.slots.data(), stride, r.rows,
                                     r.predicted[mi].data(), scratch);
          }
        }
      }
      {
        Scope s(tr, kAccumulate);
        for (std::size_t e = 0; e < rows.size(); ++e) {
          EntryRows& r = rows[e];
          if (r.rows == 0) continue;
          monitor::ClassAccum& acc = out.accums[e];
          acc.packets += r.rows;
          out.rows += r.rows;
          for (std::size_t i = 0; i < r.rows; ++i) {
            monitor::Offender worst;
            bool has_offender = false;
            for (const perf::Metric m : perf::kAllMetrics) {
              if (m == perf::Metric::kCycles && !cycles) continue;
              const int mi = perf::metric_index(m);
              const std::uint64_t measured = r.measured[mi][i];
              const std::int64_t bound = r.predicted[mi][i];
              acc.metrics[mi].record(r.indices[i], measured, bound);
              if (static_cast<std::int64_t>(measured) > bound) {
                acc.violation_margin_pm.add(
                    bound > 0 ? (measured - static_cast<std::uint64_t>(bound)) *
                                    1000 / static_cast<std::uint64_t>(bound)
                              : monitor::kDegenerateUtilPm);
              }
              if (!has_offender ||
                  monitor::util_cmp(measured, bound, worst.measured,
                                    worst.predicted) > 0) {
                has_offender = true;
                worst.packet_index = r.indices[i];
                worst.metric = m;
                worst.predicted = bound;
                worst.measured = measured;
              }
            }
            if (has_offender) acc.add_offender(worst, defaults.max_offenders);
          }
          r.rows = 0;
        }
      }
      out.executed += n;
      next += n;
    }
    out.totals.state_tracked = out.totals.state_tracked || track_state;
    if (track_state) out.totals.residents += target_a.state_occupancy();
  }
  return out;
}

/// Per-class packet and violation counts must match the engine exactly.
bool same_counts(const monitor::MonitorReport& a,
                 const monitor::MonitorReport& b) {
  if (a.packets != b.packets || a.attributed != b.attributed ||
      a.unattributed != b.unattributed || a.violations != b.violations ||
      a.classes.size() != b.classes.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.classes.size(); ++c) {
    const monitor::ClassReport& x = a.classes[c];
    const monitor::ClassReport& y = b.classes[c];
    if (x.input_class != y.input_class || x.packets != y.packets) return false;
    for (std::size_t m = 0; m < x.metrics.size(); ++m) {
      if (x.metrics[m].violations != y.metrics[m].violations) return false;
    }
  }
  return true;
}

// -------------------------------------------------- stream + fleet merge --

struct StreamOut {
  std::uint64_t quiet_feeds = 0;     // feed calls that closed no window
  std::uint64_t closing_feeds = 0;   // feed calls during which WindowFn fired
  std::uint64_t partials = 0;
  std::uint64_t partial_bytes = 0;
  std::vector<std::string> window_files;
  std::vector<obs::FinalPartial> finals;
};

/// One fleet instance over the whole stream, spooling partials the way
/// `bolt_cli monitor --fleet I/2 --spool DIR` does.
void stream_instance(const perf::Contract& contract,
                     const perf::PcvRegistry& reg,
                     const std::vector<net::Packet>& packets,
                     std::uint32_t instance, const std::string& spool,
                     Tracer& tr, StreamOut& out) {
  monitor::MonitorOptions options = monitor_options(1, false);
  options.delta_every = 1;
  monitor::FleetOptions fleet;
  fleet.instance = instance;
  fleet.instances = 2;
  std::vector<std::string> names;
  for (const perf::ContractEntry& entry : contract.entries()) {
    names.push_back(entry.input_class);
  }

  bool fired = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> writes;  // in a feed
  auto on_window = [&](const monitor::ClosedWindow& cw) {
    fired = true;
    if (cw.stats->packets == 0) return;
    const std::uint64_t t0 = now_ns();
    obs::WindowPartial wp;
    wp.nf = contract.nf_name();
    wp.instance = fleet.instance;
    wp.instances = fleet.instances;
    wp.window = cw.window;
    wp.window_ns = cw.window_ns;
    for (std::size_t e = 0; e < cw.accums->size(); ++e) {
      if ((*cw.accums)[e].packets == 0) continue;
      wp.classes.push_back(names[e]);
      wp.accums.push_back((*cw.accums)[e]);
    }
    wp.packets = cw.stats->packets;
    wp.unattributed = cw.stats->unattributed;
    wp.first_unattributed = cw.stats->first_unattributed;
    wp.any_unattributed = cw.stats->any_unattributed;
    wp.epoch_sweeps = cw.stats->epoch_sweeps;
    wp.expired_idle = cw.stats->expired_idle;
    wp.high_water = cw.stats->high_water;
    wp.late_packets = cw.stats->late_packets;
    const std::string path =
        obs::spool_window_path(spool, kNf, fleet.instance, cw.window);
    const std::string text = obs::window_partial_to_json(wp) + "\n";
    if (!support::write_file(path, text)) {
      std::fprintf(stderr, "opbench_replay: cannot write '%s'\n", path.c_str());
      std::exit(1);
    }
    writes.emplace_back(t0, now_ns());
    ++out.partials;
    out.partial_bytes += text.size();
    out.window_files.push_back(path);
  };

  monitor::StreamMonitor sm(contract, reg,
                            monitor::MonitorEngine::named_factory(kNf),
                            options, fleet, on_window);
  // Quiet feeds are grouped into spans of up to kBatch calls; a feed that
  // closes a window gets its own span, with its partial writes as children.
  std::uint64_t batch_start = now_ns();
  std::uint64_t last_end = batch_start;
  std::size_t in_batch = 0;
  for (const net::Packet& p : packets) {
    const std::uint64_t start = last_end;
    sm.feed(p);
    const std::uint64_t end = now_ns();
    if (fired) {
      if (in_batch > 0) tr.add(kStreamFeed, batch_start, start);
      const std::uint32_t id = tr.add(kWindowClose, start, end);
      for (const auto& [w0, w1] : writes) tr.add(kPartialWrite, w0, w1, id);
      writes.clear();
      fired = false;
      ++out.closing_feeds;
      in_batch = 0;
      batch_start = end;
    } else {
      ++out.quiet_feeds;
      if (++in_batch == kBatch) {
        tr.add(kStreamFeed, batch_start, end);
        in_batch = 0;
        batch_start = end;
      }
    }
    last_end = end;
  }
  if (in_batch > 0) tr.add(kStreamFeed, batch_start, last_end);

  monitor::StreamResult result;
  {
    const std::uint64_t t0 = now_ns();
    result = sm.finish();
    const std::uint32_t id = tr.add(kStreamFinish, t0, now_ns());
    for (const auto& [w0, w1] : writes) tr.add(kPartialWrite, w0, w1, id);
    writes.clear();
  }
  obs::FinalPartial fp;
  fp.nf = contract.nf_name();
  fp.instance = fleet.instance;
  fp.instances = fleet.instances;
  fp.stream_packets = sm.packets_fed();
  fp.partitions = options.partitions;
  fp.cycles_checked = options.check_cycles;
  fp.epoch_ns = options.epoch_ns;
  fp.max_offenders = options.max_offenders;
  fp.entries = names;
  fp.residents = result.report.state_residents;
  fp.state_tracked = result.report.state_tracked;
  out.finals.push_back(fp);
}

// ---------------------------------------------------------------- replay --

struct ReplayInputs {
  std::uint64_t seed = 1;
  std::string contract;
  std::string pcap;
  std::string longrun;
  std::string workdir;
  bool cycles = true;
};

struct Checks {
  bool counts_match = true;
  bool report_identical = true;
  bool fleet_identical = true;
  bool adversary_clean = true;
};

double per(double total, double count, double scale) {
  return count > 0 ? total / count / scale : 0.0;
}

/// Spools one window partial set through both fleet instances, parses the
/// files back and merges them; the merge must equal a batch run.
void fleet_layers(const perf::Contract& contract, const perf::PcvRegistry& reg,
                  const std::string& longrun_path, const std::string& spool,
                  Tracer& tr, StreamOut& so, std::size_t* parsed,
                  Checks& checks) {
  const std::vector<net::Packet> longrun = net::read_pcap(longrun_path);
  if (::mkdir(spool.c_str(), 0777) != 0) {
    std::fprintf(stderr, "opbench_replay: cannot create '%s'\n", spool.c_str());
    std::exit(1);
  }
  for (std::uint32_t inst = 0; inst < 2; ++inst) {
    stream_instance(contract, reg, longrun, inst, spool, tr, so);
  }
  std::vector<obs::WindowPartial> windows;
  for (const std::string& path : so.window_files) {
    const std::string text = support::read_file_or_die(path, "partial");
    Scope s(tr, kPartialParse);
    windows.push_back(obs::parse_window_partial(text));
  }
  *parsed = windows.size();
  obs::FleetMergeResult merged;
  {
    Scope s(tr, kMerge);
    merged = obs::merge_partials(windows, so.finals, obs::DriftOptions{});
  }
  const monitor::MonitorEngine engine(contract, reg, monitor_options(1, false));
  const monitor::MonitorReport batch =
      engine.run(longrun, monitor::MonitorEngine::named_factory(kNf));
  checks.fleet_identical =
      checks.fleet_identical &&
      monitor::report_to_json(merged.report) == monitor::report_to_json(batch);
  for (const std::string& path : so.window_files) std::remove(path.c_str());
  ::rmdir(spool.c_str());
}

/// One repetition of the whole replay; returns its per-layer metrics.
std::map<std::string, double> replay_once(const ReplayInputs& in,
                                          std::uint32_t rep, Tracer& tr,
                                          Checks& checks) {
  const bool cycles = in.cycles;
  tr.set_run(rep);
  std::vector<net::Packet> packets;
  BatchOut out;
  StreamOut so;
  std::size_t parsed = 0;
  double untraced_ns = 0;
  double traced_ns = 0;
  {
    Scope rep_span(tr, kRep);
    {
      Scope s(tr, kReadPcap);
      packets = net::read_pcap(in.pcap);
    }
    if (packets.empty()) {
      std::fprintf(stderr, "opbench_replay: '%s' holds no packets\n", in.pcap.c_str());
      std::exit(1);
    }
    perf::PcvRegistry reg;
    perf::Contract contract("");
    {
      Scope s(tr, kLoadContract);
      contract = perf::load_contract(in.contract, reg);
    }
    const ContractTables tables(contract, reg);

    // The same batch replay untraced and traced, alternating which runs
    // first: the difference is the tracing overhead.
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (rep % 2 == 1);
      tr.set_enabled(traced);
      const std::uint64_t t0 = now_ns();
      BatchOut o = batch_replay(contract, reg, tables, packets, cycles, tr);
      (traced ? traced_ns : untraced_ns) = static_cast<double>(now_ns() - t0);
      if (traced) out = std::move(o);
    }
    tr.set_enabled(true);

    monitor::MonitorReport replayed;
    std::string replayed_json;
    {
      Scope s(tr, kRender);
      replayed = monitor::build_report(
          contract.nf_name(), packets.size(), kPartitions, cycles, kEpochNs,
          tables.entry_names, std::move(out.accums), out.totals);
      replayed_json = monitor::report_to_json(replayed) + "\n";
    }
    {
      Scope s(tr, kWriteFile);
      if (!support::write_file(in.workdir + "/replay_report.json",
                               replayed_json)) {
        std::fprintf(stderr, "opbench_replay: cannot write the replay report\n");
        std::exit(1);
      }
    }

    const auto factory = monitor::MonitorEngine::named_factory(kNf);
    monitor::MonitorReport engine_report;
    {
      const monitor::MonitorEngine engine(contract, reg,
                                          monitor_options(1, cycles));
      Scope s(tr, kEngine1t);
      engine_report = engine.run(packets, factory);
    }
    {
      const monitor::MonitorEngine engine(contract, reg,
                                          monitor_options(kThreads, cycles));
      Scope s(tr, kEngine4t);
      engine.run(packets, factory);
    }
    {
      const std::vector<net::Packet> one(packets.begin(), packets.begin() + 1);
      Scope s(tr, kEngineBuild);
      const monitor::MonitorEngine engine(contract, reg,
                                          monitor_options(kThreads, cycles));
      engine.run(one, factory);
    }
    checks.counts_match =
        checks.counts_match && same_counts(replayed, engine_report);
    checks.report_identical =
        checks.report_identical &&
        replayed_json == monitor::report_to_json(engine_report) + "\n";

    fleet_layers(contract, reg, in.longrun,
                 in.workdir + "/spool-" + std::to_string(rep), tr, so, &parsed,
                 checks);

    // Developer loop: generation, synthesis, then plan + replay per trace.
    perf::PcvRegistry gen_reg;
    core::GenerationResult gen;
    {
      Scope s(tr, kGenerate);
      gen = generate_nat(gen_reg);
    }
    const adversary::AdversaryOptions aopts = adversary_options(in.seed);
    adversary::AdversarialTrace seed_trace;
    {
      Scope s(tr, kSynthesize);
      seed_trace = adversary::adversarial_traffic(kNf, gen.contract, gen_reg,
                                                  aopts, &gen.path_reports);
    }
    monitor::MonitorOptions replay_opts;
    replay_opts.threads = kThreads;
    for (std::size_t t = 0; t < kAdversaryTraces; ++t) {
      adversary::AdversarialTrace planned;
      {
        Scope s(tr, kPlan);
        planned = adversary::plan_packets(kNf, gen.contract, gen_reg,
                                          seed_trace.packets, aopts);
      }
      adversary::GapReport gap;
      {
        Scope s(tr, kReplay);
        gap = adversary::replay(planned, gen.contract, gen_reg, replay_opts);
      }
      checks.adversary_clean = checks.adversary_clean && gap.mismatched == 0 &&
                               gap.monitor.violations == 0;
    }
  }

  const std::array<double, kLayerCount> layer_ns = tr.self_ns(rep);
  const auto self = [&](Layer l) { return layer_ns[l]; };
  const double pkts = static_cast<double>(packets.size());
  const double executed = static_cast<double>(out.executed);
  const double rows = static_cast<double>(out.rows);
  const double sweeps = static_cast<double>(out.totals.epoch_sweeps);
  const double meter_ns = std::max(0.0, self(kMetered) - self(kExecute));
  const double engine_1t = self(kEngine1t);
  const double engine_4t = self(kEngine4t);
  // The engine's own per-packet work, as the replay's layers time it.
  const double accounted = self(kDispatch) + self(kStage) + self(kExpire) +
                           (cycles ? self(kMetered) : self(kExecute)) +
                           self(kAttribute) + self(kValidate) +
                           self(kAccumulate);
  std::map<std::string, double> m;
  m["net.read_pcap.ns_per_pkt"] = per(self(kReadPcap), pkts, 1);
  m["perf.load_contract.ms"] = self(kLoadContract) / 1e6;
  m["monitor.dispatch.ns_per_pkt"] = per(self(kDispatch), pkts, 1);
  m["monitor.stage.ns_per_pkt"] = per(self(kStage), executed, 1);
  m["core.execute.ns_per_pkt"] = per(self(kExecute), executed, 1);
  m["core.execute.instr_per_pkt"] =
      per(static_cast<double>(out.instructions), executed, 1);
  m["core.execute.access_per_pkt"] =
      per(static_cast<double>(out.accesses), executed, 1);
  m["ir.meter.ns_per_pkt"] = per(meter_ns, executed, 1);
  m["ir.meter.ns_per_access"] =
      per(meter_ns, static_cast<double>(out.accesses), 1);
  m["monitor.attribute.ns_per_pkt"] = per(self(kAttribute), executed, 1);
  m["monitor.attribute.memo_hit_ratio"] =
      per(static_cast<double>(out.memo_hits),
          static_cast<double>(out.resolves), 1);
  m["perf.validate.ns_per_pkt"] = per(self(kValidate), rows, 1);
  m["monitor.accumulate.ns_per_pkt"] = per(self(kAccumulate), rows, 1);
  m["monitor.render.ms"] = self(kRender) / 1e6;
  m["support.write_file.ms"] = self(kWriteFile) / 1e6;
  m["monitor.engine_1t.ns_per_pkt"] = per(engine_1t, pkts, 1);
  m["monitor.engine_4t.ns_per_pkt"] = per(engine_4t, pkts, 1);
  m["monitor.scaling_4t"] = engine_4t > 0 ? engine_1t / engine_4t : 0.0;
  m["monitor.partition_max_share"] =
      per(static_cast<double>(out.largest_partition), pkts, 1);
  m["monitor.engine_build.ms"] = self(kEngineBuild) / 1e6;
  m["monitor.stream.feed_ns_per_pkt"] =
      per(self(kStreamFeed), static_cast<double>(so.quiet_feeds), 1);
  m["monitor.stream.window_close_us"] =
      per(self(kWindowClose), static_cast<double>(so.closing_feeds), 1e3);
  m["monitor.stream.windows"] = static_cast<double>(so.closing_feeds);
  m["dslib.expire.us_per_sweep"] = per(self(kExpire), sweeps, 1e3);
  m["dslib.expire.sweeps"] = sweeps;
  m["dslib.state.high_water"] = static_cast<double>(out.totals.high_water);
  m["obs.partial.write_us"] =
      per(self(kPartialWrite), static_cast<double>(so.partials), 1e3);
  m["obs.partial.bytes"] = per(static_cast<double>(so.partial_bytes),
                               static_cast<double>(so.partials), 1);
  m["obs.partial.parse_us"] =
      per(self(kPartialParse), static_cast<double>(parsed), 1e3);
  m["obs.merge.ms"] = self(kMerge) / 1e6;
  m["core.generate.ms"] = self(kGenerate) / 1e6;
  m["adversary.synthesize.ms"] = self(kSynthesize) / 1e6;
  m["adversary.plan.ms"] = self(kPlan) / 1e6 / kAdversaryTraces;
  m["adversary.replay.ms"] = self(kReplay) / 1e6 / kAdversaryTraces;
  m["trace.accounted_share"] = engine_1t > 0 ? accounted / engine_1t : 0.0;
  m["trace.overhead_pct"] =
      untraced_ns > 0 ? (traced_ns - untraced_ns) / untraced_ns * 100.0 : 0.0;
  return m;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

const char* yes(bool b) { return b ? "true" : "false"; }

int cmd_replay(const Args& a) {
  ReplayInputs in;
  in.seed = a.num("seed", 1);
  in.contract = require(a, "contract");
  in.longrun = require(a, "longrun");
  in.workdir = require(a, "workdir");
  in.pcap = require(a, "pcap");
  in.cycles = a.num("cycles", 1) != 0;
  const std::uint64_t deadline = now_ns() + a.num("seconds", 10) * 1'000'000'000;
  const std::string spans_path = a.str("spans");

  Tracer tr;
  Checks checks;
  std::map<std::string, std::vector<double>> samples;
  std::uint32_t reps = 0;
  while (reps < 2 || now_ns() < deadline) {
    for (const auto& [k, v] : replay_once(in, reps, tr, checks)) {
      samples[k].push_back(v);
    }
    ++reps;
  }

  if (!spans_path.empty() && !tr.write(spans_path)) {
    std::fprintf(stderr, "opbench_replay: cannot write spans to '%s'\n",
                 spans_path.c_str());
    return 1;
  }
  std::printf("{\"reps\":%u,\"spans\":%zu,\"checks\":{"
              "\"replay_counts_match\":%s,\"replay_report_identical\":%s,"
              "\"fleet_merge_identical\":%s,\"adversary_clean\":%s},"
              "\"metrics\":{",
              reps, tr.size(), yes(checks.counts_match),
              yes(checks.report_identical), yes(checks.fleet_identical),
              yes(checks.adversary_clean));
  bool first = true;
  for (const auto& [k, v] : samples) {
    std::printf("%s\"%s\":%.9g", first ? "" : ",", k.c_str(), median(v));
    first = false;
  }
  std::printf("}}\n");
  return checks.counts_match && checks.fleet_identical &&
                 checks.adversary_clean
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cmd_replay(parse_args(argc, argv, 1));
}
