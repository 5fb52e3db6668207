// bolt — command-line front end to the contract generator, the Distiller,
// the contract monitor, the fleet merger and the adversary. The subcommands
// and flags are declared once, in core/cli.h (`bolt --help` renders them);
// this file parses through that table and dispatches.
#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "adversary/adversary.h"
#include "adversary/hunter.h"
#include "adversary/minimize.h"
#include "adversary/report.h"
#include "adversary/trace.h"
#include "core/bolt.h"
#include "core/cli.h"
#include "core/distiller.h"
#include "core/experiments.h"
#include "core/targets.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "net/pcap.h"
#include "obs/delta.h"
#include "obs/fleet.h"
#include "obs/telemetry.h"
#include "perf/contract_io.h"
#include "support/bench.h"
#include "support/io.h"
#include "support/json.h"
#include "support/strings.h"

using namespace bolt;

namespace {

int usage() {
  std::fputs(core::cli_usage_text(), stderr);
  return 2;
}

/// Prints why an input file was rejected; returns the usage exit code.
int input_error(const std::string& path, const std::string& error) {
  std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
  return 2;
}

int cmd_contract(const core::CliArgs& args, bool per_path) {
  const std::string& nf = args.operands[0];
  const std::string& out_file = args.out;
  perf::PcvRegistry reg;
  core::NfTarget target;
  if (!core::make_named_target(nf, reg, target)) return usage();
  core::BoltOptions options;
  options.coalesce = !per_path;
  options.threads = args.threads;
  core::ContractGenerator generator(reg, options);
  const auto result = generator.generate(target.analysis());
  if (!out_file.empty()) {
    if (!perf::save_contract(out_file, result.contract, reg)) {
      std::fprintf(stderr, "error: cannot write contract to '%s'\n",
                   out_file.c_str());
      return 1;
    }
    // Status goes to stderr: with --json, stdout is a machine-read stream.
    std::fprintf(stderr,
                 "stored contract for %s (%zu entries, schema v%lld) in %s\n",
                 nf.c_str(), result.contract.entries().size(),
                 static_cast<long long>(perf::kContractSchemaVersion),
                 out_file.c_str());
    if (!args.json) return 0;
  }
  if (args.json) {
    std::printf("%s\n", perf::contract_to_json(result.contract, reg).c_str());
    return 0;
  }
  std::printf("%s", result.contract.str_all(reg).c_str());
  std::printf("\npaths: %zu   entries: %zu   unsolved: %zu   pruned: %zu\n",
              result.total_paths, result.contract.entries().size(),
              result.unsolved_paths, result.executor_stats.pruned_branches);
  std::printf("solver: %zu feasibility probes (%zu cache hits, %zu misses)"
              "   steals: %zu\n",
              result.executor_stats.solver_calls,
              result.executor_stats.feas_cache_hits,
              result.executor_stats.feas_cache_misses,
              result.executor_stats.steal_count);
  if (result.executor_stats.truncated_paths > 0) {
    std::printf("truncated: %zu (canonical prefix kept; raise max_paths to"
                " see all)\n",
                result.executor_stats.truncated_paths);
  }
  if (!reg.all().empty()) {
    std::printf("\nPCV glossary:\n");
    for (const perf::PcvId id : reg.all()) {
      if (!reg.description(id).empty()) {
        std::printf("  %-4s %s\n", reg.name(id).c_str(),
                    reg.description(id).c_str());
      }
    }
  }
  return 0;
}

int cmd_distill(const std::string& nf, const std::string& pcap) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  if (!core::make_named_target(nf, reg, target)) return usage();
  std::vector<net::Packet> packets;
  std::string error;
  if (!net::read_pcap(pcap, &packets, &error)) return input_error(pcap, error);
  std::printf("loaded %zu packets from %s\n\n", packets.size(), pcap.c_str());

  hw::RealisticSim testbed;
  const auto runner = target.make_runner(nf::framework_full(), &testbed);
  core::Distiller distiller(*runner, &testbed,
                            target.is_stateless ? nullptr : &target.methods());
  const auto report = distiller.run(packets);

  std::map<std::string, std::size_t> classes;
  for (const auto& rec : report.records) ++classes[rec.class_key];
  std::printf("input classes observed:\n");
  for (const auto& [key, count] : classes) {
    std::printf("  %8zu  %s\n", count, key.c_str());
  }
  std::printf("\nworst measured: %s instructions, %s accesses, %s cycles\n",
              support::with_commas(static_cast<std::int64_t>(
                                       report.worst_measured("instructions")))
                  .c_str(),
              support::with_commas(static_cast<std::int64_t>(
                                       report.worst_measured("mem_accesses")))
                  .c_str(),
              support::with_commas(static_cast<std::int64_t>(
                                       report.worst_measured("cycles")))
                  .c_str());
  std::printf("\nworst PCV binding:\n");
  // Keep the binding alive: values() returns a reference into it, and
  // iterating a temporary's internals is a use-after-scope.
  const perf::PcvBinding worst_binding = report.worst_binding();
  for (const auto& [id, v] : worst_binding.values()) {
    std::printf("  %-4s = %llu\n", reg.name(id).c_str(),
                static_cast<unsigned long long>(v));
  }
  return 0;
}

int cmd_predict(const std::string& nf,
                const std::vector<std::string>& bindings) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  if (!core::make_named_target(nf, reg, target)) return usage();
  core::ContractGenerator generator(reg);
  const auto result = generator.generate(target.analysis());

  perf::PcvBinding bind;
  for (const std::string& arg : bindings) {
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (eq == std::string::npos || !reg.contains(name)) {
      std::fprintf(stderr, "bad PCV binding '%s'\n", arg.c_str());
      return 2;
    }
    std::uint64_t value = 0;
    std::string error;
    if (!core::parse_number(name, arg.c_str() + eq + 1, &value, &error)) {
      std::fputs(error.c_str(), stderr);
      return 2;
    }
    bind.set(reg.require(name), value);
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Input Class", "Instructions", "Mem Accesses", "Cycles"});
  for (const auto& entry : result.contract.entries()) {
    rows.push_back(
        {entry.input_class,
         support::with_commas(
             entry.perf.get(perf::Metric::kInstructions).eval(bind)),
         support::with_commas(
             entry.perf.get(perf::Metric::kMemoryAccesses).eval(bind)),
         support::with_commas(
             entry.perf.get(perf::Metric::kCycles).eval(bind))});
  }
  std::printf("%s", support::render_table(rows).c_str());
  return 0;
}

/// The contract a subcommand checks traffic against: the stored artifact at
/// `path` (operator mode: no symbolic execution), or, with an empty path,
/// one generated in-process (developer mode: `*generated` then also holds
/// the path reports, which double as the adversary's witnesses). Returns 0,
/// or the exit code after printing why: 2 for an unknown target, an
/// unreadable, empty or malformed artifact, or an artifact generated for
/// another NF.
int acquire_contract(const std::string& nf, const std::string& path,
                     std::size_t threads, perf::PcvRegistry& reg,
                     perf::Contract& contract,
                     core::GenerationResult* generated) {
  // A stored artifact brings its own PCVs; the target is only the
  // cross-check, so it interns into a registry of its own.
  perf::PcvRegistry target_reg;
  core::NfTarget target;
  if (!core::make_named_target(nf, path.empty() ? reg : target_reg, target)) {
    return usage();
  }
  if (path.empty()) {
    core::BoltOptions options;
    options.threads = threads;
    core::ContractGenerator generator(reg, options);
    *generated = generator.generate(target.analysis());
    contract = generated->contract;
    return 0;
  }
  std::string text;
  if (!support::read_file(path, &text) || text.empty()) {
    std::fprintf(stderr, "error: cannot read contract '%s'\n", path.c_str());
    return 2;
  }
  std::string error;
  if (!perf::decode_contract(text, reg, &contract, &error)) {
    return input_error(path, error);
  }
  if (contract.nf_name() != target.contract_name()) {
    std::fprintf(stderr,
                 "error: contract '%s' was generated for nf '%s', not "
                 "'%s'\n",
                 path.c_str(), contract.nf_name().c_str(),
                 target.contract_name().c_str());
    return 2;
  }
  return 0;
}

/// SIGINT/SIGTERM drain flag for --follow (sig_atomic_t: all a handler may
/// touch). The loop finishes the current poll, then drains and reports.
volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

bool write_metrics_file(const core::CliArgs& args,
                        const obs::MonitorTelemetry& tel,
                        const std::string& nf) {
  const std::string metrics =
      args.metrics_format == "prom"
          ? obs::telemetry_to_prometheus(tel, nf)
          : obs::telemetry_to_json(tel, nf) + "\n";
  if (!support::write_file(args.metrics_out, metrics)) {
    std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                 args.metrics_out.c_str());
    return false;
  }
  return true;
}

/// Report outputs shared by 'monitor' (batch + streaming) and 'merge': the
/// --metrics-out snapshot, the --report file, then the report on stdout —
/// one JSON line with --json, else its text unless --watch keeps stdout a
/// pure JSONL stream. Returns false after printing the error when a file
/// cannot be written (support::write_file never leaves a truncated report
/// behind for CI to archive as valid).
bool write_report_outputs(const core::CliArgs& args,
                          const monitor::MonitorReport& report,
                          const obs::MonitorTelemetry& tel) {
  if (!args.metrics_out.empty() && !write_metrics_file(args, tel, report.nf)) {
    return false;
  }
  if (!args.report.empty() &&
      !support::write_file(args.report,
                           monitor::report_to_json(report) + "\n")) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 args.report.c_str());
    return false;
  }
  if (args.json) {
    std::printf("%s\n", monitor::report_to_json(report).c_str());
  } else if (!args.watch) {
    std::printf("%s", report.str().c_str());
  }
  return true;
}

/// The monitor's throughput footer under the text report.
void print_throughput(const core::CliArgs& args, std::uint64_t packets,
                      double elapsed_ms) {
  if (args.json || args.watch) return;
  const double pps = elapsed_ms > 0.0
                         ? static_cast<double>(packets) / (elapsed_ms / 1000.0)
                         : 0.0;
  std::printf("\nprocessed %llu packets in %.1f ms (%.2f Mpps)\n",
              static_cast<unsigned long long>(packets), elapsed_ms,
              pps / 1e6);
}

/// The delta stream: one JSON line per window, written and flushed per line
/// — to stdout in --watch mode (the tail-able operator view), to the
/// --delta-out file, or both. A reader tailing either stream only ever sees
/// complete JSON lines.
class DeltaSink {
 public:
  explicit DeltaSink(const core::CliArgs& args) : args_(args) {}
  ~DeltaSink() {
    if (file_ != nullptr) std::fclose(file_);
  }
  DeltaSink(const DeltaSink&) = delete;
  DeltaSink& operator=(const DeltaSink&) = delete;

  bool open() {
    if (args_.delta_out.empty()) return true;
    file_ = std::fopen(args_.delta_out.c_str(), "wb");
    return file_ != nullptr || fail();
  }
  void put(const obs::DeltaWindow& window) {
    const std::string line = obs::delta_window_to_json(window) + "\n";
    if (args_.watch) {
      std::fputs(line.c_str(), stdout);
      std::fflush(stdout);
    }
    if (file_ != nullptr) {
      std::fputs(line.c_str(), file_);
      std::fflush(file_);
    }
  }
  bool close() {
    if (file_ == nullptr) return true;
    const bool ok = std::fclose(file_) == 0;
    file_ = nullptr;
    return ok || fail();
  }

 private:
  bool fail() const {
    std::fprintf(stderr, "error: cannot write delta stream to '%s'\n",
                 args_.delta_out.c_str());
    return false;
  }

  const core::CliArgs& args_;
  std::FILE* file_ = nullptr;
};

/// Output tail of batch 'monitor' and 'merge': the whole delta stream, then
/// the report outputs.
bool write_batch_outputs(const core::CliArgs& args,
                         const monitor::MonitorReport& report,
                         const obs::RunObservations& observations) {
  DeltaSink deltas(args);
  if (!deltas.open()) return false;
  for (const obs::DeltaWindow& w : observations.deltas) deltas.put(w);
  return deltas.close() &&
         write_report_outputs(args, report, observations.telemetry);
}

/// Shared gate tail for 'monitor' (batch + streaming) and 'merge': exit 1
/// on unattributed packets or over-threshold violations, 3 on drift alerts
/// ("about to violate"), 0 clean.
int monitor_exit_code(const monitor::MonitorReport& report,
                      std::uint64_t violation_threshold, std::size_t alerts) {
  if (report.unattributed > 0) {
    std::fprintf(stderr,
                 "error: %llu packets not attributable to any contract "
                 "entry (first at %llu)\n",
                 static_cast<unsigned long long>(report.unattributed),
                 static_cast<unsigned long long>(
                     report.first_unattributed_packet));
    return 1;
  }
  if (report.violations > violation_threshold) {
    std::fprintf(stderr, "error: %llu violations (threshold %llu)\n",
                 static_cast<unsigned long long>(report.violations),
                 static_cast<unsigned long long>(violation_threshold));
    return 1;
  }
  if (alerts > 0) {
    std::fprintf(stderr,
                 "warning: %zu contract-drift alert(s) raised (no violation "
                 "yet; details in the delta stream)\n",
                 alerts);
    return 3;
  }
  return 0;
}

/// Streaming/fleet monitor path: one StreamMonitor fed packet-by-packet
/// (from the preloaded trace, or by tailing --pcap in --follow mode),
/// emitting delta lines, spool partials and metrics refreshes as windows
/// close. The final report goes through the same gates as the batch path.
int run_stream_monitor(const std::string& nf, const perf::Contract& contract,
                       const perf::PcvRegistry& reg,
                       monitor::MonitorOptions options,
                       const core::CliArgs& args,
                       const std::vector<net::Packet>& packets) {
  monitor::FleetOptions fleet;
  fleet.instance = args.fleet.instance;
  fleet.instances = args.fleet.instances;

  if (!args.spool.empty()) {
    // One level of mkdir (EEXIST is fine): a fleet's instances race to
    // create the shared spool, and either winning is correct.
    if (::mkdir(args.spool.c_str(), 0777) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "error: cannot create spool directory '%s'\n",
                   args.spool.c_str());
      return 1;
    }
  }

  DeltaSink deltas(args);
  if (!deltas.open()) return 1;

  bool spool_write_failed = false;
  const monitor::StreamMonitor* stream = nullptr;  // set once constructed
  auto on_window = [&](const monitor::ClosedWindow& cw) {
    // Delta lines are authoritative-only (a provisional flush has no drift
    // pass and would duplicate the window).
    if (cw.has_delta && !cw.provisional) deltas.put(cw.delta);
    // Spool partials upsert by filename: a provisional emission is
    // overwritten by the authoritative close of the same window.
    if (!args.spool.empty() && cw.stats->packets > 0) {
      const std::string path =
          obs::spool_window_path(args.spool, nf, fleet.instance, cw.window);
      const obs::WindowPartial wp = obs::window_partial(*stream, cw);
      if (!support::write_file(path, obs::window_partial_to_json(wp) + "\n")) {
        std::fprintf(stderr, "error: cannot write spool partial '%s'\n",
                     path.c_str());
        spool_write_failed = true;
      }
    }
  };

  monitor::StreamMonitor sm(contract, reg, monitor::MonitorEngine::named_factory(nf),
                            options, fleet, on_window);
  stream = &sm;

  auto refresh_metrics = [&]() {
    // Mid-run refreshes are best-effort; the final write is the gated one.
    if (options.telemetry && !args.metrics_out.empty()) {
      write_metrics_file(args, sm.telemetry_snapshot(), contract.nf_name());
    }
  };

  support::BenchTimer timer;
  if (args.follow) {
    // Daemon: tail the pcap as it grows; SIGINT/SIGTERM drains cleanly.
    std::signal(SIGINT, handle_stop);
    std::signal(SIGTERM, handle_stop);
    net::PcapTail tail(args.pcap);
    constexpr std::uint64_t kPollNs = 20'000'000;  // 20 ms
    std::uint64_t idle_ns = 0;
    bool flushed_idle = false;
    std::string error;
    while (g_stop == 0) {
      const std::vector<net::Packet> chunk = tail.poll(&error);
      if (!error.empty()) break;
      if (chunk.empty()) {
        if (args.idle_exit_ms > 0 &&
            idle_ns >= args.idle_exit_ms * 1'000'000) {
          break;
        }
        if (args.idle_flush_ns > 0 && idle_ns >= args.idle_flush_ns &&
            !flushed_idle) {
          sm.idle_flush();
          refresh_metrics();
          flushed_idle = true;  // once per quiet spell; new data re-arms
        }
        std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
        idle_ns += kPollNs;
        continue;
      }
      idle_ns = 0;
      flushed_idle = false;
      for (const net::Packet& p : chunk) sm.feed(p);
      refresh_metrics();
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    if (!error.empty()) return input_error(args.pcap, error);
  } else {
    for (const net::Packet& p : packets) sm.feed(p);
  }

  monitor::StreamResult result = sm.finish();
  const double elapsed_ms = timer.elapsed_ms();
  const std::uint64_t fed = sm.packets_fed();

  if (!deltas.close()) return 1;
  if (!args.spool.empty()) {
    const std::string path = obs::spool_final_path(args.spool, nf, fleet.instance);
    const obs::FinalPartial fp = obs::final_partial(sm, result);
    if (!support::write_file(path, obs::final_partial_to_json(fp) + "\n")) {
      std::fprintf(stderr, "error: cannot write spool partial '%s'\n",
                   path.c_str());
      spool_write_failed = true;
    }
  }
  if (!write_report_outputs(args, result.report,
                            result.observations.telemetry)) {
    return 1;
  }
  print_throughput(args, fed, elapsed_ms);
  if (spool_write_failed) return 1;
  return monitor_exit_code(result.report, args.violation_threshold,
                           result.observations.alerts.size());
}

int cmd_monitor(const std::string& nf, const core::CliArgs& args) {
  perf::PcvRegistry reg;
  perf::Contract contract("");
  core::GenerationResult generated;
  if (const int rc = acquire_contract(nf, args.contract, args.threads, reg,
                                      contract, &generated)) {
    return rc;
  }

  if (args.follow && args.pcap.empty()) {
    std::fprintf(stderr, "error: --follow requires --pcap FILE to tail\n");
    return 2;
  }

  // Traffic side. --follow tails the pcap itself (the file may not even
  // exist yet), so nothing is preloaded.
  std::vector<net::Packet> packets;
  if (!args.follow) {
    std::string error;
    if (!args.pcap.empty()) {
      if (!net::read_pcap(args.pcap, &packets, &error)) {
        return input_error(args.pcap, error);
      }
    } else if (!core::make_workload(nf, args.workload, args.packets,
                                    &packets)) {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   args.workload.c_str());
      return usage();
    }
    if (packets.empty()) {
      std::fprintf(stderr, "error: no packets to monitor\n");
      return usage();
    }
  }

  monitor::MonitorOptions options;
  options.partitions = args.partitions;
  options.threads = args.threads;
  options.epoch_ns = args.epoch_ns;
  options.check_cycles = !args.no_cycles;
  // Telemetry layer: --watch and --delta-out imply delta mode at the
  // finest granularity unless --delta-every chose one.
  options.delta_every = args.delta_every;
  if ((args.watch || !args.delta_out.empty()) && options.delta_every == 0) {
    options.delta_every = 1;
  }
  options.telemetry = !args.metrics_out.empty();
  if (args.inflate_pct > 0) {
    options.framework.rx_instructions +=
        options.framework.rx_instructions * args.inflate_pct / 100;
    options.framework.rx_accesses +=
        options.framework.rx_accesses * args.inflate_pct / 100;
    options.framework.tx_instructions +=
        options.framework.tx_instructions * args.inflate_pct / 100;
    options.framework.tx_accesses +=
        options.framework.tx_accesses * args.inflate_pct / 100;
  }
  // Daemon / fleet runs go through the streaming monitor: it feeds one
  // packet at a time, closes windows on packet timestamps and emits delta
  // lines / spool partials as it goes, then drains through the same
  // build_report path as the batch engine (byte-identical final report).
  const bool streaming =
      args.follow || !args.spool.empty() || args.fleet.instances > 1;
  if (streaming) {
    return run_stream_monitor(nf, contract, reg, options, args, packets);
  }

  monitor::MonitorEngine engine(contract, reg, options);

  obs::RunObservations observations;
  const bool want_obs = options.delta_every > 0 || options.telemetry;
  support::BenchTimer timer;
  const monitor::MonitorReport report =
      engine.run(packets, monitor::MonitorEngine::named_factory(nf), nullptr,
                 want_obs ? &observations : nullptr);
  const double elapsed_ms = timer.elapsed_ms();

  if (!write_batch_outputs(args, report, observations)) return 1;
  print_throughput(args, packets.size(), elapsed_ms);
  // Drift alerts get their own exit code so CI can distinguish "about to
  // violate" (3) from "violating" (1) and "clean" (0).
  return monitor_exit_code(report, args.violation_threshold,
                           observations.alerts.size());
}

/// 'bolt merge <nf> --spool DIR': fold a fleet's spooled partials into the
/// fleet-wide delta stream and final report. Same output surfaces and exit
/// codes as 'monitor'; the result is byte-identical to a single monitor
/// over the combined traffic, regardless of how many instances spooled or
/// in what order their files land.
int cmd_merge(const std::string& nf, const core::CliArgs& args) {
  if (args.spool.empty()) {
    std::fprintf(stderr, "error: 'merge' requires --spool DIR\n");
    return 2;
  }
  std::vector<obs::WindowPartial> windows;
  std::vector<obs::FinalPartial> finals;
  std::string error;
  if (!obs::read_spool(args.spool, nf, &windows, &finals, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (finals.empty()) {
    std::fprintf(stderr,
                 "error: no fleet partials for '%s' under '%s' (need at "
                 "least one final partial)\n",
                 nf.c_str(), args.spool.c_str());
    return 2;
  }
  // Instances run with the default drift tuning (the monitor CLI exposes
  // no drift knobs), so the replayed detector matches their alerts.
  const obs::FleetMergeResult merged =
      obs::merge_partials(windows, finals, obs::DriftOptions{});

  if (!write_batch_outputs(args, merged.report, merged.observations)) {
    return 1;
  }
  std::fprintf(stderr, "merged %zu window partial(s) from %zu file(s) across "
               "the fleet\n",
               windows.size(), windows.size() + finals.size());
  return monitor_exit_code(merged.report, args.violation_threshold,
                           merged.observations.alerts.size());
}

/// The synthesiser knobs 'adversary' and 'hunt' share.
adversary::AdversaryOptions adversary_options(const core::CliArgs& args) {
  adversary::AdversaryOptions opts;
  opts.seed = args.seed;
  opts.partitions = args.partitions;
  opts.epoch_ns = args.epoch_ns;
  opts.probes_per_class = args.probes;
  opts.threads = args.threads;
  return opts;
}

int cmd_adversary(const std::string& nf, const core::CliArgs& args) {
  // In-process mode runs the generator once; its path reports double as
  // the synthesiser's witnesses. Stored mode leaves witness generation to
  // adversarial_traffic (bounds come from the artifact, witnesses can't).
  perf::PcvRegistry reg;
  perf::Contract contract("");
  core::GenerationResult generated;
  if (const int rc = acquire_contract(nf, args.contract, args.threads, reg,
                                      contract, &generated)) {
    return rc;
  }
  const std::vector<core::PathReport>* witnesses =
      args.contract.empty() ? &generated.path_reports : nullptr;

  const adversary::AdversarialTrace trace = adversary::adversarial_traffic(
      nf, contract, reg, adversary_options(args), witnesses);
  if (!args.out.empty()) {
    if (!adversary::save_trace(args.out, trace)) {
      std::fprintf(stderr, "error: cannot write trace pair '%s.{pcap,json}'\n",
                   args.out.c_str());
      return 1;
    }
    std::fprintf(stderr, "stored adversarial trace (%zu packets) in %s.pcap "
                 "+ %s.json\n",
                 trace.packets.size(), args.out.c_str(), args.out.c_str());
  }

  monitor::MonitorOptions mopts;
  mopts.threads = args.threads;
  const adversary::GapReport gap =
      adversary::replay(trace, contract, reg, mopts);

  if (!args.report.empty() &&
      !support::write_file(args.report,
                           adversary::gap_report_to_json(gap) + "\n")) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 args.report.c_str());
    return 1;
  }
  if (args.json) {
    std::printf("%s\n", adversary::gap_report_to_json(gap).c_str());
  } else {
    std::printf("%s", gap.str().c_str());
  }

  // CI gates: the closed loop must actually close (plan == observation)
  // and cover the demanded share of the contract's classes.
  if (gap.mismatched > 0) {
    std::fprintf(stderr,
                 "error: %llu packets attributed differently than planned "
                 "(first at %llu)\n",
                 static_cast<unsigned long long>(gap.mismatched),
                 static_cast<unsigned long long>(gap.first_mismatch));
    return 1;
  }
  const std::uint64_t reached_pct =
      gap.classes_total == 0
          ? 100
          : gap.classes_reached * 100 / gap.classes_total;
  if (reached_pct < args.min_reached_pct) {
    std::fprintf(stderr, "error: only %llu%% of classes reached (need %llu%%)\n",
                 static_cast<unsigned long long>(reached_pct),
                 static_cast<unsigned long long>(args.min_reached_pct));
    return 1;
  }
  return 0;
}

std::string hunt_to_json(const std::string& nf, const core::CliArgs& args,
                         const adversary::HunterResult& hunt,
                         const adversary::MinimizeResult* minimized) {
  support::JsonWriter w;
  w.object([&] {
    w.field("version", 1);
    w.field("nf", nf);
    w.field("seed", args.seed);
    w.field("violation_found", hunt.violation_found);
    w.field("divergence_found", hunt.divergence_found);
    w.field("violation_generation", hunt.violation_generation);
    w.field("replays", hunt.replays);
    w.object("fitness", [&] {
      w.field("violations", hunt.fitness.violations);
      w.field("margin_p99_pm", hunt.fitness.margin_p99_pm);
      w.field("worst_util_pm", hunt.fitness.worst_util_pm);
      w.field("total_util_pm", hunt.fitness.total_util_pm);
    });
    w.field("packets", hunt.best.packets.size());
    w.field("history", hunt.history);
    w.key("minimized");
    w.nullable(minimized != nullptr, [&] {
      w.object([&] {
        w.field("reproduced", minimized->reproduced);
        w.field("one_minimal", minimized->one_minimal);
        w.field("original_packets", minimized->original_packets);
        w.field("packets", minimized->minimized_packets);
        w.field("replays", minimized->replays);
      });
    });
  });
  return w.take();
}

int cmd_hunt(const std::string& nf, const core::CliArgs& args) {
  // Same contract conventions as 'adversary'.
  perf::PcvRegistry reg;
  perf::Contract contract("");
  core::GenerationResult generated;
  if (const int rc = acquire_contract(nf, args.contract, args.threads, reg,
                                      contract, &generated)) {
    return rc;
  }
  const std::vector<core::PathReport>* witnesses =
      args.contract.empty() ? &generated.path_reports : nullptr;

  adversary::HunterOptions opts;
  opts.seed = args.seed;
  opts.generations = args.generations;
  opts.population = args.population;
  opts.budget = args.budget;
  opts.adversary = adversary_options(args);
  opts.monitor.threads = args.threads;
  opts.monitor.inject_straddle_bug = args.inject_straddle_bug;

  const adversary::HunterResult hunt =
      adversary::hunt(nf, contract, reg, opts, witnesses);
  const bool found = hunt.violation_found || hunt.divergence_found;

  // A find is only actionable minimised: shrink it through the same oracle
  // (bug injection included) and persist the witness pair for regression
  // check-in.
  adversary::MinimizeResult minimized;
  if (found) {
    adversary::MinimizeOptions mopts;
    mopts.adversary = opts.adversary;
    mopts.monitor = opts.monitor;
    mopts.max_replays = args.max_replays;
    minimized =
        adversary::minimize(nf, contract, reg, hunt.best.packets, mopts);
    if (!args.out.empty()) {
      if (!adversary::save_trace(args.out, minimized.trace)) {
        std::fprintf(stderr,
                     "error: cannot write trace pair '%s.{pcap,json}'\n",
                     args.out.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "stored minimised violating trace (%zu packets, from %zu)"
                   " in %s.pcap + %s.json\n",
                   minimized.minimized_packets, minimized.original_packets,
                   args.out.c_str(), args.out.c_str());
    }
  }

  const std::string hunt_json =
      hunt_to_json(nf, args, hunt, found ? &minimized : nullptr);
  if (!args.report.empty() &&
      !support::write_file(args.report, hunt_json + "\n")) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 args.report.c_str());
    return 1;
  }
  if (args.json) {
    std::printf("%s\n", hunt_json.c_str());
  } else {
    for (const std::string& line : hunt.history) {
      std::printf("%s\n", line.c_str());
    }
    if (found) {
      std::printf("%s: %s in generation %zu (%llu replays)\n", nf.c_str(),
                  hunt.violation_found ? "VIOLATION" : "PLAN DIVERGENCE",
                  hunt.violation_generation,
                  static_cast<unsigned long long>(hunt.replays));
      std::printf("minimised %zu -> %zu packets (%s, %llu oracle replays)\n",
                  minimized.original_packets, minimized.minimized_packets,
                  minimized.one_minimal ? "1-minimal"
                                        : "replay budget spent",
                  static_cast<unsigned long long>(minimized.replays));
      std::printf("%s", minimized.report.str().c_str());
    } else {
      std::printf("%s: no violation in %llu replays (best fitness "
                  "%llu/%llu/%llu/%llu)\n",
                  nf.c_str(), static_cast<unsigned long long>(hunt.replays),
                  static_cast<unsigned long long>(hunt.fitness.violations),
                  static_cast<unsigned long long>(hunt.fitness.margin_p99_pm),
                  static_cast<unsigned long long>(hunt.fitness.worst_util_pm),
                  static_cast<unsigned long long>(hunt.fitness.total_util_pm));
    }
  }

  // The gate: a hunt that finds a violation (or a shadow/monitor
  // divergence) fails the build — the minimised witness is the repro.
  if (found) {
    std::fprintf(stderr, "error: contract %s found\n",
                 hunt.violation_found ? "violation" : "plan divergence");
    return 1;
  }
  return 0;
}

int cmd_scenarios(std::size_t threads) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Scenario", "Pred IC", "Meas IC", "Pred cycles",
                  "Meas cycles", "Ratio"});
  for (const core::ScenarioResult& r : core::run_all_scenarios({}, threads)) {
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.2f", r.cycles_ratio());
    rows.push_back(
        {r.id, support::with_commas(r.predicted_ic),
         support::with_commas(static_cast<std::int64_t>(r.measured_ic)),
         support::with_commas(r.predicted_cycles),
         support::with_commas(static_cast<std::int64_t>(r.measured_cycles)),
         ratio});
  }
  std::printf("%s", support::render_table(rows).c_str());
  return 0;
}

int cmd_gen(const std::vector<std::string>& operands) {
  const std::string& kind = operands[0];
  const std::string& out = operands[1];
  std::uint64_t count = 10'000;
  std::string error;
  if (operands.size() > 2 &&
      !core::parse_number("count", operands[2].c_str(), &count, &error)) {
    std::fputs(error.c_str(), stderr);
    return 2;
  }
  std::vector<net::Packet> packets;
  if (!core::make_workload("", kind, count, &packets)) return usage();
  net::write_pcap(out, packets);
  std::printf("wrote %zu packets to %s\n", packets.size(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --help anywhere on the line: help is the requested output, so it goes
  // to stdout and exits 0 (usage-on-error keeps going to stderr, exit 2).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::fputs(core::cli_usage_text(), stdout);
      return 0;
    }
  }
  core::CliArgs args;
  std::string error;
  if (!core::parse_cli(argc, argv, &args, &error)) {
    std::fputs(error.c_str(), stderr);
    return 2;
  }
  const std::string& cmd = args.command;
  const std::vector<std::string>& ops = args.operands;
  if (cmd == "contract" || cmd == "paths") {
    return cmd_contract(args, cmd == "paths");
  }
  if (cmd == "distill") return cmd_distill(ops[0], ops[1]);
  if (cmd == "predict") {
    return cmd_predict(ops[0], std::vector<std::string>(ops.begin() + 1,
                                                        ops.end()));
  }
  if (cmd == "monitor") return cmd_monitor(ops[0], args);
  if (cmd == "merge") return cmd_merge(ops[0], args);
  if (cmd == "adversary") return cmd_adversary(ops[0], args);
  if (cmd == "hunt") return cmd_hunt(ops[0], args);
  if (cmd == "gen") return cmd_gen(ops);
  return cmd_scenarios(args.threads);
}
