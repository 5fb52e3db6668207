// Fleet mode costs: streaming-monitor overhead vs the batch engine, and
// the merger's throughput over a fleet's serialised partials.
//
// Archived in BENCH_fleet_merge.json when BOLT_BENCH_JSON is set:
//
//  1. stream_monitor_pps — packets/sec through the single-threaded
//     StreamMonitor (feed() per packet, windows closing as timestamps
//     advance), next to the single-threaded batch engine on the same
//     trace. The streaming shape exists for daemons, not throughput, but
//     it must stay within shouting distance of the batch path.
//
//  2. fleet_merge_ms / fleet_merge_partials_per_s — wall time to fold a
//     4-instance fleet's window+final partials (parse from JSON included,
//     the same work `bolt_cli merge` does per spool file) into the
//     fleet-wide report and delta stream.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "net/workload.h"
#include "obs/fleet.h"
#include "support/bench.h"

using namespace bolt;

namespace {

constexpr int kReps = 3;

template <typename F>
double best_seconds(int reps, F&& body) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    support::BenchTimer timer;
    body();
    best = std::min(best, timer.elapsed_ms() / 1000.0);
  }
  return best;
}

}  // namespace

int main() {
  support::BenchReport bench("fleet_merge");

  perf::PcvRegistry reg;
  core::NfTarget target;
  core::make_named_target("nat", reg, target);
  core::ContractGenerator gen(reg);
  const core::GenerationResult result = gen.generate(target.analysis());

  net::ZipfSpec spec;
  spec.flow_pool = 2048;
  spec.skew = 1.1;
  spec.packet_count = 200'000;
  const std::vector<net::Packet> packets = net::zipf_traffic(spec);

  monitor::MonitorOptions opts;
  opts.threads = 1;
  opts.epoch_ns = 10'000'000;  // 10 ms: the short trace spans many windows
  opts.delta_every = 1;

  // --- streaming vs batch, single-threaded -------------------------------
  const double batch_s = best_seconds(kReps, [&] {
    monitor::MonitorEngine engine(result.contract, reg, opts);
    obs::RunObservations observations;
    engine.run(packets, monitor::MonitorEngine::named_factory("nat"), nullptr,
               &observations);
  });
  const double stream_s = best_seconds(kReps, [&] {
    monitor::StreamMonitor sm(result.contract, reg,
                              monitor::MonitorEngine::named_factory("nat"),
                              opts);
    for (const net::Packet& p : packets) sm.feed(p);
    sm.finish();
  });
  const double n = static_cast<double>(packets.size());
  std::printf("monitor (NAT, %zu packets, 10 ms windows):\n", packets.size());
  std::printf("  batch engine, 1 thread:  %10.0f pps\n", n / batch_s);
  std::printf("  stream monitor (feed):   %10.0f pps  (%.2fx of batch)\n",
              n / stream_s, batch_s / stream_s);
  bench.metric("monitor_batch_1thread_pps", n / batch_s, "packets/s");
  bench.metric("stream_monitor_pps", n / stream_s, "packets/s");
  bench.metric("stream_vs_batch_ratio", batch_s / stream_s, "x",
               /*gate=*/false);

  // --- fleet merge throughput --------------------------------------------
  // Serialise a 4-instance fleet's partials once, then time parse + merge
  // (the per-file work 'bolt_cli merge' does, minus the disk).
  constexpr std::uint32_t kInstances = 4;
  std::vector<std::string> window_files;
  std::vector<std::string> final_files;
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    monitor::FleetOptions fleet;
    fleet.instance = i;
    fleet.instances = kInstances;
    const monitor::StreamMonitor* stream = nullptr;  // set once constructed
    auto on_window = [&](const monitor::ClosedWindow& cw) {
      if (cw.stats->packets == 0) return;
      window_files.push_back(
          obs::window_partial_to_json(obs::window_partial(*stream, cw)));
    };
    monitor::StreamMonitor sm(result.contract, reg,
                              monitor::MonitorEngine::named_factory("nat"),
                              opts, fleet, on_window);
    stream = &sm;
    for (const net::Packet& p : packets) sm.feed(p);
    const monitor::StreamResult res = sm.finish();
    final_files.push_back(
        obs::final_partial_to_json(obs::final_partial(sm, res)));
  }
  std::uint64_t sink = 0;
  const double merge_s = best_seconds(kReps, [&] {
    std::vector<obs::WindowPartial> windows;
    for (const std::string& s : window_files) {
      windows.push_back(obs::parse_window_partial(s));
    }
    std::vector<obs::FinalPartial> finals;
    for (const std::string& s : final_files) {
      finals.push_back(obs::parse_final_partial(s));
    }
    const obs::FleetMergeResult merged =
        obs::merge_partials(windows, finals, {});
    sink += merged.report.attributed;
  });
  const double files =
      static_cast<double>(window_files.size() + final_files.size());
  std::printf("\nfleet merge (%u instances, %zu window partials):\n",
              kInstances, window_files.size());
  std::printf("  parse + merge: %8.2f ms  (%6.0f partials/s, sink %llu)\n",
              merge_s * 1000.0, files / merge_s,
              static_cast<unsigned long long>(sink));
  bench.metric("fleet_merge_ms", merge_s * 1000.0, "ms");
  bench.metric("fleet_merge_partials_per_s", files / merge_s, "partials/s");
  return 0;
}
