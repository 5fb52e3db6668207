// Fleet mode (monitor/follow.h + obs/fleet.h): the streaming monitor and
// the partial-state merger.
//
// The contracts pinned here are the operator-facing guarantees:
//  * a StreamMonitor fed packet-by-packet produces a final report and a
//    delta stream byte-identical to a batch run (the whole trace as one
//    chunk), so a drained daemon reports exactly what a batch re-run
//    would; on a trace that steps back past the open window, random
//    chunkings and a 2-instance fleet agree too, late count included;
//  * an idle flush is provisional — it emits the open window early but
//    never perturbs the authoritative stream or the final report;
//  * N fleet instances over random partition-ownership splits, their
//    partials merged in random order with a duplicated file thrown in,
//    reconstruct the single-instance report and delta stream byte for
//    byte (the property 'bolt_cli merge' ships on);
//  * batch, a drained stream and a merged fleet mirror the same merge-time
//    telemetry facts, and unattributed packets survive a fleet merge;
//  * partials round-trip through their schema-versioned JSON exactly, and
//    the spool reader picks up precisely the files the naming scheme owns;
//  * PcapTail sees records appended chunk-by-chunk, torn mid-record
//    writes included, yields exactly read_pcap's packets for seeded random
//    chunk sizes, and reports a record longer than the snaplen or an
//    unreadable path as an error — the --follow daemon's input contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "net/pcap.h"
#include "net/workload.h"
#include "obs/delta.h"
#include "obs/fleet.h"
#include "support/io.h"

namespace bolt::obs {
namespace {

/// A contract generated in-process, with the registry its PCVs use.
struct NfFixture {
  perf::PcvRegistry reg;
  core::GenerationResult gen;
};
using RouterFixture = NfFixture;

NfFixture* generate(const char* nf) {
  auto* r = new NfFixture;
  core::NfTarget target;
  EXPECT_TRUE(core::make_named_target(nf, r->reg, target));
  core::ContractGenerator g(r->reg);
  r->gen = g.generate(target.analysis());
  return r;
}

RouterFixture& router() {
  static RouterFixture* f = generate("router");
  return *f;
}

/// NAT keeps per-flow state, so its runs sweep epochs and mark a state
/// high water; the router's do neither.
NfFixture& nat() {
  static NfFixture* f = generate("nat");
  return *f;
}

const std::vector<net::Packet>& drift_packets() {
  static auto* p = new std::vector<net::Packet>([] {
    net::DriftSpec spec;
    spec.packets_per_window = 200;  // 11 windows x 200 = 2200 packets
    return net::drift_traffic(spec);
  }());
  return *p;
}

/// A compressed week of NAT traffic: many windows, epoch sweeps and
/// several classes.
const std::vector<net::Packet>& longrun_packets() {
  static auto* p = new std::vector<net::Packet>([] {
    net::LongRunSpec spec;
    spec.packet_count = 20'000;
    return net::long_run_traffic(spec);
  }());
  return *p;
}

monitor::MonitorOptions stream_options() {
  monitor::MonitorOptions o;
  o.delta_every = 1;
  return o;
}

/// One streaming run: the emitted authoritative delta stream, the final
/// report, and the serialised fleet partials (exactly what the CLI spools).
struct StreamRun {
  std::string report_json;
  std::string delta_jsonl;
  std::vector<std::string> window_partials;
  std::string final_partial;
  std::size_t provisional_emits = 0;
  std::size_t alerts = 0;
};

StreamRun run_stream(const std::vector<net::Packet>& packets,
                     monitor::FleetOptions fleet,
                     std::size_t idle_flush_every = 0) {
  RouterFixture& f = router();
  StreamRun out;
  const monitor::StreamMonitor* stream = nullptr;  // set once constructed
  auto on_window = [&](const monitor::ClosedWindow& cw) {
    if (cw.provisional) ++out.provisional_emits;
    if (cw.has_delta && !cw.provisional) {
      out.delta_jsonl += delta_window_to_json(cw.delta);
      out.delta_jsonl += '\n';
    }
    if (cw.provisional || cw.stats->packets == 0) return;
    out.window_partials.push_back(
        window_partial_to_json(window_partial(*stream, cw)));
  };
  monitor::StreamMonitor sm(f.gen.contract, f.reg,
                            monitor::MonitorEngine::named_factory("router"),
                            stream_options(), fleet, on_window);
  stream = &sm;
  std::size_t fed = 0;
  for (const net::Packet& p : packets) {
    sm.feed(p);
    if (idle_flush_every > 0 && ++fed % idle_flush_every == 0) {
      sm.idle_flush();
    }
  }
  monitor::StreamResult res = sm.finish();
  out.report_json = monitor::report_to_json(res.report);
  out.alerts = res.observations.alerts.size();
  out.final_partial = final_partial_to_json(final_partial(sm, res));
  return out;
}

/// An `instances`-instance fleet over `packets`: every instance's partials
/// round-trip through their JSON, then merge as 'bolt_cli merge' does.
FleetMergeResult run_fleet(const perf::Contract& contract,
                           const perf::PcvRegistry& reg, const char* nf,
                           const std::vector<net::Packet>& packets,
                           const monitor::MonitorOptions& opts,
                           std::uint32_t instances) {
  std::vector<WindowPartial> windows;
  std::vector<FinalPartial> finals;
  for (std::uint32_t i = 0; i < instances; ++i) {
    monitor::FleetOptions fleet;
    fleet.instance = i;
    fleet.instances = instances;
    const monitor::StreamMonitor* stream = nullptr;  // set once constructed
    auto on_window = [&](const monitor::ClosedWindow& cw) {
      if (cw.provisional || cw.stats->packets == 0) return;
      windows.push_back(parse_window_partial(
          window_partial_to_json(window_partial(*stream, cw))));
    };
    monitor::StreamMonitor sm(contract, reg,
                              monitor::MonitorEngine::named_factory(nf), opts,
                              fleet, on_window);
    stream = &sm;
    for (const net::Packet& p : packets) sm.feed(p);
    const monitor::StreamResult res = sm.finish();
    finals.push_back(
        parse_final_partial(final_partial_to_json(final_partial(sm, res))));
  }
  return merge_partials(windows, finals, opts.drift);
}

// ---------------------------------------------------------------------------
// Streaming vs batch.

TEST(StreamMonitor, MatchesBatchByteForByte) {
  RouterFixture& f = router();
  monitor::MonitorEngine engine(f.gen.contract, f.reg, stream_options());
  RunObservations observations;
  const monitor::MonitorReport batch =
      engine.run(drift_packets(),
                 monitor::MonitorEngine::named_factory("router"), nullptr,
                 &observations);
  std::string batch_deltas;
  for (const DeltaWindow& w : observations.deltas) {
    batch_deltas += delta_window_to_json(w);
    batch_deltas += '\n';
  }
  const StreamRun stream = run_stream(drift_packets(), {});
  EXPECT_EQ(monitor::report_to_json(batch), stream.report_json);
  EXPECT_EQ(batch_deltas, stream.delta_jsonl);
  EXPECT_EQ(observations.alerts.size(), stream.alerts);
  ASSERT_GE(observations.deltas.size(), 10u);  // the run exercises windows
  EXPECT_GT(stream.alerts, 0u);  // and the drift detector fires streaming
}

TEST(StreamMonitor, IdleFlushIsProvisionalAndDoesNotPerturbTheRun) {
  const StreamRun plain = run_stream(drift_packets(), {});
  const StreamRun flushed = run_stream(drift_packets(), {},
                                       /*idle_flush_every=*/97);
  EXPECT_GT(flushed.provisional_emits, 0u);
  EXPECT_EQ(plain.report_json, flushed.report_json);
  EXPECT_EQ(plain.delta_jsonl, flushed.delta_jsonl);
  EXPECT_EQ(plain.window_partials, flushed.window_partials);
  EXPECT_EQ(plain.final_partial, flushed.final_partial);
}

TEST(StreamMonitor, DeltaStreamIsOneCompleteJsonObjectPerLine) {
  const StreamRun stream = run_stream(drift_packets(), {});
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < stream.delta_jsonl.size()) {
    const std::size_t end = stream.delta_jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // every line newline-terminated
    const std::string line = stream.delta_jsonl.substr(start, end - start);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // Balanced braces outside strings: the line is a whole JSON object,
    // never a torn prefix — what a tail -f of --delta-out relies on.
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        EXPECT_GE(depth, 0);
      }
    }
    EXPECT_EQ(depth, 0) << line;
    start = end + 1;
    ++lines;
  }
  EXPECT_GE(lines, 10u);
}

// Late packets: a trace whose timestamps step back past the open window.
// The monitor clamps such a packet into the open window (and counts it),
// so however the stream is cut into chunks — one batch chunk, random chunk
// sizes, or a 2-instance fleet — the report, the delta stream and the late
// count agree.
TEST(StreamMonitor, NonMonotoneTraceAgreesAcrossChunkingsAndFleet) {
  NfFixture& f = nat();
  const monitor::MonitorOptions opts = stream_options();
  const std::uint64_t window_ns = opts.epoch_ns * opts.delta_every;
  std::vector<net::Packet> trace = longrun_packets();
  for (std::size_t i = 7; i < trace.size(); i += 13) {
    const std::uint64_t ts = trace[i].timestamp_ns();
    if (ts >= 2 * window_ns) trace[i].set_timestamp_ns(ts - 3 * window_ns / 2);
  }
  // The clamp rule, computed independently: a packet is late when its
  // window is below the highest window seen before it.
  std::uint64_t expected_late = 0;
  std::uint64_t open_window = 0;
  for (const net::Packet& p : trace) {
    const std::uint64_t w = p.timestamp_ns() / window_ns;
    if (w < open_window) ++expected_late;
    open_window = std::max(open_window, w);
  }
  ASSERT_GT(expected_late, 100u);

  const auto factory = monitor::MonitorEngine::named_factory("nat");
  const auto deltas_of = [](const std::vector<DeltaWindow>& windows) {
    std::string out;
    for (const DeltaWindow& w : windows) out += delta_window_to_json(w) + "\n";
    return out;
  };
  RunObservations batch_obs;
  const std::string batch = monitor::report_to_json(
      monitor::MonitorEngine(f.gen.contract, f.reg, opts)
          .run(trace, factory, nullptr, &batch_obs));
  const std::string batch_deltas = deltas_of(batch_obs.deltas);
  ASSERT_GE(batch_obs.deltas.size(), 10u);

  std::mt19937_64 rng(0x1A7E);
  for (int round = 0; round < 3; ++round) {
    std::vector<DeltaWindow> streamed;
    std::uint64_t late = 0;
    monitor::StreamMonitor sm(
        f.gen.contract, f.reg, factory, opts, {},
        [&](const monitor::ClosedWindow& cw) {
          if (cw.has_delta) streamed.push_back(cw.delta);
          late += cw.stats->late_packets;
        });
    for (std::size_t at = 0; at < trace.size();) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 700,
                                                   trace.size() - at);
      sm.feed(trace.data() + at, n);
      at += n;
    }
    EXPECT_EQ(monitor::report_to_json(sm.finish().report), batch) << round;
    EXPECT_EQ(deltas_of(streamed), batch_deltas) << round;
    EXPECT_EQ(late, expected_late) << round;
  }

  std::uint64_t fleet_late = 0;
  std::vector<WindowPartial> windows;
  std::vector<FinalPartial> finals;
  for (std::uint32_t i = 0; i < 2; ++i) {
    monitor::FleetOptions fleet;
    fleet.instance = i;
    fleet.instances = 2;
    const monitor::StreamMonitor* stream = nullptr;  // set once constructed
    monitor::StreamMonitor sm(
        f.gen.contract, f.reg, factory, opts, fleet,
        [&](const monitor::ClosedWindow& cw) {
          if (cw.stats->packets == 0) return;
          windows.push_back(parse_window_partial(
              window_partial_to_json(window_partial(*stream, cw))));
          fleet_late += windows.back().late_packets;
        });
    stream = &sm;
    for (const net::Packet& p : trace) sm.feed(p);
    const monitor::StreamResult res = sm.finish();
    finals.push_back(
        parse_final_partial(final_partial_to_json(final_partial(sm, res))));
  }
  const FleetMergeResult merged = merge_partials(windows, finals, opts.drift);
  EXPECT_EQ(monitor::report_to_json(merged.report), batch);
  EXPECT_EQ(deltas_of(merged.observations.deltas), batch_deltas);
  EXPECT_EQ(fleet_late, expected_late);
}

// ---------------------------------------------------------------------------
// Fleet splits + merge.

TEST(Fleet, RandomSplitsMergeByteForByte) {
  const StreamRun single = run_stream(drift_packets(), {});
  std::mt19937_64 rng(0xB017'F1EE7u);
  for (const std::uint32_t instances : {2u, 5u, 8u}) {
    // Random partition -> instance ownership, shared by the whole fleet.
    monitor::FleetOptions base;
    base.instances = instances;
    base.owners.resize(stream_options().partitions);
    for (auto& o : base.owners) {
      o = static_cast<std::uint32_t>(rng() % instances);
    }
    std::vector<std::string> window_files;
    std::vector<std::string> final_files;
    for (std::uint32_t i = 0; i < instances; ++i) {
      monitor::FleetOptions fleet = base;
      fleet.instance = i;
      const StreamRun run = run_stream(drift_packets(), fleet);
      window_files.insert(window_files.end(), run.window_partials.begin(),
                          run.window_partials.end());
      final_files.push_back(run.final_partial);
    }
    // A retried upload: one duplicated window partial, verbatim.
    ASSERT_FALSE(window_files.empty());
    window_files.push_back(window_files[rng() % window_files.size()]);
    // Merge order must not matter.
    std::shuffle(window_files.begin(), window_files.end(), rng);
    std::shuffle(final_files.begin(), final_files.end(), rng);

    std::vector<WindowPartial> windows;
    for (const std::string& s : window_files) {
      windows.push_back(parse_window_partial(s));
    }
    std::vector<FinalPartial> finals;
    for (const std::string& s : final_files) {
      finals.push_back(parse_final_partial(s));
    }
    const FleetMergeResult merged = merge_partials(windows, finals, {});
    std::string merged_deltas;
    for (const DeltaWindow& w : merged.observations.deltas) {
      merged_deltas += delta_window_to_json(w);
      merged_deltas += '\n';
    }
    EXPECT_EQ(single.report_json, monitor::report_to_json(merged.report))
        << "instances=" << instances;
    EXPECT_EQ(single.delta_jsonl, merged_deltas) << "instances=" << instances;
    EXPECT_EQ(single.alerts, merged.observations.alerts.size());
  }
}

TEST(Fleet, SubsetOfFinalsStillMerges) {
  // An instance drained early (no final partial) must not sink the merge:
  // stream length is the max over the finals that did land.
  monitor::FleetOptions f0;
  f0.instances = 2;
  f0.instance = 0;
  monitor::FleetOptions f1 = f0;
  f1.instance = 1;
  const StreamRun a = run_stream(drift_packets(), f0);
  const StreamRun b = run_stream(drift_packets(), f1);
  std::vector<WindowPartial> windows;
  for (const std::string& s : a.window_partials) {
    windows.push_back(parse_window_partial(s));
  }
  for (const std::string& s : b.window_partials) {
    windows.push_back(parse_window_partial(s));
  }
  std::vector<FinalPartial> finals;
  finals.push_back(parse_final_partial(a.final_partial));
  const FleetMergeResult merged = merge_partials(windows, finals, {});
  // Every window landed, so the per-class totals still cover the whole
  // stream; only instance 1's resident-state count is missing.
  EXPECT_EQ(merged.report.attributed + merged.report.unattributed,
            drift_packets().size());
}

TEST(Fleet, MergeTimeTelemetryAgreesAcrossBatchStreamAndFleet) {
  // The four facts every shape mirrors into its telemetry at the end of
  // the run come from the one window fold, so batch, a drained stream and
  // a merged fleet agree. Router/drift raises alerts; NAT over a long run
  // sweeps epochs and marks a state high water.
  struct Case {
    NfFixture& fixture;
    const char* nf;
    const std::vector<net::Packet>& packets;
  };
  for (const Case& c : {Case{router(), "router", drift_packets()},
                        Case{nat(), "nat", longrun_packets()}}) {
    const perf::Contract& contract = c.fixture.gen.contract;
    monitor::MonitorOptions opts = stream_options();
    opts.telemetry = true;
    const auto factory = monitor::MonitorEngine::named_factory(c.nf);

    RunObservations batch;
    monitor::MonitorEngine(contract, c.fixture.reg, opts)
        .run(c.packets, factory, nullptr, &batch);
    monitor::StreamMonitor sm(contract, c.fixture.reg, factory, opts);
    for (const net::Packet& p : c.packets) sm.feed(p);
    const MonitorTelemetry stream = sm.finish().observations.telemetry;
    const MonitorTelemetry fleet =
        run_fleet(contract, c.fixture.reg, c.nf, c.packets, opts, 2)
            .observations.telemetry;

    const MonitorTelemetry& want = batch.telemetry;
    EXPECT_GT(want.delta_windows, 0u) << c.nf;
    for (const MonitorTelemetry* got : {&stream, &fleet}) {
      EXPECT_EQ(got->epoch_sweeps, want.epoch_sweeps) << c.nf;
      EXPECT_EQ(got->state_high_water, want.state_high_water) << c.nf;
      EXPECT_EQ(got->delta_windows, want.delta_windows) << c.nf;
      EXPECT_EQ(got->drift_alerts, want.drift_alerts) << c.nf;
    }
    if (std::string(c.nf) == "router") {
      EXPECT_GT(want.drift_alerts, 0u);
    } else {
      EXPECT_GT(want.epoch_sweeps, 0u);
      EXPECT_GT(want.state_high_water, 0u);
    }
  }
}

TEST(Fleet, UnattributedPacketsSurviveAMerge) {
  // Drop the least-used class that sees traffic from the contract: its
  // packets go unattributed, and the merged fleet must count them — and
  // name the first — exactly as a batch run does.
  NfFixture& f = nat();
  const monitor::MonitorOptions opts = stream_options();
  const auto factory = monitor::MonitorEngine::named_factory("nat");
  const monitor::MonitorReport full =
      monitor::MonitorEngine(f.gen.contract, f.reg, opts)
          .run(longrun_packets(), factory);
  const monitor::ClassReport* dropped = nullptr;
  for (const monitor::ClassReport& c : full.classes) {
    if (c.packets > 0 && (dropped == nullptr || c.packets < dropped->packets)) {
      dropped = &c;
    }
  }
  ASSERT_NE(dropped, nullptr);
  perf::Contract partial(f.gen.contract.nf_name());
  for (const perf::ContractEntry& e : f.gen.contract.entries()) {
    if (e.input_class != dropped->input_class) partial.add(e);
  }

  const monitor::MonitorReport batch =
      monitor::MonitorEngine(partial, f.reg, opts).run(longrun_packets(),
                                                       factory);
  const FleetMergeResult merged =
      run_fleet(partial, f.reg, "nat", longrun_packets(), opts, 2);
  ASSERT_GT(batch.unattributed, 0u);
  ASSERT_GT(batch.attributed, 0u);
  EXPECT_EQ(merged.report.unattributed, batch.unattributed);
  EXPECT_EQ(merged.report.first_unattributed_packet,
            batch.first_unattributed_packet);
  EXPECT_EQ(monitor::report_to_json(merged.report),
            monitor::report_to_json(batch));
}

// ---------------------------------------------------------------------------
// Partial schema round-trips + spool naming.

TEST(Fleet, PartialsRoundTripThroughJsonExactly) {
  monitor::FleetOptions fleet;
  fleet.instances = 3;
  fleet.instance = 2;
  const StreamRun run = run_stream(drift_packets(), fleet);
  ASSERT_FALSE(run.window_partials.empty());
  for (const std::string& s : run.window_partials) {
    EXPECT_EQ(window_partial_to_json(parse_window_partial(s)), s);
  }
  EXPECT_EQ(final_partial_to_json(parse_final_partial(run.final_partial)),
            run.final_partial);
}

TEST(Fleet, SpoolReaderPicksUpExactlyItsOwnFiles) {
  const std::string dir = testing::TempDir() + "bolt_spool_test";
  ASSERT_EQ(::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                         .c_str()),
            0);
  monitor::FleetOptions fleet;
  fleet.instances = 2;
  const StreamRun run = run_stream(drift_packets(), fleet);
  ASSERT_GE(run.window_partials.size(), 2u);
  const WindowPartial w0 = parse_window_partial(run.window_partials[0]);
  const WindowPartial w1 = parse_window_partial(run.window_partials[1]);
  ASSERT_TRUE(support::write_file(
      spool_window_path(dir, "router", 0, w0.window),
      run.window_partials[0]));
  ASSERT_TRUE(support::write_file(
      spool_window_path(dir, "router", 0, w1.window),
      run.window_partials[1]));
  ASSERT_TRUE(support::write_file(spool_final_path(dir, "router", 0),
                                  run.final_partial));
  // Foreign files the reader must ignore: another nf, non-json noise.
  ASSERT_TRUE(support::write_file(dir + "/nat.i0.w3.json", "not parsed"));
  ASSERT_TRUE(support::write_file(dir + "/README", "not a partial"));
  std::vector<WindowPartial> windows;
  std::vector<FinalPartial> finals;
  std::string error;
  ASSERT_TRUE(read_spool(dir, "router", &windows, &finals, &error)) << error;
  EXPECT_EQ(windows.size(), 2u);
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(final_partial_to_json(finals[0]), run.final_partial);
  // Missing directory: empty result, not an error.
  windows.clear();
  finals.clear();
  EXPECT_TRUE(read_spool(dir + "/nope", "router", &windows, &finals, &error));
  EXPECT_TRUE(windows.empty());
  EXPECT_TRUE(finals.empty());
}

// ---------------------------------------------------------------------------
// PcapTail: the --follow daemon's input contract.

TEST(PcapTail, SeesRecordsAppendedAcrossTornWrites) {
  net::ZipfSpec spec;
  spec.packet_count = 500;
  const std::vector<net::Packet> packets = net::zipf_traffic(spec);
  const std::vector<std::uint8_t> bytes = net::serialize_pcap(packets);
  const std::string path = testing::TempDir() + "bolt_tail_test.pcap";
  std::remove(path.c_str());

  net::PcapTail tail(path);
  std::string error;
  EXPECT_TRUE(tail.poll(&error).empty());  // file does not exist yet
  EXPECT_FALSE(tail.header_seen());

  // Append in chunks whose boundaries tear the global header and packet
  // records; every byte must surface exactly once, in order.
  const std::size_t cuts[] = {10, 40, bytes.size() / 3,
                              2 * bytes.size() / 3 + 7, bytes.size()};
  std::vector<net::Packet> got;
  std::size_t written = 0;
  for (const std::size_t cut : cuts) {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data() + written, 1, cut - written, f);
    std::fclose(f);
    written = cut;
    const std::vector<net::Packet> chunk = tail.poll(&error);
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(tail.header_seen());
  EXPECT_TRUE(tail.poll(&error).empty());  // drained
  EXPECT_EQ(error, "");
  ASSERT_EQ(got.size(), packets.size());
  EXPECT_EQ(net::serialize_pcap(got), bytes);
  std::remove(path.c_str());
}

TEST(PcapTail, SeededRandomChunksYieldExactlyReadPcapsPackets) {
  net::ZipfSpec spec;
  spec.packet_count = 300;
  const std::string path = testing::TempDir() + "bolt_tail_chunks.pcap";
  net::write_pcap(path, net::zipf_traffic(spec));
  const std::vector<net::Packet> expected = net::read_pcap(path);
  const std::vector<std::uint8_t> bytes = net::serialize_pcap(expected);
  for (const unsigned seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::remove(path.c_str());
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> chunk(1, 256);
    net::PcapTail tail(path);
    std::string error;
    std::vector<net::Packet> got;
    for (std::size_t written = 0; written < bytes.size();) {
      const std::size_t n = std::min(chunk(rng), bytes.size() - written);
      std::FILE* f = std::fopen(path.c_str(), "ab");
      ASSERT_NE(f, nullptr);
      std::fwrite(bytes.data() + written, 1, n, f);
      std::fclose(f);
      written += n;
      const std::vector<net::Packet> polled = tail.poll(&error);
      got.insert(got.end(), polled.begin(), polled.end());
    }
    EXPECT_EQ(error, "");
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(net::serialize_pcap(got), bytes);
  }
  std::remove(path.c_str());
}

TEST(PcapTail, AnUnreadablePathIsAnError) {
  net::PcapTail tail(testing::TempDir());  // a directory opens, then fails
  std::string error;
  EXPECT_TRUE(tail.poll(&error).empty());
  EXPECT_EQ(error, "pcap: cannot read the file");
}

// A corrupt record length is rejected by the shared decoder instead of
// being buffered for: --follow stops with the diagnostic rather than
// waiting forever on a 4 GiB record, and read_pcap names the same cause —
// reported to the CLI, fatal through the aborting wrapper.
TEST(PcapTailDeathTest, RecordLongerThanTheSnaplenIsRejected) {
  net::ZipfSpec spec;
  spec.packet_count = 2;
  std::vector<std::uint8_t> bytes =
      net::serialize_pcap(net::zipf_traffic(spec));
  for (std::size_t i = 32; i < 36; ++i) bytes[i] = 0xff;  // incl_len
  const std::string path = testing::TempDir() + "bolt_tail_corrupt.pcap";
  ASSERT_TRUE(support::write_file(path, std::string(bytes.begin(), bytes.end())));
  const std::string message =
      "pcap: record of 4294967295 bytes exceeds the snaplen 65535 at byte 24";
  net::PcapTail tail(path);
  std::string error;
  EXPECT_TRUE(tail.poll(&error).empty());
  EXPECT_EQ(error, message);
  error.clear();
  EXPECT_TRUE(tail.poll(&error).empty());  // and stays malformed
  EXPECT_EQ(error, message);
  std::vector<net::Packet> packets;
  error.clear();
  EXPECT_FALSE(net::read_pcap(path, &packets, &error));
  EXPECT_EQ(error, message);
  EXPECT_DEATH(net::read_pcap(path), "exceeds the snaplen 65535");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bolt::obs
