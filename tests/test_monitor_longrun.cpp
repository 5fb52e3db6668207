// Long-running operator monitoring — the week-long-run guarantees:
//
//  * Determinism: a simulated multi-day heavy-tailed run produces
//    byte-identical reports at ANY thread count on either execution engine
//    (both are pure execution knobs; flow-affine state partitions are the
//    semantic unit), including every sketch quantile and state counter.
//  * Bounded state: per-partition flow-table occupancy plateaus — the
//    high-water mark of the full run equals the high-water mark of its
//    first half, and sits far under table capacity, even though the trace
//    carries vastly more distinct flows than the table could hold.
//  * Mass expiry: every traffic burst opens onto fully stale state (the
//    paper's §5.3 pathological scenario). With the epoch clock on, the
//    idle sweeps reclaim entries off-path; with it off, the NF's own
//    expiry absorbs the burst — either way the run stays compliant and
//    deterministic.
//  * Stored-contract mode: the same long run validated against a
//    round-tripped (serialised + reloaded) contract artifact yields the
//    byte-identical report — the operator workflow end to end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/workload.h"
#include "perf/contract_io.h"

namespace bolt::monitor {
namespace {

core::GenerationResult contract_for(const std::string& name,
                                    perf::PcvRegistry& reg) {
  core::NfTarget target;
  EXPECT_TRUE(core::make_named_target(name, reg, target));
  core::ContractGenerator gen(reg);
  return gen.generate(target.analysis());
}

/// A compressed simulated week: hourly bursts, rotating working set, so
/// distinct flows (~24k) far exceed the NAT table capacity (4096) while
/// per-burst active flows stay small.
std::vector<net::Packet> week_of_traffic(std::size_t packet_count) {
  net::LongRunSpec spec;
  spec.seed = 3;
  spec.flow_pool = 256;
  spec.skew = 1.1;
  spec.packet_count = packet_count;
  spec.bursts = 96;           // one every ~1h45 of simulated time
  spec.rotation_bursts = 1;   // a fresh working set every burst
  return net::long_run_traffic(spec);
}

MonitorReport run_monitor(const perf::Contract& contract,
                          const perf::PcvRegistry& reg,
                          const std::vector<net::Packet>& packets,
                          std::size_t threads, std::uint64_t epoch_ns,
                          ir::EngineKind engine = ir::EngineKind::kDecoded) {
  MonitorOptions opts;
  opts.partitions = 4;
  opts.threads = threads;
  opts.epoch_ns = epoch_ns;
  opts.engine = engine;
  return MonitorEngine(contract, reg, opts)
      .run(packets, MonitorEngine::named_factory("nat"));
}

TEST(MonitorLongRun, ByteIdenticalAtAnyThreadCountAndEngine) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = week_of_traffic(12000);

  std::string baseline;
  for (const ir::EngineKind engine :
       {ir::EngineKind::kDecoded, ir::EngineKind::kReference}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const MonitorReport report = run_monitor(
          result.contract, reg, packets, threads, 1'000'000'000, engine);
      const std::string json = report_to_json(report);
      if (baseline.empty()) {
        baseline = json;
        EXPECT_EQ(report.violations, 0u) << report.str();
        EXPECT_EQ(report.unattributed, 0u) << report.str();
      } else {
        EXPECT_EQ(json, baseline) << "engine=" << static_cast<int>(engine)
                                  << " threads=" << threads;
      }
    }
  }
  // The quantile sketches made it into the report.
  EXPECT_NE(baseline.find("\"headroom_pm\""), std::string::npos);
  EXPECT_NE(baseline.find("\"p999\""), std::string::npos);
}

TEST(MonitorLongRun, StateStaysBoundedAndPlateaus) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto full = week_of_traffic(12000);
  const std::vector<net::Packet> half(full.begin(),
                                      full.begin() + full.size() / 2);

  const MonitorReport full_report =
      run_monitor(result.contract, reg, full, 0, 1'000'000'000);
  const MonitorReport half_report =
      run_monitor(result.contract, reg, half, 0, 1'000'000'000);

  // The trace holds far more distinct flows than one partition's table
  // could ever store; expiry must keep occupancy bounded...
  ASSERT_GT(full_report.state_high_water, 0u);
  EXPECT_LT(full_report.state_high_water, 4096u / 4);
  // ...and at a plateau: the peak is established in the first half of the
  // week; three more days of (churning) traffic move it by at most the
  // burst-to-burst jitter, never growth proportional to runtime.
  EXPECT_GE(full_report.state_high_water, half_report.state_high_water);
  EXPECT_LE(full_report.state_high_water,
            half_report.state_high_water + half_report.state_high_water / 4);

  // Idle-epoch sweeps actually ran and reclaimed the stale bursts.
  EXPECT_GT(full_report.epoch_sweeps, 0u);
  EXPECT_GT(full_report.state_expired_idle, 0u);
  EXPECT_GT(full_report.state_expired_idle, half_report.state_expired_idle);

  // Whatever remains resident at the end fits inside the plateau.
  EXPECT_LE(full_report.state_residents,
            full_report.state_high_water * full_report.partitions);
  EXPECT_EQ(full_report.violations, 0u) << full_report.str();
}

TEST(MonitorLongRun, MassExpiryBurstsStayCompliantWithAndWithoutEpochClock) {
  // The §5.3 pathological scenario: every burst begins with the whole
  // previous working set stale. With epoch_ns=0 the engine never sweeps —
  // the NF's own expire call absorbs each mass-expiry inline (big e, big
  // bound, still compliant). Both modes must be deterministic; they
  // legitimately differ from each other (the work moves between the
  // metered and unmetered side).
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = week_of_traffic(8000);

  const MonitorReport swept =
      run_monitor(result.contract, reg, packets, 0, 1'000'000'000);
  const MonitorReport inline_expiry =
      run_monitor(result.contract, reg, packets, 0, 0);

  EXPECT_EQ(swept.violations, 0u) << swept.str();
  EXPECT_EQ(inline_expiry.violations, 0u) << inline_expiry.str();
  EXPECT_EQ(swept.unattributed, 0u);
  EXPECT_EQ(inline_expiry.unattributed, 0u);

  // Epoch mode reclaims the bursts off-path; inline mode reports no
  // sweeps at all.
  EXPECT_GT(swept.state_expired_idle, 0u);
  EXPECT_EQ(inline_expiry.epoch_sweeps, 0u);
  EXPECT_EQ(inline_expiry.state_expired_idle, 0u);

  // Inline mode's expiry happens under the NF's e-term bound: the expire
  // classes must have seen non-trivial utilization without breaking it.
  EXPECT_EQ(report_to_json(inline_expiry),
            report_to_json(run_monitor(result.contract, reg, packets, 8, 0)))
      << "inline-expiry mode must be execution-invariant too";
}

TEST(MonitorLongRun, StoredContractReportIsByteIdentical) {
  perf::PcvRegistry gen_reg;
  const auto result = contract_for("nat", gen_reg);
  const auto packets = week_of_traffic(6000);

  // The operator workflow: serialise the artifact, reload it into a fresh
  // registry, monitor against the stored copy — zero symbex on this side.
  const std::string artifact =
      perf::contract_to_json(result.contract, gen_reg);
  perf::PcvRegistry op_reg;
  const perf::Contract stored = perf::contract_from_json(artifact, op_reg);

  const MonitorReport live =
      run_monitor(result.contract, gen_reg, packets, 0, 1'000'000'000);
  const MonitorReport from_store =
      run_monitor(stored, op_reg, packets, 0, 1'000'000'000);
  EXPECT_EQ(report_to_json(live), report_to_json(from_store));
}

}  // namespace
}  // namespace bolt::monitor
