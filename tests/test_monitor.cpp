// The contract monitor's own contract:
//  * every packet of a well-formed workload is attributed to a contract
//    input class, and compliant runs report zero violations (the paper's
//    essential property, checked online);
//  * an injected cost perturbation (measurement framework more expensive
//    than the one the contract was generated for) is reported as a
//    violation with class, packet index, and predicted vs measured values;
//  * reports and per-packet attribution are byte-identical at any thread
//    count, for every partition count, under uniform and skewed traffic;
//  * partitions are submitted heaviest-first;
//  * sharding is flow-affine.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/flow.h"
#include "net/workload.h"
#include "perf/contract_io.h"

namespace bolt::monitor {
namespace {

using perf::Metric;

/// Generates the contract for a named target (the generation-side half).
core::GenerationResult contract_for(const std::string& name,
                                    perf::PcvRegistry& reg) {
  core::NfTarget target;
  EXPECT_TRUE(core::make_named_target(name, reg, target));
  core::ContractGenerator gen(reg);
  return gen.generate(target.analysis());
}

std::vector<net::Packet> workload_for(const std::string& name,
                                      std::size_t count) {
  if (name == "bridge") {
    net::BridgeSpec spec;
    spec.stations = 300;
    spec.broadcast_fraction = 0.1;
    spec.packet_count = count;
    return net::bridge_traffic(spec);
  }
  net::ZipfSpec spec;
  spec.flow_pool = 512;
  spec.skew = 1.1;
  spec.packet_count = count;
  return net::zipf_traffic(spec);
}

class MonitorSoundness : public ::testing::TestWithParam<const char*> {};

TEST_P(MonitorSoundness, CompliantRunsHaveZeroViolations) {
  const std::string name = GetParam();
  perf::PcvRegistry reg;
  const auto result = contract_for(name, reg);
  const auto packets = workload_for(name, 4000);

  MonitorOptions opts;
  opts.partitions = 4;
  MonitorEngine engine(result.contract, reg, opts);
  const MonitorReport report =
      engine.run(packets, MonitorEngine::named_factory(name));

  EXPECT_EQ(report.packets, packets.size());
  EXPECT_EQ(report.unattributed, 0u)
      << "first unattributed: packet " << report.first_unattributed_packet;
  EXPECT_EQ(report.attributed, packets.size());
  EXPECT_EQ(report.violations, 0u) << report.str();

  // State/epoch fields are only meaningful for stateful targets; a
  // stateless chain must report them as explicitly untracked.
  const bool stateful = name != "fw+router";
  EXPECT_EQ(report.state_tracked, stateful);
  if (!stateful) {
    EXPECT_EQ(report.epoch_ns, 0u);
    EXPECT_EQ(report.state_high_water, 0u);
    EXPECT_EQ(report.state_residents, 0u);
  } else {
    EXPECT_GT(report.state_residents, 0u);
  }

  // Per-class packet counts add up, and observed classes have offenders
  // recorded (the compliance-headroom view).
  std::uint64_t across = 0;
  for (const ClassReport& c : report.classes) {
    across += c.packets;
    if (c.packets > 0) {
      EXPECT_FALSE(c.offenders.empty()) << c.input_class;
      for (const Offender& o : c.offenders) {
        EXPECT_LT(o.packet_index, packets.size());
        EXPECT_LE(static_cast<std::int64_t>(o.measured), o.predicted);
      }
    }
  }
  EXPECT_EQ(across, packets.size());
}

INSTANTIATE_TEST_SUITE_P(Targets, MonitorSoundness,
                         ::testing::Values("nat", "bridge", "fw+router"));

TEST(Monitor, ReportsAreByteIdenticalAcrossThreadCounts) {
  // Threads are the monitor's only execution knob: each partition is one
  // pool task computing the same result wherever it runs, and results
  // merge in partition order. Checked on the default workload and on
  // heavily skewed traffic (few flows -> few hot partitions, the case
  // heaviest-first scheduling exists for), with per-packet attribution
  // compared too. Reports legitimately differ across partition counts, so
  // each partition count has its own single-thread baseline.
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  net::ZipfSpec skewed_spec;
  skewed_spec.flow_pool = 48;
  skewed_spec.skew = 2.0;
  skewed_spec.packet_count = 3000;
  const std::vector<std::pair<const char*, std::vector<net::Packet>>>
      workloads = {{"nat", workload_for("nat", 3000)},
                   {"skewed", net::zipf_traffic(skewed_spec)}};

  for (const auto& [workload, packets] : workloads) {
    for (const std::size_t partitions : {std::size_t(1), std::size_t(3),
                                         std::size_t(8)}) {
      std::string baseline;
      std::vector<std::uint32_t> baseline_attr;
      for (const std::size_t threads :
           {std::size_t(1), std::size_t(2), std::size_t(3), std::size_t(4),
            std::size_t(8)}) {
        MonitorOptions opts;
        opts.partitions = partitions;
        opts.threads = threads;
        MonitorEngine engine(result.contract, reg, opts);
        std::vector<std::uint32_t> attr;
        const std::string json = report_to_json(
            engine.run(packets, MonitorEngine::named_factory("nat"), &attr));
        if (baseline.empty()) {
          baseline = json;
          baseline_attr = attr;
          EXPECT_NE(json.find("\"violations\":0"), std::string::npos)
              << workload << " partitions=" << partitions;
        } else {
          EXPECT_EQ(json, baseline) << workload << " partitions="
                                    << partitions << " threads=" << threads;
          EXPECT_EQ(attr, baseline_attr);
        }
      }
    }
  }
}

TEST(Monitor, PartitionsAreSubmittedHeaviestFirst) {
  // At one thread the pool runs tasks in submission order, so the order
  // the factory is called in is the submission order. Each built NF
  // instance samples its occupancy once per packet plus once for the
  // end-of-run residents, which identifies the load of the partition it
  // was built for.
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  net::ZipfSpec spec;
  spec.flow_pool = 48;
  spec.skew = 2.0;
  spec.packet_count = 3000;
  const auto packets = net::zipf_traffic(spec);
  constexpr std::size_t kPartitions = 8;

  std::vector<std::uint64_t> load(kPartitions, 0);
  for (const net::Packet& p : packets) ++load[partition_of(p, kPartitions)];
  std::vector<std::uint64_t> expected = load;
  std::sort(expected.begin(), expected.end(), std::greater<>());
  ASSERT_NE(expected.front(), expected.back()) << "workload is not skewed";

  auto samples = std::make_shared<std::vector<std::uint64_t>>();
  const MonitorEngine::TargetFactory named = MonitorEngine::named_factory("nat");
  const MonitorEngine::TargetFactory recording =
      [named, samples](perf::PcvRegistry& local) {
        core::NfTarget target = named(local);
        const std::size_t call = samples->size();
        samples->push_back(0);
        auto occupancy = target.instance.state_occupancy;
        target.instance.state_occupancy = [occupancy, samples, call] {
          ++(*samples)[call];
          return occupancy();
        };
        return target;
      };

  MonitorOptions opts;
  opts.partitions = kPartitions;
  opts.threads = 1;
  MonitorEngine(result.contract, reg, opts).run(packets, recording);
  ASSERT_EQ(samples->size(), kPartitions);
  for (std::size_t call = 0; call < kPartitions; ++call) {
    EXPECT_EQ((*samples)[call], expected[call] + 1) << "factory call " << call;
  }
}

TEST(Monitor, InjectedCostPerturbationIsReported) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = workload_for("nat", 2000);

  // The contract was generated for the standard framework; measure with an
  // inflated one (a "framework regression": rx path got 50% pricier).
  MonitorOptions opts;
  opts.partitions = 4;
  opts.framework.rx_instructions += opts.framework.rx_instructions / 2;
  opts.framework.rx_accesses += opts.framework.rx_accesses / 2;
  MonitorEngine engine(result.contract, reg, opts);
  const MonitorReport report =
      engine.run(packets, MonitorEngine::named_factory("nat"));

  EXPECT_EQ(report.unattributed, 0u);
  EXPECT_GT(report.violations, 0u);

  // Violations carry a reproducer: class, packet index, predicted vs
  // measured, with measured exceeding the bound.
  bool found = false;
  for (const ClassReport& c : report.classes) {
    for (const Offender& o : c.offenders) {
      if (static_cast<std::int64_t>(o.measured) <= o.predicted) continue;
      found = true;
      EXPECT_FALSE(c.input_class.empty());
      EXPECT_LT(o.packet_index, packets.size());
      EXPECT_GT(static_cast<std::int64_t>(o.measured), o.predicted);
    }
    // Histogram overflow bucket mirrors the violation count per metric.
    for (const auto& mr : c.metrics) {
      EXPECT_EQ(mr.histogram[kViolationBucket], mr.violations);
    }
  }
  EXPECT_TRUE(found) << report.str();

  // The JSON rendering carries the top-level violation count.
  const std::string json = report_to_json(report);
  EXPECT_NE(json.find("\"violations\":" + std::to_string(report.violations)),
            std::string::npos);
}

TEST(Monitor, HeadroomSketchesAreCoherent) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = workload_for("nat", 3000);

  MonitorOptions opts;
  opts.partitions = 4;
  MonitorEngine engine(result.contract, reg, opts);
  const MonitorReport report =
      engine.run(packets, MonitorEngine::named_factory("nat"));

  for (const ClassReport& c : report.classes) {
    for (const perf::Metric m : perf::kAllMetrics) {
      const MetricReport& mr = c.metrics[perf::metric_index(m)];
      const QuantileSummary& s = mr.headroom_pm;
      // Every attributed packet of the class feeds the sketch.
      EXPECT_EQ(s.count, c.packets) << c.input_class;
      // Quantiles are monotone and capped by the recorded max.
      EXPECT_LE(s.p50, s.p90) << c.input_class;
      EXPECT_LE(s.p90, s.p99) << c.input_class;
      EXPECT_LE(s.p99, s.p999) << c.input_class;
      EXPECT_LE(s.p999, s.max + s.max / 32 + 1) << c.input_class;
      // Compliant run: nothing past the bound (1000 per-mille).
      EXPECT_LE(s.max, 1000u) << c.input_class;
    }
    // No violations -> empty margin distribution.
    EXPECT_EQ(c.violation_margin_pm.count, 0u) << c.input_class;
  }
}

TEST(Monitor, ViolationMarginSketchTracksViolations) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = workload_for("nat", 2000);

  MonitorOptions opts;
  opts.partitions = 4;
  opts.framework.rx_instructions += opts.framework.rx_instructions / 2;
  opts.framework.rx_accesses += opts.framework.rx_accesses / 2;
  MonitorEngine engine(result.contract, reg, opts);
  const MonitorReport report =
      engine.run(packets, MonitorEngine::named_factory("nat"));
  ASSERT_GT(report.violations, 0u);

  std::uint64_t margins = 0;
  for (const ClassReport& c : report.classes) {
    std::uint64_t class_violations = 0;
    for (const auto& mr : c.metrics) class_violations += mr.violations;
    EXPECT_EQ(c.violation_margin_pm.count, class_violations)
        << c.input_class;
    if (class_violations > 0) {
      EXPECT_GT(c.violation_margin_pm.max, 0u) << c.input_class;
    }
    margins += c.violation_margin_pm.count;
  }
  EXPECT_EQ(margins, report.violations);
}

TEST(Monitor, ShardingIsFlowAffine) {
  net::ZipfSpec spec;
  spec.flow_pool = 64;
  spec.packet_count = 2000;
  const auto packets = net::zipf_traffic(spec);
  std::map<std::uint64_t, std::size_t> shard_of_flow;
  std::set<std::size_t> used;
  for (const net::Packet& p : packets) {
    const auto tuple = net::extract_five_tuple(p);
    ASSERT_TRUE(tuple.has_value());
    const std::size_t s = partition_of(p, 8);
    ASSERT_LT(s, 8u);
    used.insert(s);
    const auto [it, inserted] = shard_of_flow.emplace(tuple->key(), s);
    EXPECT_EQ(it->second, s);  // one flow never splits across shards
  }
  EXPECT_GT(used.size(), 4u);  // and flows actually spread out
}

}  // namespace
}  // namespace bolt::monitor
