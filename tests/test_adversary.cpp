// The adversary's own contract (ISSUE 5 acceptance criteria):
//  * coverage — for every reference NF the synthesised trace reaches at
//    least 90% of the solved contract classes, and unreached classes are
//    enumerated in the gap report;
//  * the loop closes — every packet's pre-attributed class is exactly what
//    the monitor observes on replay (zero mismatches), with no violations
//    (the trace is worst-case, not contract-breaking);
//  * bound consumption — for at least one *stateful* class per NF the
//    measured p99 consumes >= 80% of the contract bound ("the contract
//    says this is the worst case" is a measured fact);
//  * determinism — a fixed seed reproduces the trace byte-for-byte, and
//    replay reports are byte-identical at any thread count on either
//    execution engine;
//  * the trace pair (pcap + plan sidecar) round-trips through disk.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/report.h"
#include "adversary/trace.h"
#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/report.h"
#include "net/pcap.h"
#include "perf/contract_io.h"
#include "support/io.h"

namespace bolt::adversary {
namespace {

struct Loop {
  perf::PcvRegistry reg;
  perf::Contract contract{""};
  AdversarialTrace trace;
  GapReport gap;
};

AdversaryOptions small_options(std::uint64_t seed = 1) {
  AdversaryOptions opts;
  opts.seed = seed;
  opts.probes_per_class = 8;
  return opts;
}

Loop run_loop(const std::string& nf, const AdversaryOptions& opts) {
  Loop loop;
  core::NfTarget target;
  EXPECT_TRUE(core::make_named_target(nf, loop.reg, target));
  core::ContractGenerator gen(loop.reg);
  const core::GenerationResult generated = gen.generate(target.analysis());
  loop.contract = generated.contract;
  loop.trace = adversarial_traffic(nf, loop.contract, loop.reg, opts,
                                   &generated.path_reports);
  loop.gap = replay(loop.trace, loop.contract, loop.reg);
  return loop;
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += "\n  " + n;
  return out;
}

class AdversaryLoop : public ::testing::TestWithParam<const char*> {};

TEST_P(AdversaryLoop, ReachesNinetyPercentOfClasses) {
  const Loop loop = run_loop(GetParam(), small_options());
  ASSERT_GT(loop.gap.classes_total, 0u);
  // ceil(0.9 * total) without floating point.
  const std::size_t need = (loop.gap.classes_total * 9 + 9) / 10;
  EXPECT_GE(loop.gap.classes_reached, need)
      << "unreached classes:" << joined(loop.gap.unreached_classes());
}

TEST_P(AdversaryLoop, EveryPacketLandsWhereThePlanSaid) {
  const Loop loop = run_loop(GetParam(), small_options());
  EXPECT_EQ(loop.gap.mismatched, 0u)
      << "first mismatch at packet " << loop.gap.first_mismatch;
  EXPECT_EQ(loop.gap.monitor.unattributed, 0u);
  // Worst-case traffic saturates bounds, it does not break them.
  EXPECT_EQ(loop.gap.monitor.violations, 0u) << loop.gap.str();
  // Every emitted packet was planned against a real contract entry.
  for (const PacketPlan& plan : loop.trace.plans) {
    ASSERT_NE(plan.entry, kNoEntry);
  }
}

TEST_P(AdversaryLoop, AStatefulClassConsumesEightyPercentOfItsBound) {
  const Loop loop = run_loop(GetParam(), small_options());
  std::uint64_t best = 0;
  std::string best_class;
  for (const ClassGap& g : loop.gap.classes) {
    // Stateful classes carry method cases ("nat.lookup_int=hit", ...).
    if (g.input_class.find('=') == std::string::npos) continue;
    if (g.best_p99_util_pm > best) {
      best = g.best_p99_util_pm;
      best_class = g.input_class;
    }
  }
  EXPECT_GE(best, 800u) << "best stateful class: " << best_class << "\n"
                        << loop.gap.str();
}

TEST_P(AdversaryLoop, TraceIsByteDeterministicForAFixedSeed) {
  const std::string nf = GetParam();
  Loop a = run_loop(nf, small_options(3));
  Loop b = run_loop(nf, small_options(3));
  EXPECT_EQ(net::serialize_pcap(a.trace.packets),
            net::serialize_pcap(b.trace.packets));
  ASSERT_EQ(a.trace.plans.size(), b.trace.plans.size());
  for (std::size_t i = 0; i < a.trace.plans.size(); ++i) {
    EXPECT_EQ(a.trace.plans[i].entry, b.trace.plans[i].entry);
    EXPECT_EQ(a.trace.plans[i].predicted, b.trace.plans[i].predicted);
  }
  // A different seed still covers the same classes (different flows).
  Loop c = run_loop(nf, small_options(17));
  EXPECT_EQ(c.gap.classes_reached, a.gap.classes_reached);
  EXPECT_EQ(c.gap.mismatched, 0u);
}

TEST_P(AdversaryLoop, ReplayReportsAreIdenticalAtAnyThreadCountAndEngine) {
  const Loop loop = run_loop(GetParam(), small_options());
  const std::string baseline = monitor::report_to_json(loop.gap.monitor);
  const std::string gap_baseline = gap_report_to_json(loop.gap);
  for (const std::size_t threads : {std::size_t(1), std::size_t(3),
                                    std::size_t(4)}) {
    for (const ir::EngineKind engine :
         {ir::EngineKind::kDecoded, ir::EngineKind::kReference}) {
      monitor::MonitorOptions opts;
      opts.threads = threads;
      opts.engine = engine;
      const GapReport gap = replay(loop.trace, loop.contract, loop.reg, opts);
      EXPECT_EQ(monitor::report_to_json(gap.monitor), baseline)
          << "threads=" << threads << " engine=" << static_cast<int>(engine);
      EXPECT_EQ(gap_report_to_json(gap), gap_baseline);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ReferenceNfs, AdversaryLoop,
                         ::testing::Values("bridge", "nat", "lb", "lpm"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(AdversaryLoopWide, AllNamedTargetsSynthesizeAndClose) {
  // Beyond the reference four: every registered target must survive the
  // loop with full attribution agreement and nonzero coverage.
  for (const char* const nf :
       {"nat-b", "lpm-simple", "firewall", "router", "fw+router"}) {
    SCOPED_TRACE(nf);
    const Loop loop = run_loop(nf, small_options());
    EXPECT_GT(loop.gap.classes_reached, 0u);
    EXPECT_EQ(loop.gap.mismatched, 0u);
    EXPECT_EQ(loop.gap.monitor.violations, 0u);
  }
}

TEST(AdversaryStoredContract, StoredArtifactDrivesTheSameLoop) {
  // Operator flow: bounds come from the stored golden artifact, witnesses
  // are regenerated in-process; the loop must close identically.
  perf::PcvRegistry reg;
  const perf::Contract stored = perf::load_contract(
      std::string(BOLT_TEST_DATA_DIR) + "/contract_nat.json", reg);
  const AdversarialTrace trace =
      adversarial_traffic("nat", stored, reg, small_options());
  const GapReport gap = replay(trace, stored, reg);
  EXPECT_EQ(gap.classes_reached, gap.classes_total);
  EXPECT_EQ(gap.mismatched, 0u);
}

TEST(AdversaryTraceIo, TracePairRoundTripsThroughDisk) {
  const Loop loop = run_loop("lpm", small_options());
  const std::string prefix = ::testing::TempDir() + "/adversary_trace";
  ASSERT_TRUE(save_trace(prefix, loop.trace));
  const AdversarialTrace reloaded = load_trace(prefix);

  EXPECT_EQ(reloaded.nf, loop.trace.nf);
  EXPECT_EQ(reloaded.contract_nf, loop.trace.contract_nf);
  EXPECT_EQ(reloaded.partitions, loop.trace.partitions);
  EXPECT_EQ(reloaded.epoch_ns, loop.trace.epoch_ns);
  ASSERT_EQ(reloaded.packets.size(), loop.trace.packets.size());
  for (std::size_t i = 0; i < reloaded.packets.size(); ++i) {
    EXPECT_EQ(std::vector<std::uint8_t>(reloaded.packets[i].bytes().begin(),
                                        reloaded.packets[i].bytes().end()),
              std::vector<std::uint8_t>(loop.trace.packets[i].bytes().begin(),
                                        loop.trace.packets[i].bytes().end()));
    EXPECT_EQ(reloaded.packets[i].in_port(), loop.trace.packets[i].in_port());
    EXPECT_EQ(reloaded.packets[i].timestamp_ns(),
              loop.trace.packets[i].timestamp_ns());
    EXPECT_EQ(reloaded.plans[i].entry, loop.trace.plans[i].entry);
    EXPECT_EQ(reloaded.plans[i].predicted, loop.trace.plans[i].predicted);
  }
  // A reloaded trace replays to the identical report.
  const GapReport direct = replay(loop.trace, loop.contract, loop.reg);
  const GapReport from_disk = replay(reloaded, loop.contract, loop.reg);
  EXPECT_EQ(monitor::report_to_json(from_disk.monitor),
            monitor::report_to_json(direct.monitor));
}

// load_trace hardening (ISSUE 9 satellite): a corrupt or mismatched trace
// pair must die loudly — with the offending construct and its byte offset
// in the message — never load skewed data. Each test patches one defect
// into an otherwise-valid pair.
class AdversaryTraceIoDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    loop_ = run_loop("lpm", small_options());
    prefix_ = ::testing::TempDir() + "/trace_death";
    ASSERT_TRUE(save_trace(prefix_, loop_.trace));
    sidecar_ = support::read_file_or_die(prefix_ + ".json", "sidecar");
  }

  /// Rewrites the sidecar with `from` (which must occur) replaced by `to`.
  void corrupt(const std::string& from, const std::string& to) {
    const std::size_t pos = sidecar_.find(from);
    ASSERT_NE(pos, std::string::npos) << "sidecar lacks '" << from << "'";
    std::string patched = sidecar_;
    patched.replace(pos, from.size(), to);
    ASSERT_TRUE(support::write_file(prefix_ + ".json", patched));
  }

  /// Replaces the (numeric) value of `key` with `value`.
  void patch_value(const std::string& key, const std::string& value) {
    std::string patched = sidecar_;
    const std::size_t pos = patched.find(key);
    ASSERT_NE(pos, std::string::npos) << "sidecar lacks '" << key << "'";
    const std::size_t val = pos + key.size();
    const std::size_t end = patched.find(',', val);
    ASSERT_NE(end, std::string::npos);
    patched.replace(val, end - val, value);
    ASSERT_TRUE(support::write_file(prefix_ + ".json", patched));
  }

  Loop loop_;
  std::string prefix_;
  std::string sidecar_;
};

TEST_F(AdversaryTraceIoDeathTest, UnsupportedSchemaVersionIsRejected) {
  corrupt("\"version\":1", "\"version\":99");
  EXPECT_DEATH(load_trace(prefix_), "unsupported trace schema version");
}

TEST_F(AdversaryTraceIoDeathTest, ZeroPartitionsAreRejected) {
  patch_value("\"partitions\":", "0");
  EXPECT_DEATH(load_trace(prefix_), "partitions must be positive");
}

TEST_F(AdversaryTraceIoDeathTest, NegativeEpochIsRejected) {
  patch_value("\"epoch_ns\":", "-5");
  EXPECT_DEATH(load_trace(prefix_), "epoch_ns must be non-negative");
}

TEST_F(AdversaryTraceIoDeathTest, PlanEntryBelowMinusOneIsRejected) {
  // Prefixing the first plan's entry with "-7" makes it <= -70.
  corrupt("\"packets\":[{\"entry\":", "\"packets\":[{\"entry\":-7");
  EXPECT_DEATH(load_trace(prefix_), "packet plan entry below -1");
}

TEST_F(AdversaryTraceIoDeathTest, PlanEntryBeyondClassTableIsRejected) {
  // Prefixing with "9" makes the first entry >= 9; lpm declares 3 classes.
  corrupt("\"packets\":[{\"entry\":", "\"packets\":[{\"entry\":9");
  EXPECT_DEATH(load_trace(prefix_), "out of range");
}

TEST_F(AdversaryTraceIoDeathTest, InPortBeyondSixteenBitsIsRejected) {
  corrupt("\"in_port\":", "\"in_port\":99999");
  EXPECT_DEATH(load_trace(prefix_), "outside the 16-bit port range");
}

TEST_F(AdversaryTraceIoDeathTest, SidecarOutrunningThePcapIsRejected) {
  // Drop the last pcap packet: the sidecar's final plan has no packet.
  std::vector<net::Packet> pkts = loop_.trace.packets;
  ASSERT_FALSE(pkts.empty());
  pkts.pop_back();
  net::write_pcap(prefix_ + ".pcap", pkts);
  EXPECT_DEATH(load_trace(prefix_), "has no pcap packet");
}

TEST_F(AdversaryTraceIoDeathTest, PcapOutrunningTheSidecarIsRejected) {
  // One fewer plan than packets: the pair no longer matches.
  AdversarialTrace shorter = loop_.trace;
  ASSERT_FALSE(shorter.plans.empty());
  shorter.plans.pop_back();
  ASSERT_TRUE(save_trace(prefix_, shorter));
  // save_trace writes len(plans) sidecar entries but keeps every packet.
  EXPECT_DEATH(load_trace(prefix_), "packet plans but the pcap carries");
}

TEST(AdversaryAmplification, CollisionChainRaisesPredictedTraversalCost) {
  // The NAT collision chain must produce internal_known probes whose
  // predicted bound at the observed PCVs strictly exceeds the plain
  // repeat-flow probes' (the chain walk amplifies t).
  const Loop loop = run_loop("nat", small_options());
  std::size_t known_entry = ~std::size_t(0);
  for (std::size_t e = 0; e < loop.contract.entries().size(); ++e) {
    if (loop.contract.entries()[e].input_class.rfind("internal_known", 0) ==
        0) {
      known_entry = e;
    }
  }
  ASSERT_NE(known_entry, ~std::size_t(0));
  std::int64_t min_pred = 0, max_pred = 0;
  bool first = true;
  for (const PacketPlan& plan : loop.trace.plans) {
    if (plan.entry != known_entry) continue;
    const std::int64_t ic = plan.predicted[0];
    if (first || ic < min_pred) min_pred = ic;
    if (first || ic > max_pred) max_pred = ic;
    first = false;
  }
  ASSERT_FALSE(first);
  EXPECT_GT(max_pred, min_pred)
      << "collision-chain probes should cost more than first-touch probes";
}

}  // namespace
}  // namespace bolt::adversary
