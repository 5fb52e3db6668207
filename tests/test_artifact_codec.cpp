// Artifact codecs under truncation — the deterministic seed of a fuzz
// driver for every input that crosses a process boundary.
//
// Each persisted JSON format (contract, fleet window and final partials,
// adversary trace sidecar) is read by one layout-driven decoder over
// support::JsonReader. The property pinned here is the one a fuzzer would
// start from: every proper prefix of a valid artifact is rejected with a
// diagnostic, never accepted (a torn write or a cut-off upload must not
// load as a smaller artifact). The pcap side of the same property lives
// with PcapTail in tests/test_fleet.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adversary/trace.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "net/workload.h"
#include "obs/fleet.h"
#include "perf/contract_io.h"
#include "support/io.h"

namespace bolt {
namespace {

/// `decode(text, &error)` accepts the artifact and rejects, with a
/// non-empty diagnostic, each of its proper prefixes. The artifact is taken
/// without its trailing newline: that is whitespace after a complete value.
template <class Decode>
void expect_every_prefix_rejected(const std::string& artifact,
                                  Decode&& decode) {
  const std::string text =
      artifact.substr(0, artifact.find_last_not_of('\n') + 1);
  std::string error;
  ASSERT_TRUE(decode(text, &error)) << error;
  for (std::size_t n = 0; n < text.size(); ++n) {
    error.clear();
    ASSERT_FALSE(decode(text.substr(0, n), &error))
        << "a " << n << "-byte prefix was accepted";
    ASSERT_FALSE(error.empty()) << "no diagnostic for a " << n
                                << "-byte prefix";
  }
}

TEST(ArtifactPrefix, ContractGoldenIsRejectedAtEveryCut) {
  const std::string golden = support::read_file_or_die(
      std::string(BOLT_TEST_DATA_DIR) + "/contract_nat.json", "golden");
  perf::PcvRegistry reg;
  expect_every_prefix_rejected(golden, [&](const std::string& t,
                                           std::string* error) {
    perf::Contract contract;
    return perf::decode_contract(t, reg, &contract, error);
  });
}

TEST(ArtifactPrefix, FleetPartialsAreRejectedAtEveryCut) {
  perf::PcvRegistry reg;
  const perf::Contract contract = perf::load_contract(
      std::string(BOLT_TEST_DATA_DIR) + "/contract_nat.json", reg);
  net::ZipfSpec spec;
  spec.packet_count = 300;
  monitor::MonitorOptions options;
  options.delta_every = 1;
  options.telemetry = true;  // the final partial carries its telemetry
  std::vector<std::string> windows;
  const monitor::StreamMonitor* stream = nullptr;  // set once constructed
  monitor::StreamMonitor sm(
      contract, reg, monitor::MonitorEngine::named_factory("nat"), options,
      {}, [&](const monitor::ClosedWindow& cw) {
        windows.push_back(
            obs::window_partial_to_json(obs::window_partial(*stream, cw)));
      });
  stream = &sm;
  for (const net::Packet& p : net::zipf_traffic(spec)) sm.feed(p);
  const std::string final_json =
      obs::final_partial_to_json(obs::final_partial(sm, sm.finish()));
  ASSERT_FALSE(windows.empty());

  expect_every_prefix_rejected(windows.front(), [](const std::string& t,
                                                   std::string* error) {
    obs::WindowPartial p;
    return obs::decode_window_partial(t, &p, error);
  });
  expect_every_prefix_rejected(final_json, [](const std::string& t,
                                              std::string* error) {
    obs::FinalPartial p;
    return obs::decode_final_partial(t, &p, error);
  });
}

TEST(ArtifactPrefix, TraceSidecarIsRejectedAtEveryCut) {
  net::ZipfSpec spec;
  spec.packet_count = 3;
  adversary::AdversarialTrace trace;
  trace.nf = "nat";
  trace.contract_nf = "nat";
  trace.seed = 7;
  trace.partitions = 8;
  trace.epoch_ns = 1'000'000'000;
  trace.packets = net::zipf_traffic(spec);
  trace.classes = {{"a", 2, true, "driven"}, {"b", 0, false, "unreached"}};
  trace.plans.resize(3);
  trace.plans[0].entry = 0;
  trace.plans[1].entry = 0;
  trace.plans[1].predicted = {100, 20, 3000};
  trace.packets[2].set_in_port(1);
  const std::string prefix = ::testing::TempDir() + "bolt_codec_trace";
  ASSERT_TRUE(adversary::save_trace(prefix, trace));
  const std::string sidecar =
      support::read_file_or_die(prefix + ".json", "sidecar");

  expect_every_prefix_rejected(sidecar, [&](const std::string& t,
                                            std::string* error) {
    adversary::AdversarialTrace back;
    back.packets = trace.packets;
    return adversary::decode_trace_plan(t, &back, error);
  });
  std::remove((prefix + ".json").c_str());
  std::remove((prefix + ".pcap").c_str());
}

}  // namespace
}  // namespace bolt
