#include "monitor/monitor.h"

#include "monitor/follow.h"
#include "net/flow.h"
#include "net/headers.h"
#include "support/assert.h"

namespace bolt::monitor {

std::size_t partition_of(const net::Packet& packet, std::size_t partitions) {
  if (partitions <= 1) return 0;
  std::uint64_t h = 0;
  if (const auto eth = net::parse_ethernet(packet.bytes())) {
    h = net::mix64(eth->src.to_u64() * 0x9E3779B97F4A7C15ULL ^
                   eth->dst.to_u64());
  }
  if (const auto tuple = net::extract_five_tuple(packet)) {
    h = net::mix64(h ^ tuple->key());
  }
  return static_cast<std::size_t>(h % partitions);
}

MonitorEngine::MonitorEngine(const perf::Contract& contract,
                             const perf::PcvRegistry& reg,
                             MonitorOptions options)
    : contract_(contract), reg_(reg), options_(options) {}

MonitorEngine::TargetFactory MonitorEngine::named_factory(std::string name) {
  return [name = std::move(name)](perf::PcvRegistry& reg) {
    core::NfTarget target;
    BOLT_CHECK(core::make_named_target(name, reg, target),
               "monitor: unknown target '" + name + "'");
    return target;
  };
}

MonitorReport MonitorEngine::run(const std::vector<net::Packet>& packets,
                                 const TargetFactory& factory,
                                 std::vector<std::uint32_t>* attribution,
                                 obs::RunObservations* observations) const {
  // The whole trace is one chunk of the one run loop (monitor/follow.h).
  if (attribution != nullptr) {
    attribution->assign(packets.size(), kUnattributedEntry);
  }
  StreamMonitor::WindowFn on_window;
  if (observations != nullptr) {
    *observations = obs::RunObservations{};
    on_window = [observations](const ClosedWindow& cw) {
      if (cw.has_delta) observations->deltas.push_back(cw.delta);
    };
  }
  StreamMonitor stream(contract_, reg_, factory, options_, {},
                       std::move(on_window));
  stream.feed(packets.data(), packets.size(),
              attribution != nullptr ? attribution->data() : nullptr);
  StreamResult result = stream.finish();
  if (observations != nullptr) {
    observations->telemetry = result.observations.telemetry;
    observations->alerts = std::move(result.observations.alerts);
  }
  return std::move(result.report);
}

}  // namespace bolt::monitor
