// opbench_gen — writes the operator-path benchmark's seeded traffic.
//
//   opbench_gen --seed S --out DIR [--zipf N] [--longrun N]
//
// DIR/zipf.pcap is the CLI's default monitor mix (zipf skew 1.1 over a
// 2048-flow pool); DIR/longrun.pcap is a compressed week of bursty traffic
// (net::long_run_traffic: 168 bursts, rotating working set). Both are pure
// functions of the seed and the packet count. Only the traffic generators
// and the pcap writer are used, so end-to-end runs do not depend on any
// other library interface.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/pcap.h"
#include "net/workload.h"

using namespace bolt;

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::string out;
  std::size_t zipf = 0;
  std::size_t longrun = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--out") {
      out = value;
    } else if (flag == "--zipf") {
      zipf = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--longrun") {
      longrun = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "opbench_gen: unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (out.empty() || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: opbench_gen --seed S --out DIR [--zipf N]"
                 " [--longrun N]\n");
    return 2;
  }
  if (zipf > 0) {
    net::ZipfSpec spec;
    spec.seed = seed;
    spec.packet_count = zipf;
    spec.flow_pool = 2048;
    spec.skew = 1.1;
    net::write_pcap(out + "/zipf.pcap", net::zipf_traffic(spec));
  }
  if (longrun > 0) {
    net::LongRunSpec spec;
    spec.seed = seed;
    spec.packet_count = longrun;
    net::write_pcap(out + "/longrun.pcap", net::long_run_traffic(spec));
  }
  return 0;
}
