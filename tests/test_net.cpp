#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "net/checksum.h"
#include "net/flow.h"
#include "net/headers.h"
#include "net/packet_builder.h"
#include "net/pcap.h"
#include "net/workload.h"
#include "support/io.h"

namespace bolt::net {
namespace {

TEST(Addresses, MacRoundTrip) {
  const MacAddress mac = MacAddress::from_u64(0x0123456789abULL);
  EXPECT_EQ(mac.to_u64(), 0x0123456789abULL);
  EXPECT_EQ(mac.str(), "01:23:45:67:89:ab");
  EXPECT_FALSE(mac.is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
}

TEST(Addresses, Ipv4Formatting) {
  EXPECT_EQ(Ipv4Address::from_octets(10, 0, 0, 1).str(), "10.0.0.1");
  EXPECT_EQ(Ipv4Address::from_octets(198, 51, 100, 1).value, 0xc6336401u);
}

TEST(Checksum, Rfc1071Examples) {
  // Known vector: checksum of this header must validate to zero.
  const std::vector<std::uint8_t> header = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00,
                                            0x40, 0x00, 0x40, 0x11, 0x00, 0x00,
                                            0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8,
                                            0x00, 0xc7};
  const std::uint16_t csum = internet_checksum(header);
  EXPECT_EQ(csum, 0xb861);
}

TEST(Checksum, OddLengthTail) {
  const std::vector<std::uint8_t> data = {0x01, 0x02, 0x03};
  EXPECT_EQ(internet_checksum(data),
            checksum_finish(checksum_accumulate(data)));
}

TEST(PacketBuilder, MinimumFrameAndChecksumValid) {
  Packet pkt = PacketBuilder()
                   .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                         Ipv4Address::from_octets(10, 0, 0, 2))
                   .udp(1234, 80)
                   .timestamp_ns(5)
                   .build();
  EXPECT_GE(pkt.size(), kMinFrameSize);
  EXPECT_EQ(pkt.timestamp_ns(), 5u);

  const auto eth = parse_ethernet(pkt.bytes());
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->ether_type, kEtherTypeIpv4);
  const auto ip = parse_ipv4(pkt.bytes(), kEthernetHeaderSize);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, kIpProtoUdp);
  // Checksumming the header (checksum field included) must give 0.
  const auto hdr = pkt.bytes().subspan(kEthernetHeaderSize, ip->header_size());
  EXPECT_EQ(internet_checksum(hdr), 0);
}

TEST(PacketBuilder, IpOptionsPaddedAndParsed) {
  Packet pkt = PacketBuilder()
                   .ipv4(Ipv4Address::from_octets(1, 2, 3, 4),
                         Ipv4Address::from_octets(5, 6, 7, 8))
                   .ip_nop_options(5)
                   .udp(1, 2)
                   .build();
  const auto ip = parse_ipv4(pkt.bytes(), kEthernetHeaderSize);
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->has_options());
  EXPECT_EQ(ip->ihl, 7);  // 5 NOPs padded to 8 bytes = 2 words
  const auto count = count_ipv4_options(ip->options);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 5);
}

TEST(PacketBuilder, TimestampOption) {
  Packet pkt = PacketBuilder()
                   .ipv4(Ipv4Address::from_octets(1, 2, 3, 4),
                         Ipv4Address::from_octets(5, 6, 7, 8))
                   .ip_timestamp_option(2)
                   .udp(1, 2)
                   .build();
  const auto ip = parse_ipv4(pkt.bytes(), kEthernetHeaderSize);
  ASSERT_TRUE(ip.has_value());
  ASSERT_FALSE(ip->options.empty());
  EXPECT_EQ(ip->options[0], kIpOptTimestamp);
}

TEST(PacketBuilder, TcpFrames) {
  Packet pkt = PacketBuilder()
                   .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                         Ipv4Address::from_octets(10, 0, 0, 2))
                   .tcp(4000, 443)
                   .build();
  const auto ip = parse_ipv4(pkt.bytes(), kEthernetHeaderSize);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, kIpProtoTcp);
  const auto tcp = parse_tcp(pkt.bytes(), kEthernetHeaderSize + 20);
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->src_port, 4000);
  EXPECT_EQ(tcp->dst_port, 443);
}

// --- build -> parse -> rebuild round trips -------------------------------
//
// Every header combination the adversarial synthesiser emits must survive
// a full parse/rebuild cycle byte-for-byte: the parsed view carries all the
// information the builder needs, and the rebuild recomputes identical
// lengths and checksums. This is what makes witness "materialisation"
// (adversary/adversary.cpp) safe — a rebuilt frame is the same frame.

namespace {

/// Rebuilds a frame from its parsed headers. Expects plain Ethernet/IPv4/
/// {UDP,TCP} (optionally with NOP/timestamp options re-added verbatim).
Packet rebuild_from_parse(const Packet& original) {
  const auto eth = parse_ethernet(original.bytes());
  EXPECT_TRUE(eth.has_value());
  PacketBuilder b;
  if (eth->ether_type != kEtherTypeIpv4) {
    b.eth(eth->src, eth->dst, eth->ether_type);
  } else {
    const auto ip = parse_ipv4(original.bytes(), kEthernetHeaderSize);
    EXPECT_TRUE(ip.has_value());
    b.eth(eth->src, eth->dst).ipv4(ip->src, ip->dst, ip->protocol, ip->ttl);
    // Re-add option bytes one option at a time (NOPs, multi-byte options;
    // trailing END padding is reapplied by build()).
    for (std::size_t i = 0; i < ip->options.size();) {
      const std::uint8_t kind = ip->options[i];
      if (kind == kIpOptEnd) break;
      if (kind == kIpOptNop) {
        b.ip_option(kIpOptNop);
        ++i;
        continue;
      }
      const std::uint8_t len = ip->options[i + 1];
      b.ip_option(kind, std::vector<std::uint8_t>(
                            ip->options.begin() + i + 2,
                            ip->options.begin() + i + len));
      i += len;
    }
    const std::size_t l4 = kEthernetHeaderSize + ip->header_size();
    if (ip->protocol == kIpProtoUdp) {
      const auto udp = parse_udp(original.bytes(), l4);
      EXPECT_TRUE(udp.has_value());
      b.udp(udp->src_port, udp->dst_port);
    } else if (ip->protocol == kIpProtoTcp) {
      const auto tcp = parse_tcp(original.bytes(), l4);
      EXPECT_TRUE(tcp.has_value());
      b.tcp(tcp->src_port, tcp->dst_port);
    }
  }
  b.frame_size(original.size());
  b.timestamp_ns(original.timestamp_ns()).in_port(original.in_port());
  return b.build();
}

void expect_round_trip(const Packet& original) {
  const Packet rebuilt = rebuild_from_parse(original);
  EXPECT_EQ(std::vector<std::uint8_t>(original.bytes().begin(),
                                      original.bytes().end()),
            std::vector<std::uint8_t>(rebuilt.bytes().begin(),
                                      rebuilt.bytes().end()));
  EXPECT_EQ(original.timestamp_ns(), rebuilt.timestamp_ns());
  EXPECT_EQ(original.in_port(), rebuilt.in_port());
  // IPv4 checksum must validate (sum over the header including the
  // checksum field is zero).
  const auto eth = parse_ethernet(original.bytes());
  if (eth && eth->ether_type == kEtherTypeIpv4) {
    const auto ip = parse_ipv4(original.bytes(), kEthernetHeaderSize);
    ASSERT_TRUE(ip.has_value());
    EXPECT_EQ(internet_checksum(original.bytes().subspan(kEthernetHeaderSize,
                                                         ip->header_size())),
              0);
  }
}

}  // namespace

TEST(PacketBuilderRoundTrip, PlainUdp) {
  expect_round_trip(PacketBuilder()
                        .eth(MacAddress::from_u64(0x020000000123),
                             MacAddress::from_u64(0x020000000456))
                        .ipv4(Ipv4Address::from_octets(10, 1, 2, 3),
                              Ipv4Address::from_octets(198, 18, 7, 65))
                        .udp(4321, 80)
                        .timestamp_ns(77)
                        .in_port(3)
                        .build());
}

TEST(PacketBuilderRoundTrip, PlainTcp) {
  expect_round_trip(PacketBuilder()
                        .ipv4(Ipv4Address::from_octets(198, 18, 0, 9),
                              Ipv4Address::from_octets(10, 0, 0, 7),
                              kIpProtoTcp, 17)
                        .tcp(50000, 443)
                        .build());
}

TEST(PacketBuilderRoundTrip, NopOptions) {
  expect_round_trip(PacketBuilder()
                        .ipv4(Ipv4Address::from_octets(1, 2, 3, 4),
                              Ipv4Address::from_octets(5, 6, 7, 8))
                        .ip_nop_options(5)
                        .udp(1, 2)
                        .build());
}

TEST(PacketBuilderRoundTrip, TimestampOption) {
  expect_round_trip(PacketBuilder()
                        .ipv4(Ipv4Address::from_octets(1, 2, 3, 4),
                              Ipv4Address::from_octets(5, 6, 7, 8))
                        .ip_timestamp_option(3)
                        .udp(7, 9)
                        .build());
}

TEST(PacketBuilderRoundTrip, NonIpFrame) {
  expect_round_trip(PacketBuilder()
                        .eth(MacAddress::from_u64(0x020000100001),
                             MacAddress::broadcast(), kEtherTypeArp)
                        .timestamp_ns(12)
                        .build());
}

TEST(PacketBuilderRoundTrip, PaddedFrame) {
  expect_round_trip(PacketBuilder()
                        .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                              Ipv4Address::from_octets(10, 0, 0, 2))
                        .udp(1234, 5678)
                        .frame_size(256)
                        .build());
}

TEST(PacketBuilderRoundTrip, WorkloadGeneratorFrames) {
  // The frames the generators (and therefore the adversary) actually emit.
  expect_round_trip(packet_for_tuple(tuple_for_index(42, true), 9, 0));
  expect_round_trip(packet_for_tuple(tuple_for_index(43, false), 10, 1));
}

TEST(CollidingTuples, LandInTheRequestedBucket) {
  const std::size_t buckets = 4096;
  const auto tuples = colliding_tuples(16, 5, buckets, /*hash_key=*/0x1234);
  ASSERT_EQ(tuples.size(), 16u);
  std::set<std::uint64_t> keys;
  for (const FiveTuple& t : tuples) {
    EXPECT_EQ(mix64(t.key() ^ 0x1234) & (buckets - 1), 5u);
    keys.insert(t.key());
  }
  EXPECT_EQ(keys.size(), tuples.size());  // distinct flows
}

TEST(Flow, ExtractFiveTuple) {
  const FiveTuple want{Ipv4Address::from_octets(10, 1, 2, 3),
                       Ipv4Address::from_octets(192, 0, 2, 9), 5555, 80,
                       kIpProtoUdp};
  Packet pkt = packet_for_tuple(want, 0);
  const auto got = extract_five_tuple(pkt);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);
}

TEST(Flow, NonIpHasNoTuple) {
  EXPECT_FALSE(extract_five_tuple(invalid_packet()).has_value());
}

TEST(Flow, ReversedTuple) {
  const FiveTuple t{Ipv4Address{1}, Ipv4Address{2}, 10, 20, 6};
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src_ip.value, 2u);
  EXPECT_EQ(r.dst_port, 10);
  EXPECT_NE(t.key(), r.key());
}

TEST(Flow, KeysDifferAcrossTuples) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    keys.insert(tuple_for_index(i).key());
  }
  EXPECT_EQ(keys.size(), 1000u);
}

TEST(Pcap, RoundTrip) {
  std::vector<Packet> packets;
  for (int i = 0; i < 10; ++i) {
    packets.push_back(packet_for_tuple(tuple_for_index(std::uint64_t(i)),
                                       1'000'000'000ULL + std::uint64_t(i) * 37));
  }
  const std::string path = ::testing::TempDir() + "/bolt_roundtrip.pcap";
  write_pcap(path, packets);
  const auto parsed = read_pcap(path);
  std::remove(path.c_str());
  ASSERT_EQ(parsed.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(parsed[i].timestamp_ns(), packets[i].timestamp_ns());
    ASSERT_EQ(parsed[i].size(), packets[i].size());
    EXPECT_TRUE(std::equal(parsed[i].bytes().begin(), parsed[i].bytes().end(),
                           packets[i].bytes().begin()));
  }
}

TEST(Pcap, FileRoundTrip) {
  std::vector<Packet> packets = {packet_for_tuple(tuple_for_index(1), 42)};
  const std::string path = ::testing::TempDir() + "/bolt_test.pcap";
  write_pcap(path, packets);
  const auto loaded = read_pcap(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].timestamp_ns(), 42u);
}

// The reporting reader names what is wrong and where; the CLI turns the
// message into exit 2.
TEST(Pcap, MalformedFilesAreReportedWithTheirOffset) {
  const std::string path = ::testing::TempDir() + "/bolt_malformed.pcap";
  const std::vector<std::uint8_t> good =
      serialize_pcap({packet_for_tuple(tuple_for_index(1), 42)});
  std::vector<std::uint8_t> magic = good, link = good;
  magic[0] = 0;
  link[20] = 2;
  const std::pair<std::vector<std::uint8_t>, std::string> cases[] = {
      {magic, "pcap: bad magic number at byte 0"},
      {link, "pcap: only EN10MB supported at byte 20"},
      {{good.begin(), good.end() - 1}, "pcap: truncated record at byte 24"},
      {{good.begin(), good.begin() + 10}, "pcap: file shorter than global header"},
  };
  std::vector<Packet> packets;
  std::string error;
  for (const auto& [bytes, message] : cases) {
    ASSERT_TRUE(support::write_file(path, std::string(bytes.begin(), bytes.end())));
    EXPECT_FALSE(read_pcap(path, &packets, &error));
    EXPECT_EQ(error, message);
  }
  EXPECT_FALSE(read_pcap(path + ".missing", &packets, &error));
  EXPECT_EQ(error, "pcap: cannot open the file");
  EXPECT_FALSE(read_pcap(::testing::TempDir(), &packets, &error));
  EXPECT_EQ(error, "pcap: not a regular file");
  std::remove(path.c_str());
}

// Reading is chunked (kPcapPollBytes per poll): a record corrupted well
// past the first chunk is still reported with its file offset, by
// read_pcap and by the chunked reader itself, after every record before it.
TEST(Pcap, CorruptRecordBeyondTheFirstChunkIsReportedWithItsOffset) {
  std::vector<Packet> packets;
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    packets.push_back(packet_for_tuple(tuple_for_index(i % 500), 1000 + i));
  }
  std::vector<std::uint8_t> bytes = serialize_pcap(packets);
  ASSERT_GT(bytes.size(), 2 * kPcapPollBytes);
  // The first record that starts past 1.5 chunks: its incl_len -> 2^32-1.
  std::size_t offset = 24;
  std::size_t corrupt = 0;
  while (offset < kPcapPollBytes * 3 / 2) {
    offset += 16 + packets[corrupt++].size();
  }
  for (std::size_t i = 8; i < 12; ++i) bytes[offset + i] = 0xff;
  const std::string path = ::testing::TempDir() + "/bolt_corrupt_late.pcap";
  ASSERT_TRUE(support::write_file(path, std::string(bytes.begin(), bytes.end())));
  const std::string message =
      "pcap: record of 4294967295 bytes exceeds the snaplen 65535 at byte " +
      std::to_string(offset);

  std::vector<Packet> loaded;
  std::string error;
  EXPECT_FALSE(read_pcap(path, &loaded, &error));
  EXPECT_EQ(error, message);

  PcapTail reader(path);
  ASSERT_TRUE(reader.open(&error));
  error.clear();
  std::vector<Packet> got;
  std::size_t polls = 0;
  while (error.empty() && !reader.at_end(&error)) {
    const std::vector<Packet> chunk = reader.poll(&error);
    got.insert(got.end(), chunk.begin(), chunk.end());
    ++polls;
  }
  EXPECT_EQ(error, message);
  EXPECT_GE(polls, 2u);  // the fault is not in the first chunk
  EXPECT_EQ(got.size(), corrupt);
  error.clear();
  EXPECT_TRUE(reader.poll(&error).empty());  // and stays malformed
  EXPECT_EQ(error, message);
  std::remove(path.c_str());
}

TEST(Workload, UniformDeterministic) {
  UniformSpec spec;
  spec.packet_count = 100;
  const auto a = uniform_random_traffic(spec);
  const auto b = uniform_random_traffic(spec);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(std::equal(a[i].bytes().begin(), a[i].bytes().end(),
                           b[i].bytes().begin()));
  }
}

TEST(Workload, ZipfIsDeterministicAndHeavyTailed) {
  ZipfSpec spec;
  spec.flow_pool = 512;
  spec.skew = 1.2;
  spec.packet_count = 20'000;
  const auto a = zipf_traffic(spec);
  const auto b = zipf_traffic(spec);
  ASSERT_EQ(a.size(), spec.packet_count);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(std::equal(a[i].bytes().begin(), a[i].bytes().end(),
                           b[i].bytes().begin()));
  }

  std::map<std::uint64_t, std::size_t> counts;
  for (const auto& p : a) {
    const auto t = extract_five_tuple(p);
    ASSERT_TRUE(t.has_value());
    ++counts[t->key()];
  }
  // Many distinct flows appear, but the head dominates: the most popular
  // flow carries far more than its uniform share, and the top ~10% of
  // flows carry the majority of packets.
  EXPECT_GT(counts.size(), 100u);
  std::vector<std::size_t> sorted;
  for (const auto& [key, n] : counts) sorted.push_back(n);
  std::sort(sorted.rbegin(), sorted.rend());
  EXPECT_GT(sorted.front(), spec.packet_count / spec.flow_pool * 20);
  std::size_t top_decile = 0;
  for (std::size_t i = 0; i < sorted.size() / 10; ++i) top_decile += sorted[i];
  EXPECT_GT(top_decile, spec.packet_count / 2);

  // skew = 0 degenerates to (near-)uniform: the head flow stays small.
  ZipfSpec flat = spec;
  flat.skew = 0.0;
  std::map<std::uint64_t, std::size_t> flat_counts;
  for (const auto& p : zipf_traffic(flat)) {
    ++flat_counts[extract_five_tuple(p)->key()];
  }
  std::size_t flat_max = 0;
  for (const auto& [key, n] : flat_counts) flat_max = std::max(flat_max, n);
  EXPECT_LT(flat_max, spec.packet_count / spec.flow_pool * 5);
}

TEST(Workload, ChurnIntroducesNewFlows) {
  ChurnSpec spec;
  spec.active_flows = 16;
  spec.churn = 1.0;  // every packet starts a new flow
  spec.packet_count = 64;
  const auto packets = churn_traffic(spec);
  std::set<std::uint64_t> keys;
  for (const auto& p : packets) {
    const auto t = extract_five_tuple(p);
    ASSERT_TRUE(t.has_value());
    keys.insert(t->key());
  }
  EXPECT_EQ(keys.size(), 64u);
}

TEST(Workload, BridgeBroadcastFraction) {
  BridgeSpec spec;
  spec.broadcast_fraction = 1.0;
  spec.packet_count = 50;
  for (const auto& p : bridge_traffic(spec)) {
    const auto eth = parse_ethernet(p.bytes());
    ASSERT_TRUE(eth.has_value());
    EXPECT_TRUE(eth->dst.is_broadcast());
  }
}

TEST(Workload, CollidingKeysCollide) {
  const auto keys = colliding_keys(16, 3, 1024);
  ASSERT_EQ(keys.size(), 16u);
  std::set<std::uint64_t> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), 16u);
  for (const std::uint64_t k : keys) {
    EXPECT_EQ(mix64(k) & 1023u, 3u);
  }
}

TEST(Workload, LpmTrafficMatchesDeclaredLengths) {
  LpmSpec spec;
  spec.min_prefix_len = 9;
  spec.max_prefix_len = 16;
  spec.packet_count = 200;
  spec.routes_per_length = 4;
  const auto wl = lpm_traffic(spec);
  ASSERT_EQ(wl.packets.size(), 200u);
  ASSERT_EQ(wl.matched_length.size(), 200u);
  for (const int l : wl.matched_length) {
    EXPECT_GE(l, spec.min_prefix_len);
    EXPECT_LE(l, 32);
  }
}

TEST(Workload, HeartbeatsTargetHealthPort) {
  HeartbeatSpec spec;
  spec.packet_count = 20;
  for (const auto& p : heartbeat_traffic(spec)) {
    const auto ip = parse_ipv4(p.bytes(), kEthernetHeaderSize);
    ASSERT_TRUE(ip.has_value());
    EXPECT_EQ(ip->src.value >> 16, 0xac10u);
    const auto udp = parse_udp(p.bytes(), kEthernetHeaderSize + 20);
    ASSERT_TRUE(udp.has_value());
    EXPECT_EQ(udp->dst_port, spec.heartbeat_port);
  }
}

}  // namespace
}  // namespace bolt::net
