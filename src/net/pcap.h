// PCAP file reading and writing (implemented from scratch — no libpcap).
//
// The Distiller (paper §4) consumes traffic samples as PCAP files, the
// monitor reads and tails them, and our workload generators can persist
// their traces the same way. We support the classic libpcap format, both
// microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) variants, in either
// byte order. There is one reader, PcapTail, which reads a file in bounded
// chunks; read_pcap drains it to the end of the file.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "net/packet.h"

namespace bolt::net {

/// A global header's decoded format. Records longer than `max_record` —
/// the header's snaplen, capped at libpcap's 262144 (also used for a
/// snaplen of 0) — are rejected as corrupt.
struct PcapFormat {
  bool swapped = false;  ///< file byte order differs from the host's
  bool nano = false;     ///< nanosecond (not microsecond) timestamps
  std::uint32_t max_record = 262144;
};

/// Bytes one PcapTail::poll() reads at most, so a reader's memory does not
/// grow with the file (sized by measurement: docs/PERFORMANCE.md).
inline constexpr std::size_t kPcapPollBytes = 1 << 20;

/// Reads all packets from a PCAP file into `*out` (a PcapTail drained to
/// the end). False with the reason (`pcap: ...`, naming the byte offset of
/// a malformed header or record) when the file is not a complete pcap.
bool read_pcap(const std::string& path, std::vector<Packet>* out,
               std::string* error);

/// read_pcap that aborts with the path and reason instead, for inputs a
/// program generated itself.
std::vector<Packet> read_pcap(const std::string& path);

/// Writes packets as a nanosecond-resolution PCAP file (link type EN10MB).
void write_pcap(const std::string& path, const std::vector<Packet>& packets);

/// write_pcap's bytes, in memory (tests build torn and corrupt files).
std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets);

/// The one pcap reader, in chunks of at most kPcapPollBytes: read_pcap and
/// `monitor --pcap` drain a finished file, `monitor --follow` polls one
/// still being written. A torn trailing record (or a file that does not
/// exist yet, or is shorter than its global header) is "no data yet",
/// retried on the next poll; a malformed header (bad magic, non-Ethernet
/// link type) or a record longer than the snaplen is an error naming its
/// byte offset — a tailed file may be unfinished, never corrupt.
class PcapTail {
 public:
  explicit PcapTail(std::string path);
  ~PcapTail();
  PcapTail(const PcapTail&) = delete;
  PcapTail& operator=(const PcapTail&) = delete;

  /// Opens a file that must exist now (poll() opens lazily otherwise).
  /// False with `pcap: cannot open the file` or `pcap: not a regular file`.
  bool open(std::string* error);

  /// Reads at most kPcapPollBytes and returns the records they complete
  /// (none when nothing new is available). On a malformed file, returns the
  /// records before the fault with the reason in `*error`, and every later
  /// poll reports it again.
  std::vector<Packet> poll(std::string* error);

  /// True once the last poll reached the end of the file; for a finished
  /// file, leftover bytes then set `*error` (short header, or the offset
  /// of a truncated record).
  bool at_end(std::string* error) const;

  /// True once the global header has been read and validated.
  bool header_seen() const { return header_done_; }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  bool header_done_ = false;
  bool at_end_ = false;
  PcapFormat format_;
  std::vector<std::uint8_t> buf_;  ///< carried-over partial record bytes
  std::uint64_t offset_ = 0;       ///< file offset of buf_[0]
  std::string fault_;              ///< sticky malformed-file reason
};

}  // namespace bolt::net
