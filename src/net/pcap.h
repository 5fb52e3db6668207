// PCAP file reading and writing (implemented from scratch — no libpcap).
//
// The Distiller (paper §4) consumes traffic samples as PCAP files, and our
// workload generators can persist their traces the same way. We support the
// classic libpcap format, both microsecond (0xa1b2c3d4) and nanosecond
// (0xa1b23c4d) variants, in either byte order.
#pragma once

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

/// Reads all packets from a PCAP file into `*out`. False with the reason
/// (`pcap: ...`, naming the byte offset of a malformed header or record)
/// when the file cannot be read or is not a complete pcap.
bool read_pcap(const std::string& path, std::vector<Packet>* out,
               std::string* error);

/// read_pcap that aborts with the path and reason instead, for inputs a
/// program generated itself.
std::vector<Packet> read_pcap(const std::string& path);

/// Writes packets as a nanosecond-resolution PCAP file (link type EN10MB).
void write_pcap(const std::string& path, const std::vector<Packet>& packets);

/// In-memory variants used by tests (parse_pcap aborts like read_pcap).
std::vector<Packet> parse_pcap(const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets);

/// Incremental reader for a pcap file that is still being written — the
/// daemon-mode (`bolt_cli monitor --follow`) input path. Each poll() reads
/// whatever complete records have been appended since the last poll and
/// returns them; a partially-written trailing record (or a file that does
/// not exist yet, or one shorter than its global header) is simply "no
/// data yet" and is retried on the next poll. Both timestamp resolutions
/// and byte orders are accepted; a *malformed* header (bad magic, non-
/// Ethernet link type) or a record longer than the snaplen is an error,
/// with read_pcap's message — a tailed file must be a pcap, it is only
/// allowed to be unfinished. Both readers share one header and record
/// decoder.
class PcapTail {
 public:
  explicit PcapTail(std::string path);
  ~PcapTail();
  PcapTail(const PcapTail&) = delete;
  PcapTail& operator=(const PcapTail&) = delete;

  /// Drains newly completed records. Returns an empty vector when nothing
  /// new is available (not yet created / no new complete records). When
  /// the file is malformed, returns the records before the fault with the
  /// reason in `*error`, and every later poll reports it again.
  std::vector<Packet> poll(std::string* error);

  /// True once the global header has been read and validated.
  bool header_seen() const { return header_done_; }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  bool header_done_ = false;
  PcapFormat format_;
  std::vector<std::uint8_t> buf_;  ///< carried-over partial record bytes
  std::uint64_t offset_ = 0;       ///< file offset of buf_[0]
};

}  // namespace bolt::net
