#include "net/pcap.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <iterator>

#include "support/assert.h"
#include "support/io.h"

namespace bolt::net {
namespace {

constexpr std::uint32_t kMagicMicro = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNano = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicroSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanoSwapped = 0x4d3cb2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;

std::uint32_t load_u32(const std::uint8_t* p, bool swapped) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  if (!swapped) return v;
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) |
         (v >> 24);
}

/// Decodes the 24-byte global header at `data`. False with the reason on
/// a bad magic number or a non-Ethernet link type.
bool decode_header(const std::uint8_t* data, PcapFormat* f,
                   std::string* error) {
  *f = PcapFormat{};
  switch (load_u32(data, false)) {
    case kMagicMicro: break;
    case kMagicNano: f->nano = true; break;
    case kMagicMicroSwapped: f->swapped = true; break;
    case kMagicNanoSwapped:
      f->swapped = true;
      f->nano = true;
      break;
    default:
      *error = "pcap: bad magic number at byte 0";
      return false;
  }
  const std::uint32_t snaplen = load_u32(data + 16, f->swapped);
  if (snaplen > 0 && snaplen < f->max_record) f->max_record = snaplen;
  if (load_u32(data + 20, f->swapped) != kLinkTypeEthernet) {
    *error = "pcap: only EN10MB supported at byte 20";
    return false;
  }
  return true;
}

/// Decodes the complete records in data[*pos, size) into `out` and moves
/// `*pos` just past the last one: a torn trailing record is left for the
/// caller (read_pcap rejects it, PcapTail waits for the rest). False with
/// the reason, naming the record's file offset (`base` is data[0]'s), on a
/// record longer than the header allows — a corrupt length must not be
/// buffered for, or read past.
bool decode_records(const PcapFormat& f, const std::uint8_t* data,
                    std::size_t size, std::size_t* pos, std::uint64_t base,
                    std::vector<Packet>* out, std::string* error) {
  while (size - *pos >= 16) {
    const std::uint64_t ts_sec = load_u32(data + *pos, f.swapped);
    const std::uint64_t ts_frac = load_u32(data + *pos + 4, f.swapped);
    const std::uint32_t incl_len = load_u32(data + *pos + 8, f.swapped);
    if (incl_len > f.max_record) {
      *error = "pcap: record of " + std::to_string(incl_len) +
               " bytes exceeds the snaplen " + std::to_string(f.max_record) +
               " at byte " + std::to_string(base + *pos);
      return false;
    }
    if (size - *pos - 16 < incl_len) break;
    const std::uint8_t* body = data + *pos + 16;
    out->emplace_back(std::vector<std::uint8_t>(body, body + incl_len),
                      ts_sec * 1'000'000'000ULL +
                          (f.nano ? ts_frac : ts_frac * 1'000ULL));
    *pos += 16 + incl_len;
  }
  return true;
}

/// Appends `v` little-endian.
template <class T> void put(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof v; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets) {
  std::vector<std::uint8_t> out;
  put(out, kMagicNano);
  put<std::uint16_t>(out, 2);  // version 2.4
  put<std::uint16_t>(out, 4);
  put<std::uint32_t>(out, 0);  // thiszone
  put<std::uint32_t>(out, 0);  // sigfigs
  put<std::uint32_t>(out, 65535);  // snaplen
  put(out, kLinkTypeEthernet);
  for (const Packet& p : packets) {
    put(out, static_cast<std::uint32_t>(p.timestamp_ns() / 1'000'000'000ULL));
    put(out, static_cast<std::uint32_t>(p.timestamp_ns() % 1'000'000'000ULL));
    put(out, static_cast<std::uint32_t>(p.size()));
    put(out, static_cast<std::uint32_t>(p.size()));
    out.insert(out.end(), p.bytes().begin(), p.bytes().end());
  }
  return out;
}

bool read_pcap(const std::string& path, std::vector<Packet>* out,
               std::string* error) {
  PcapTail reader(path);
  if (!reader.open(error)) return false;
  std::string fault;
  do {
    std::vector<Packet> chunk = reader.poll(&fault);
    out->insert(out->end(), std::make_move_iterator(chunk.begin()),
                std::make_move_iterator(chunk.end()));
  } while (fault.empty() && !reader.at_end(&fault));
  if (!fault.empty()) *error = fault;
  return fault.empty();
}

std::vector<Packet> read_pcap(const std::string& path) {
  std::vector<Packet> packets;
  std::string error;
  BOLT_CHECK(read_pcap(path, &packets, &error), path + ": " + error);
  return packets;
}

PcapTail::PcapTail(std::string path) : path_(std::move(path)) {}

PcapTail::~PcapTail() {
  if (f_ != nullptr) std::fclose(f_);
}

bool PcapTail::open(std::string* error) {
  f_ = std::fopen(path_.c_str(), "rb");
  if (f_ == nullptr) {
    *error = "pcap: cannot open the file";
    return false;
  }
  // A directory or pipe "opens" too; only a regular file has an end.
  struct stat st;
  if (::fstat(::fileno(f_), &st) != 0 || !S_ISREG(st.st_mode)) {
    *error = "pcap: not a regular file";
    return false;
  }
  return true;
}

std::vector<Packet> PcapTail::poll(std::string* error) {
  std::vector<Packet> out;
  if (!fault_.empty()) {
    *error = fault_;
    return out;
  }
  if (f_ == nullptr) {
    f_ = std::fopen(path_.c_str(), "rb");
    if (f_ == nullptr) return out;  // not created yet
  }
  // Append the next bytes to the carry-over buffer. The writer may be
  // mid-record; whatever does not parse as complete records stays buffered
  // for the next poll.
  const std::size_t kept = buf_.size();
  buf_.resize(kept + kPcapPollBytes);
  const std::size_t got = std::fread(buf_.data() + kept, 1, kPcapPollBytes, f_);
  buf_.resize(kept + got);
  at_end_ = got < kPcapPollBytes;
  if (at_end_) {
    // A read error (the path is a directory, say) is not "no data yet".
    if (std::ferror(f_)) {
      fault_ = "pcap: cannot read the file";
      *error = fault_;
      return out;
    }
    std::clearerr(f_);  // clear EOF so the next poll sees appended bytes
  }

  std::size_t pos = 0;
  if (!header_done_) {
    if (buf_.size() < 24) return out;
    if (!decode_header(buf_.data(), &format_, &fault_)) {
      *error = fault_;
      return out;
    }
    header_done_ = true;
    pos = 24;
  }
  if (!decode_records(format_, buf_.data(), buf_.size(), &pos, offset_, &out,
                      &fault_)) {
    *error = fault_;
  }
  buf_.erase(buf_.begin(), buf_.begin() + std::ptrdiff_t(pos));
  offset_ += pos;
  return out;
}

bool PcapTail::at_end(std::string* error) const {
  if (!at_end_) return false;
  if (!header_done_) {
    *error = "pcap: file shorter than global header";
  } else if (!buf_.empty()) {
    *error = "pcap: truncated record at byte " + std::to_string(offset_);
  }
  return true;
}

void write_pcap(const std::string& path, const std::vector<Packet>& packets) {
  const std::vector<std::uint8_t> bytes = serialize_pcap(packets);
  BOLT_CHECK(support::write_file(path, std::string(bytes.begin(), bytes.end())),
             "pcap: cannot write " + path);
}

}  // namespace bolt::net
