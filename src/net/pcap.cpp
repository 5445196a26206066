#include "net/pcap.h"

#include <algorithm>
#include "util/byte_io.h"
#include <cstring>

namespace upbound {

namespace {

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u16le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint32_t get_u32(const std::uint8_t* p, bool swap) {
  std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                    (static_cast<std::uint32_t>(p[1]) << 8) |
                    (static_cast<std::uint32_t>(p[2]) << 16) |
                    (static_cast<std::uint32_t>(p[3]) << 24);
  return swap ? bswap32(v) : v;
}

}  // namespace

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : snaplen_(snaplen) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) throw PcapError("cannot open for writing: " + path);

  std::uint8_t hdr[24];
  put_u32le(hdr + 0, kPcapMagicUsecLe);
  put_u16le(hdr + 4, 2);   // version major
  put_u16le(hdr + 6, 4);   // version minor
  put_u32le(hdr + 8, 0);   // thiszone
  put_u32le(hdr + 12, 0);  // sigfigs
  put_u32le(hdr + 16, snaplen_);
  put_u32le(hdr + 20, kPcapLinkTypeEthernet);
  if (std::fwrite(hdr, 1, sizeof(hdr), file_) != sizeof(hdr)) {
    throw PcapError("short write on pcap header");
  }
}

PcapWriter::~PcapWriter() { close(); }

void PcapWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void PcapWriter::write(const PacketRecord& pkt) {
  if (file_ == nullptr) throw PcapError("write after close");
  // The seconds field is a uint32: other times would wrap on reading.
  const std::int64_t usec = pkt.timestamp.usec();
  if (usec < 0 || usec / 1'000'000 > std::int64_t{UINT32_MAX}) {
    throw PcapError("timestamp outside [0, 2^32) s: " +
                    pkt.timestamp.to_string());
  }

  const std::vector<std::uint8_t> frame = encode_frame(pkt);
  // Zero fill from encode_frame represents un-captured payload; report the
  // true original length and clip the stored bytes to the captured prefix
  // (plus headers) and snaplen, like a live snaplen-limited capture.
  const std::uint32_t orig_len = static_cast<std::uint32_t>(frame.size());
  const std::uint32_t headers = orig_len - pkt.payload_size;
  std::uint32_t incl_len = headers + static_cast<std::uint32_t>(
                                         std::min<std::size_t>(
                                             pkt.payload.size(),
                                             pkt.payload_size));
  incl_len = std::min(incl_len, snaplen_);

  std::uint8_t rec[16];
  put_u32le(rec + 0, static_cast<std::uint32_t>(usec / 1'000'000));
  put_u32le(rec + 4, static_cast<std::uint32_t>(usec % 1'000'000));
  put_u32le(rec + 8, incl_len);
  put_u32le(rec + 12, orig_len);
  if (std::fwrite(rec, 1, sizeof(rec), file_) != sizeof(rec) ||
      std::fwrite(frame.data(), 1, incl_len, file_) != incl_len) {
    throw PcapError("short write on pcap record");
  }
  ++packets_written_;
}

void PcapWriter::write_all(const Trace& trace) {
  for (const auto& pkt : trace) write(pkt);
}

PcapReader::PcapReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) throw PcapError("cannot open for reading: " + path);

  std::uint8_t hdr[24];
  if (std::fread(hdr, 1, sizeof(hdr), file_) != sizeof(hdr)) {
    throw PcapError("truncated pcap global header");
  }
  const std::uint32_t magic = get_u32(hdr, false);
  if (magic == kPcapMagicUsecLe) {
    swap_ = false;
    nanosecond_ = false;
  } else if (magic == bswap32(kPcapMagicUsecLe)) {
    swap_ = true;
    nanosecond_ = false;
  } else if (magic == kPcapMagicNsecLe) {
    swap_ = false;
    nanosecond_ = true;
  } else if (magic == bswap32(kPcapMagicNsecLe)) {
    swap_ = true;
    nanosecond_ = true;
  } else {
    throw PcapError("bad pcap magic");
  }
  const std::uint32_t link_type = get_u32(hdr + 20, swap_);
  if (link_type != kPcapLinkTypeEthernet) {
    throw PcapError("unsupported pcap link type " + std::to_string(link_type));
  }
}

PcapReader::~PcapReader() {
  if (file_ != nullptr) std::fclose(file_);
}

std::optional<PacketRecord> PcapReader::next() {
  for (;;) {
    std::uint8_t rec[16];
    const std::size_t got = std::fread(rec, 1, sizeof(rec), file_);
    if (got == 0) return std::nullopt;  // clean EOF
    if (got != sizeof(rec)) throw PcapError("truncated pcap record header");

    const std::uint32_t ts_sec = get_u32(rec + 0, swap_);
    const std::uint32_t ts_frac = get_u32(rec + 4, swap_);
    const std::uint32_t incl_len = get_u32(rec + 8, swap_);
    const std::uint32_t orig_len = get_u32(rec + 12, swap_);
    if (incl_len > 256 * 1024 * 1024) throw PcapError("absurd record length");

    frame_buf_.resize(incl_len);
    if (incl_len > 0 &&
        std::fread(frame_buf_.data(), 1, incl_len, file_) != incl_len) {
      throw PcapError("truncated pcap record body");
    }

    const std::int64_t usec =
        static_cast<std::int64_t>(ts_sec) * 1'000'000 +
        (nanosecond_ ? ts_frac / 1000 : ts_frac);
    auto decoded = decode_frame(frame_buf_, SimTime::from_usec(usec));
    if (!decoded) {
      ++frames_skipped_;
      continue;
    }
    (void)orig_len;  // payload_size already recovered from the IP header
    ++packets_read_;
    return decoded->packet;
  }
}

Trace PcapReader::read_all() {
  Trace out;
  while (auto pkt = next()) out.push_back(std::move(*pkt));
  return out;
}

}  // namespace upbound
