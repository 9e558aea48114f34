#include "common/bytes.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>

namespace scwc {

namespace {

/// Slice-by-8 tables of the reflected IEEE polynomial: table[0] is the
/// classic bytewise table, table[k][b] advances table[k-1][b] by one more
/// zero byte, so eight input bytes fold into the CRC with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffU];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian 32-bit load; compilers turn it into one load on LE hosts.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) noexcept {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffU] ^ t[6][(lo >> 8) & 0xffU] ^
        t[5][(lo >> 16) & 0xffU] ^ t[4][lo >> 24] ^ t[3][hi & 0xffU] ^
        t[2][(hi >> 8) & 0xffU] ^ t[1][(hi >> 16) & 0xffU] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

// ------------------------------------------------------------- ByteWriter

ByteWriter::ByteWriter(std::ostream& os) : sink_(&os), spill_at_(kSpillBytes) {
  buf_.reserve(kSpillBytes + sizeof(std::uint64_t));
}

void ByteWriter::spill(std::string_view tail) {
  sink_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  sink_->write(tail.data(), static_cast<std::streamsize>(tail.size()));
  spilled_ += buf_.size() + tail.size();
  buf_.clear();
}

void ByteWriter::finish() {
  SCWC_REQUIRE(sink_ != nullptr, "byte encode: finish() on a memory writer");
  spill();
  sink_->flush();
  SCWC_REQUIRE(sink_->good(), "byte encode: stream write failed");
}

// ------------------------------------------------------------- ByteReader

ByteReader::ByteReader(std::istream& is, const char* context)
    : context_(context), window_(nullptr), pos_(nullptr), end_(nullptr),
      size_(0), stream_(&is) {
  const std::istream::pos_type start = is.tellg();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(start);
  if (start == std::istream::pos_type(-1) ||
      end == std::istream::pos_type(-1) || !is.good()) {
    fail("stream is not seekable");
  }
  stream_start_ = static_cast<std::int64_t>(start);
  size_ = static_cast<std::uint64_t>(end - start);
  buffer_size_ = static_cast<std::size_t>(
      std::min<std::uint64_t>(size_, kWindowBytes));
  buffer_ = std::make_unique<char[]>(buffer_size_);
  window_ = pos_ = end_ = buffer_.get();
}

void ByteReader::rewind_stream() noexcept {
  // Leave the stream where decoding stopped so the caller can read
  // whatever follows.
  if (stream_->good()) {
    stream_->seekg(stream_start_ + static_cast<std::int64_t>(offset()));
  }
}

void ByteReader::refill(std::size_t n, const char* field) {
  // An in-memory source holds every byte in its one window, so only a
  // stream with bytes left gets past this check.
  const std::uint64_t left = remaining();
  if (n > left) fail_truncated(field, n);
  const auto kept = static_cast<std::size_t>(end_ - pos_);
  window_offset_ = offset();
  std::memmove(buffer_.get(), pos_, kept);
  window_ = pos_ = end_ = buffer_.get();
  const auto fill = static_cast<std::size_t>(
      std::min<std::uint64_t>(buffer_size_, left) - kept);
  stream_->read(buffer_.get() + kept, static_cast<std::streamsize>(fill));
  if (static_cast<std::size_t>(stream_->gcount()) != fill) {
    fail("stream read failed");
  }
  end_ = window_ + kept + fill;
}

void ByteReader::read_through(char* dst, std::size_t n) {
  // What the window holds, then the rest straight from the stream; the
  // emptied window restarts after it.
  const auto buffered = static_cast<std::size_t>(end_ - pos_);
  std::memcpy(dst, pos_, buffered);
  pos_ += buffered;
  window_offset_ = offset() + (n - buffered);
  window_ = pos_ = end_ = buffer_.get();
  stream_->read(dst + buffered, static_cast<std::streamsize>(n - buffered));
  if (static_cast<std::size_t>(stream_->gcount()) != n - buffered) {
    fail("stream read failed");
  }
}

void ByteReader::expect_end() const {
  if (remaining() != 0) fail(std::to_string(remaining()) + " trailing bytes");
}

void ByteReader::fail(std::string_view message) const {
  SCWC_FAIL(std::string(context_) + ": " + std::string(message) +
            " at byte offset " + std::to_string(offset()));
}

void ByteReader::fail_truncated(const char* field, std::uint64_t n) const {
  fail(std::string("truncated ") + field + " (" + std::to_string(n) +
       " wanted, " + std::to_string(remaining()) + " bytes remain)");
}

void ByteReader::fail_cap(const char* field, std::uint64_t n,
                          std::uint64_t cap) const {
  fail(std::string("unreasonable ") + field + " length " + std::to_string(n) +
       " (cap " + std::to_string(cap) + ")");
}

}  // namespace scwc
