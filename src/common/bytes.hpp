// The one little-endian byte codec and CRC-32 behind every binary format
// (DESIGN.md "Binary formats"): SCWCWIRE frames, SCWCBNDL bundles, SCWC_RF1
// forests, .scb datasets and the .npz release archives.
//
// ByteWriter builds a std::string, or spills to a std::ostream every
// kSpillBytes. ByteReader decodes an in-memory view in place, or a seekable
// std::istream through a kWindowBytes window: neither holds a whole file.
// The source is the only variation; one set of rules applies to both:
// every length is checked against its cap and then against the bytes
// remaining BEFORE anything is allocated, and every overrun throws
// scwc::Error "<context>: truncated <field> at byte offset N".
//
// On little-endian hosts the encoded layout is the in-memory layout, so
// scalars and value arrays move with memcpy; the byte loops are the
// big-endian path and produce the same bytes. The hot members stay inline:
// the router encodes and decodes a frame per window.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace scwc {

inline constexpr bool kNativeLittleEndian =
    std::endian::native == std::endian::little;

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF), slice-by-8.
/// `seed` continues a previous result: crc32(b, crc32(a)) == crc32(a + b).
[[nodiscard]] std::uint32_t crc32(std::string_view data,
                                  std::uint32_t seed = 0) noexcept;

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  static constexpr std::size_t kSpillBytes = std::size_t{1} << 16;

  /// In-memory writer; take() returns the bytes. `reserve` is the encoded
  /// size where the caller knows it, so a payload is one allocation.
  explicit ByteWriter(std::size_t reserve = 0) { buf_.reserve(reserve); }
  /// Stream writer: bytes reach `os` in kSpillBytes pieces; finish() writes
  /// the rest and throws scwc::Error if the stream failed.
  explicit ByteWriter(std::ostream& os);
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

  /// Raw bytes, no length prefix. A stream writer passes a large run
  /// straight through instead of buffering it.
  void bytes(std::string_view s) {
    if (s.size() >= spill_at_) [[unlikely]] return spill(s);
    buf_.append(s.data(), s.size());
    if (buf_.size() >= spill_at_) [[unlikely]] spill();
  }

  /// Raw doubles, no length prefix.
  void f64s(std::span<const double> values) {
    if constexpr (kNativeLittleEndian) {
      bytes({reinterpret_cast<const char*>(values.data()),
             values.size_bytes()});
    } else {
      for (const double v : values) f64(v);
    }
  }

  /// `Len`-prefixed byte string; throws scwc::Error when longer than `cap`.
  template <typename Len = std::uint32_t>
  void string(std::string_view s,
              std::size_t cap = std::numeric_limits<Len>::max()) {
    SCWC_REQUIRE(s.size() <= cap, "byte encode: string longer than its cap");
    put(static_cast<Len>(s.size()));
    bytes(s);
  }

  /// `Len`-prefixed double array.
  template <typename Len = std::uint32_t>
  void f64_array(std::span<const double> values) {
    put(static_cast<Len>(values.size()));
    f64s(values);
  }

  /// Bytes encoded so far.
  [[nodiscard]] std::uint64_t size() const noexcept {
    return spilled_ + buf_.size();
  }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  void finish();

 private:
  template <typename T>
  void put(T v) {
    if constexpr (kNativeLittleEndian) {
      buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_ += static_cast<char>((v >> (8 * i)) & 0xffU);
      }
    }
    if (buf_.size() >= spill_at_) [[unlikely]] spill();
  }

  /// Writes the buffer, then `tail`, to the stream.
  void spill(std::string_view tail = {});

  std::string buf_;
  std::ostream* sink_ = nullptr;
  std::size_t spill_at_ = std::numeric_limits<std::size_t>::max();
  std::uint64_t spilled_ = 0;
};

/// Bounds-checked little-endian decoder over one of the two byte sources.
class ByteReader {
 public:
  static constexpr std::size_t kWindowBytes = std::size_t{1} << 16;

  /// Decodes `data` in place. `context` prefixes every error message
  /// ("wire decode", "scb", ...) and must outlive the reader.
  ByteReader(std::string_view data, const char* context) noexcept
      : context_(context),
        window_(data.data()),
        pos_(data.data()),
        end_(data.data() + data.size()),
        size_(data.size()) {}
  /// Decodes from the stream's position to its end; throws scwc::Error if
  /// the stream cannot seek (the bytes remaining must be known). On
  /// destruction the stream is left just past the last byte decoded.
  ByteReader(std::istream& is, const char* context);
  ~ByteReader() {
    if (stream_ != nullptr) rewind_stream();
  }
  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  /// Names the value being read in truncation errors.
  using Field = const char*;
  std::uint8_t u8(Field f = "value") { return get<std::uint8_t>(f); }
  std::uint16_t u16(Field f = "value") { return get<std::uint16_t>(f); }
  std::uint32_t u32(Field f = "value") { return get<std::uint32_t>(f); }
  std::uint64_t u64(Field f = "value") { return get<std::uint64_t>(f); }
  std::int32_t i32(Field f = "value") {
    return static_cast<std::int32_t>(u32(f));
  }
  std::int64_t i64(Field f = "value") {
    return static_cast<std::int64_t>(u64(f));
  }
  double f64(Field f = "value") { return std::bit_cast<double>(u64(f)); }

  /// Reads a `Len` count of `unit_bytes`-sized items and checks it against
  /// `cap` ("unreasonable <field> length"), then against the bytes left.
  template <typename Len>
  std::size_t length(std::uint64_t cap, std::size_t unit_bytes,
                     const char* field) {
    const std::uint64_t n = get<Len>(field);
    if (n > cap) fail_cap(field, n, cap);
    need(n, unit_bytes, field);
    return static_cast<std::size_t>(n);
  }

  /// Throws "truncated <field>" unless `count` items of `unit_bytes` remain.
  void need(std::uint64_t count, std::size_t unit_bytes,
            const char* field) const {
    if (count > remaining() / unit_bytes) fail_truncated(field, count);
  }

  [[nodiscard]] std::string bytes(std::size_t n, const char* field = "bytes") {
    need(n, 1, field);
    std::string out(n, '\0');
    read_into(out.data(), n);
    return out;
  }

  void f64s(std::span<double> out, const char* field = "value array") {
    need(out.size(), sizeof(double), field);
    if constexpr (kNativeLittleEndian) {
      read_into(reinterpret_cast<char*>(out.data()), out.size_bytes());
    } else {
      for (double& v : out) v = f64(field);
    }
  }

  /// `Len`-prefixed byte string of at most `cap` bytes.
  template <typename Len = std::uint32_t>
  [[nodiscard]] std::string string(std::uint64_t cap,
                                   const char* field = "string") {
    return bytes(length<Len>(cap, 1, field), field);
  }

  /// `Len`-prefixed double array of at most `cap` values.
  template <typename Len = std::uint32_t>
  [[nodiscard]] std::vector<double> f64_array(
      std::uint64_t cap, const char* field = "value array") {
    std::vector<double> out(length<Len>(cap, sizeof(double), field));
    f64s(out, field);
    return out;
  }

  /// Bytes consumed since the reader was made.
  [[nodiscard]] std::uint64_t offset() const noexcept {
    return window_offset_ + static_cast<std::uint64_t>(pos_ - window_);
  }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return size_ - offset();
  }

  /// Throws unless every byte of the source was consumed.
  void expect_end() const;
  /// Throws scwc::Error "<context>: <message> at byte offset <offset>".
  [[noreturn]] void fail(std::string_view message) const;

 private:
  template <typename T>
  T get(const char* field) {
    if (static_cast<std::size_t>(end_ - pos_) < sizeof(T)) [[unlikely]] {
      refill(sizeof(T), field);
    }
    T v = 0;
    if constexpr (kNativeLittleEndian) {
      std::memcpy(&v, pos_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<unsigned char>(pos_[i])) << (8 * i);
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  /// Seeks the stream back over bytes the window read ahead.
  void rewind_stream() noexcept;
  /// Makes `n` (≤ 8) bytes available at pos_, or throws "truncated".
  void refill(std::size_t n, const char* field);
  /// Copies `n` bytes, already checked against remaining(), to `dst`
  /// (null when an empty vector is read: memcpy must not see it).
  void read_into(char* dst, std::size_t n) {
    if (static_cast<std::size_t>(end_ - pos_) >= n) {
      if (n != 0) std::memcpy(dst, pos_, n);
      pos_ += n;
    } else {
      read_through(dst, n);
    }
  }
  /// read_into past the window: only a stream source gets here.
  void read_through(char* dst, std::size_t n);
  [[noreturn]] void fail_truncated(const char* field, std::uint64_t n) const;
  [[noreturn]] void fail_cap(const char* field, std::uint64_t n,
                             std::uint64_t cap) const;

  const char* context_;
  const char* window_;  ///< first byte of the current window
  const char* pos_;     ///< next byte to decode
  const char* end_;     ///< end of the current window
  std::uint64_t window_offset_ = 0;  ///< source offset of window_
  std::uint64_t size_;               ///< bytes in the source
  std::istream* stream_ = nullptr;
  std::int64_t stream_start_ = 0;      ///< stream position of offset 0
  std::unique_ptr<char[]> buffer_;     ///< storage of a stream's window
  std::size_t buffer_size_ = 0;
};

}  // namespace scwc
