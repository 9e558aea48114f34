// Tests of the shared byte codec (common/bytes.hpp): both writer sinks emit
// the same bytes, both reader sources decode them the same way (including
// across the stream window's refills), lengths are checked against caps and
// the bytes remaining before allocation, and every failure is a typed
// scwc::Error naming the field and byte offset.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace scwc {
namespace {

/// One of every shape the codec writes, repeated `rounds` times; enough
/// rounds make the encoding span several stream windows and spills.
void encode_mix(ByteWriter& w, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    w.u8(static_cast<std::uint8_t>(i));
    w.u16(static_cast<std::uint16_t>(i * 7));
    w.u32(0xdeadbeefU ^ static_cast<std::uint32_t>(i));
    w.i32(-i);
    w.u64(0x0123456789abcdefULL + static_cast<std::uint64_t>(i));
    w.i64(-static_cast<std::int64_t>(i) * 1000003);
    w.f64(i * 0.25);
    w.string("round " + std::to_string(i));
    w.string<std::uint64_t>(std::string(static_cast<std::size_t>(i % 97), 'x'));
    std::vector<double> values(static_cast<std::size_t>(i % 13));
    for (std::size_t k = 0; k < values.size(); ++k) values[k] = i + 0.5 * k;
    w.f64_array(values);
    w.f64_array<std::uint64_t>(values);
  }
}

void decode_mix(ByteReader& r, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(i));
    ASSERT_EQ(r.u16(), static_cast<std::uint16_t>(i * 7));
    ASSERT_EQ(r.u32(), 0xdeadbeefU ^ static_cast<std::uint32_t>(i));
    ASSERT_EQ(r.i32(), -i);
    ASSERT_EQ(r.u64(), 0x0123456789abcdefULL + static_cast<std::uint64_t>(i));
    ASSERT_EQ(r.i64(), -static_cast<std::int64_t>(i) * 1000003);
    ASSERT_DOUBLE_EQ(r.f64(), i * 0.25);
    ASSERT_EQ(r.string(64), "round " + std::to_string(i));
    ASSERT_EQ(r.string<std::uint64_t>(128),
              std::string(static_cast<std::size_t>(i % 97), 'x'));
    const std::vector<double> a = r.f64_array(16);
    const std::vector<double> b = r.f64_array<std::uint64_t>(16);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(i % 13));
    ASSERT_EQ(a, b);
    for (std::size_t k = 0; k < a.size(); ++k) ASSERT_DOUBLE_EQ(a[k], i + 0.5 * k);
  }
}

std::string memory_bytes(int rounds) {
  ByteWriter w;
  encode_mix(w, rounds);
  return w.take();
}

constexpr int kManyRounds = 3000;  // ~0.5 MB: several windows and spills

TEST(ByteCodec, StreamWriterEmitsTheMemoryWriterBytes) {
  std::ostringstream os;
  ByteWriter w(os);
  encode_mix(w, kManyRounds);
  EXPECT_EQ(w.size(), memory_bytes(kManyRounds).size());
  w.finish();
  EXPECT_EQ(os.str(), memory_bytes(kManyRounds));
  EXPECT_GT(os.str().size(), 4 * ByteReader::kWindowBytes);
}

TEST(ByteCodec, BothSourcesDecodeAcrossWindowRefills) {
  const std::string bytes = memory_bytes(kManyRounds);
  ByteReader memory(bytes, "test");
  decode_mix(memory, kManyRounds);
  EXPECT_NO_THROW(memory.expect_end());

  std::istringstream is(bytes);
  ByteReader stream(is, "test");
  decode_mix(stream, kManyRounds);
  EXPECT_EQ(stream.offset(), bytes.size());
  EXPECT_NO_THROW(stream.expect_end());
}

TEST(ByteCodec, LargeArrayStraddlingTheWindowReadsThrough) {
  std::vector<double> big(3 * ByteReader::kWindowBytes / sizeof(double) + 5);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = std::sqrt(i + 1.0);
  std::ostringstream os;
  ByteWriter w(os);
  w.u8(7);  // misaligns the array against the window
  w.f64_array<std::uint64_t>(big);
  w.u32(42);
  w.finish();
  std::istringstream is(os.str());
  ByteReader r(is, "test");
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.f64_array<std::uint64_t>(big.size()), big);
  EXPECT_EQ(r.u32(), 42U);
  r.expect_end();
}

TEST(ByteCodec, StreamIsLeftJustPastTheDecodedBytes) {
  ByteWriter w;
  w.u64(1);
  w.u64(2);
  std::istringstream is(w.take() + "tail");
  {
    ByteReader r(is, "test");
    EXPECT_EQ(r.u64(), 1U);
  }  // the reader read ahead; its destructor puts the stream back
  {
    ByteReader r(is, "test");
    EXPECT_EQ(r.u64(), 2U);
  }
  std::string rest;
  is >> rest;
  EXPECT_EQ(rest, "tail");
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(ByteCodec, TruncationNamesTheFieldAndOffsetOnBothSources) {
  const std::string bytes = memory_bytes(2).substr(0, 10);
  const auto decode = [](ByteReader& r) {
    (void)r.u8();
    (void)r.u16();
    (void)r.u32();
    (void)r.u64("job id");
  };
  const std::string from_memory = error_of([&] {
    ByteReader r(bytes, "fmt");
    decode(r);
  });
  std::istringstream is(bytes);
  const std::string from_stream = error_of([&] {
    ByteReader r(is, "fmt");
    decode(r);
  });
  EXPECT_NE(from_memory.find("fmt: truncated job id"), std::string::npos)
      << from_memory;
  EXPECT_NE(from_memory.find("at byte offset 7"), std::string::npos)
      << from_memory;
  EXPECT_EQ(from_memory, from_stream);
}

TEST(ByteCodec, LengthsFailOnCapThenOnBytesRemainingBeforeAllocating) {
  ByteWriter w;
  w.u64(std::uint64_t{1} << 40);  // far beyond any cap
  w.u64(1000);                    // within the cap, beyond the bytes left
  w.f64(1.0);
  const std::string bytes = w.take();
  const std::string over_cap = error_of([&] {
    ByteReader r(bytes, "fmt");
    (void)r.f64_array<std::uint64_t>(1 << 20, "tensor");
  });
  EXPECT_NE(over_cap.find("unreasonable tensor length 1099511627776"),
            std::string::npos)
      << over_cap;
  const std::string over_remaining = error_of([&] {
    ByteReader r(bytes, "fmt");
    (void)r.u64();
    (void)r.f64_array<std::uint64_t>(1 << 20, "tensor");
  });
  EXPECT_NE(over_remaining.find("truncated tensor"), std::string::npos)
      << over_remaining;
}

TEST(ByteCodec, TrailingBytesAndWriterCapsAreTypedErrors) {
  const std::string bytes = memory_bytes(1) + "x";
  ByteReader r(bytes, "fmt");
  decode_mix(r, 1);
  EXPECT_THROW(r.expect_end(), Error);
  ByteWriter w;
  EXPECT_THROW(w.string(std::string(5, 'a'), 4), Error);
  EXPECT_THROW(w.finish(), Error);  // a memory writer has no stream
}

/// A stream buffer without seek support, like a pipe.
struct UnseekableBuf : std::streambuf {};

TEST(ByteCodec, UnseekableStreamIsRefusedTyped) {
  UnseekableBuf buf;
  std::istream is(&buf);
  EXPECT_THROW(ByteReader(is, "fmt"), Error);
}

TEST(ByteCodec, EncodedLayoutIsLittleEndian) {
  // The encoded layout is little-endian whatever the host.
  ByteWriter w;
  w.u32(0x04030201U);
  w.u16(0x0605U);
  EXPECT_EQ(w.take(), std::string("\x01\x02\x03\x04\x05\x06", 6));
}

}  // namespace
}  // namespace scwc
