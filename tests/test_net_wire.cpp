// SCWCWIRE codec tests: round-trips for every frame type, header
// validation, v1↔v2 version compatibility (a v1 peer degrades to untraced
// operation, never a decode error), and the byte-level fuzz pass the wire
// header promises — every single-byte corruption and every truncation of
// every frame type either decodes (the flip hit a don't-care byte) or
// throws a typed scwc::Error. Nothing may crash, hang, or allocate
// unbounded memory.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "fuzz_bytes.hpp"
#include "net/wire.hpp"

namespace scwc::net {
namespace {

// ------------------------------------------------------------- round trips

TEST(WireCodec, HelloRoundTrip) {
  HelloFrame f;
  f.shard_id = 7;
  f.window_steps = 60;
  f.sensors = 7;
  f.model_version = "rf-cov-v1";
  const HelloFrame back = decode_hello(encode_hello(f));
  EXPECT_EQ(back.shard_id, f.shard_id);
  EXPECT_EQ(back.window_steps, f.window_steps);
  EXPECT_EQ(back.sensors, f.sensors);
  EXPECT_EQ(back.model_version, f.model_version);
}

TEST(WireCodec, SubmitWindowRoundTrip) {
  SubmitWindowFrame f;
  f.request_id = 0x123456789abcdef0ULL;
  f.job_id = -42;
  f.deadline_ns = 20'000'000;
  f.steps = 3;
  f.sensors = 2;
  f.values = {1.5, -2.25, 0.0, 1e-300, -1e300, 42.0};
  f.trace_id = 0xabcdULL;
  f.trace_sampled = true;
  const SubmitWindowFrame back = decode_submit_window(encode_submit_window(f));
  EXPECT_EQ(back.request_id, f.request_id);
  EXPECT_EQ(back.job_id, f.job_id);
  EXPECT_EQ(back.deadline_ns, f.deadline_ns);
  EXPECT_EQ(back.steps, f.steps);
  EXPECT_EQ(back.sensors, f.sensors);
  EXPECT_EQ(back.values, f.values);
  EXPECT_EQ(back.trace_id, f.trace_id);
  EXPECT_EQ(back.trace_sampled, f.trace_sampled);
}

TEST(WireCodec, TelemetryRowRoundTrip) {
  TelemetryRowFrame f;
  f.job_id = 99;
  f.step = 12;
  f.values = {0.25, -3.5, 7.0};
  const TelemetryRowFrame back = decode_telemetry_row(encode_telemetry_row(f));
  EXPECT_EQ(back.job_id, f.job_id);
  EXPECT_EQ(back.step, f.step);
  EXPECT_EQ(back.values, f.values);
}

TEST(WireCodec, VerdictRoundTrip) {
  VerdictFrame f;
  f.request_id = 5;
  f.trace_id = 0xfeedULL;
  f.job_id = 3;
  f.accepted = true;
  f.reject_reason = 0;
  f.degrade_level = 1;
  f.abstained = true;
  f.abstain_reason = 2;
  f.label = 11;
  f.batch_size = 64;
  f.quality = 0.875;
  f.worker_latency_s = 0.0125;
  f.missing_values = 4;
  f.repaired_values = 3;
  f.model_version = "rf-cov-v2";
  f.worker_queue_s = 0.001;
  f.worker_transform_s = 0.0005;
  f.worker_predict_s = 0.002;
  const VerdictFrame back = decode_verdict(encode_verdict(f));
  EXPECT_EQ(back.request_id, f.request_id);
  EXPECT_EQ(back.trace_id, f.trace_id);
  EXPECT_EQ(back.job_id, f.job_id);
  EXPECT_EQ(back.accepted, f.accepted);
  EXPECT_EQ(back.degrade_level, f.degrade_level);
  EXPECT_EQ(back.abstained, f.abstained);
  EXPECT_EQ(back.abstain_reason, f.abstain_reason);
  EXPECT_EQ(back.label, f.label);
  EXPECT_EQ(back.batch_size, f.batch_size);
  EXPECT_DOUBLE_EQ(back.quality, f.quality);
  EXPECT_DOUBLE_EQ(back.worker_latency_s, f.worker_latency_s);
  EXPECT_EQ(back.missing_values, f.missing_values);
  EXPECT_EQ(back.repaired_values, f.repaired_values);
  EXPECT_EQ(back.model_version, f.model_version);
  EXPECT_DOUBLE_EQ(back.worker_queue_s, f.worker_queue_s);
  EXPECT_DOUBLE_EQ(back.worker_transform_s, f.worker_transform_s);
  EXPECT_DOUBLE_EQ(back.worker_predict_s, f.worker_predict_s);
}

TEST(WireCodec, SwapFramesRoundTrip) {
  SwapBeginFrame begin;
  begin.version = "rf-cov-v2";
  begin.total_bytes = 123456;
  const SwapBeginFrame begin_back = decode_swap_begin(encode_swap_begin(begin));
  EXPECT_EQ(begin_back.version, begin.version);
  EXPECT_EQ(begin_back.total_bytes, begin.total_bytes);

  SwapChunkFrame chunk;
  chunk.offset = 4096;
  chunk.bytes = std::string("\x00\x01\xff raw bundle bytes \x7f", 22);
  const SwapChunkFrame chunk_back = decode_swap_chunk(encode_swap_chunk(chunk));
  EXPECT_EQ(chunk_back.offset, chunk.offset);
  EXPECT_EQ(chunk_back.bytes, chunk.bytes);

  SwapCommitFrame commit;
  commit.crc32 = 0xdeadbeef;
  EXPECT_EQ(decode_swap_commit(encode_swap_commit(commit)).crc32,
            commit.crc32);

  SwapAckFrame ack;
  ack.ok = false;
  ack.active_version = "rf-cov-v1";
  ack.message = "bad magic";
  const SwapAckFrame ack_back = decode_swap_ack(encode_swap_ack(ack));
  EXPECT_EQ(ack_back.ok, ack.ok);
  EXPECT_EQ(ack_back.active_version, ack.active_version);
  EXPECT_EQ(ack_back.message, ack.message);

  SwapAbortFrame abort_frame;
  abort_frame.reason = "sibling shard refused";
  EXPECT_EQ(decode_swap_abort(encode_swap_abort(abort_frame)).reason,
            abort_frame.reason);
}

TEST(WireCodec, SmallFramesRoundTrip) {
  PingFrame ping;
  ping.nonce = 0xabcdef;
  EXPECT_EQ(decode_ping(encode_ping(ping)).nonce, ping.nonce);

  PongFrame pong;
  pong.nonce = 0xabcdef;
  pong.t_mono_ns = 123'456'789'000ULL;
  const PongFrame pong_back = decode_pong(encode_pong(pong));
  EXPECT_EQ(pong_back.nonce, pong.nonce);
  EXPECT_EQ(pong_back.t_mono_ns, pong.t_mono_ns);

  StatsReplyFrame stats;
  stats.submitted = 100;
  stats.answered = 90;
  stats.abstained = 5;
  stats.shed = 10;
  stats.swaps = 2;
  stats.model_version = "rf-cov-v1";
  const StatsReplyFrame stats_back =
      decode_stats_reply(encode_stats_reply(stats));
  EXPECT_EQ(stats_back.submitted, stats.submitted);
  EXPECT_EQ(stats_back.answered, stats.answered);
  EXPECT_EQ(stats_back.swaps, stats.swaps);
  EXPECT_EQ(stats_back.model_version, stats.model_version);

  ErrorFrame err;
  err.code = 400;
  err.message = "malformed frame";
  const ErrorFrame err_back = decode_error(encode_error(err));
  EXPECT_EQ(err_back.code, err.code);
  EXPECT_EQ(err_back.message, err.message);
}

TEST(WireCodec, MetricsReplyRoundTrip) {
  MetricsReplyFrame f;
  f.counters = {{"scwc_serve_submitted_total", 100},
                {"scwc_serve_shed_total", 3}};
  f.gauges = {{"scwc_serve_inflight", 7.0},
              {"scwc_idle_ratio", std::numeric_limits<double>::quiet_NaN()}};
  MetricsRollingEntry e;
  e.name = "scwc_serve_latency_seconds";
  e.count = 97;
  e.p50 = 0.001;
  e.p90 = 0.004;
  e.p99 = 0.009;
  f.rolling = {e};
  const MetricsReplyFrame back = decode_metrics_reply(encode_metrics_reply(f));
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].first, "scwc_serve_submitted_total");
  EXPECT_EQ(back.counters[0].second, 100u);
  ASSERT_EQ(back.gauges.size(), 2u);
  EXPECT_DOUBLE_EQ(back.gauges[0].second, 7.0);
  EXPECT_TRUE(std::isnan(back.gauges[1].second));  // NaN travels intact
  ASSERT_EQ(back.rolling.size(), 1u);
  EXPECT_EQ(back.rolling[0].name, e.name);
  EXPECT_EQ(back.rolling[0].count, e.count);
  EXPECT_DOUBLE_EQ(back.rolling[0].p99, e.p99);
}

TEST(WireCodec, MetricsReplyRejectsOverCapEntryCounts) {
  MetricsReplyFrame f;
  f.counters.assign(kMaxMetricsEntries + 1,
                    std::pair<std::string, std::uint64_t>{"c", 1});
  EXPECT_THROW((void)encode_metrics_reply(f), Error);
  // A hostile count in the bytes must throw before the decoder allocates.
  MetricsReplyFrame ok;
  ok.counters = {{"c", 1}};
  std::string payload = encode_metrics_reply(ok);
  const std::uint32_t huge =
      static_cast<std::uint32_t>(kMaxMetricsEntries) + 1;
  std::memcpy(payload.data(), &huge, sizeof(huge));
  EXPECT_THROW((void)decode_metrics_reply(payload), Error);
}

// ---------------------------------------------------- v1 ↔ v2 compatibility
//
// The contract: both versions stay decodable, and a v1 peer loses the v2
// fields (trace context, worker phases, pong timestamp) — it never causes
// a decode error. The header's version drives the codec, so mixing a
// payload with the wrong version IS an error (strict expect_end both ways).

TEST(WireCompat, V1SubmitCarriesNoTraceContext) {
  SubmitWindowFrame f;
  f.request_id = 9;
  f.steps = 1;
  f.sensors = 1;
  f.values = {1.0};
  f.trace_id = 0xdeadULL;  // set, but v1 has nowhere to put it
  f.trace_sampled = true;
  const std::string v1 = encode_submit_window(f, 1);
  const std::string v2 = encode_submit_window(f, 2);
  EXPECT_EQ(v2.size(), v1.size() + 9);  // u64 trace id + u8 sampled bit
  const SubmitWindowFrame back = decode_submit_window(v1, 1);
  EXPECT_EQ(back.request_id, f.request_id);
  EXPECT_EQ(back.values, f.values);
  EXPECT_EQ(back.trace_id, 0u);  // degraded to untraced, not an error
  EXPECT_FALSE(back.trace_sampled);
  // Version mismatch between header and codec is a typed error, both ways.
  EXPECT_THROW((void)decode_submit_window(v2, 1), Error);
  EXPECT_THROW((void)decode_submit_window(v1, 2), Error);
}

TEST(WireCompat, V1VerdictCarriesNoWorkerPhases) {
  VerdictFrame f;
  f.request_id = 4;
  f.accepted = true;
  f.label = 1;
  f.model_version = "v1";
  f.worker_queue_s = 0.5;  // set, but v1 has nowhere to put it
  f.worker_predict_s = 0.25;
  const std::string v1 = encode_verdict(f, 1);
  const VerdictFrame back = decode_verdict(v1, 1);
  EXPECT_EQ(back.request_id, f.request_id);
  EXPECT_EQ(back.model_version, f.model_version);
  EXPECT_DOUBLE_EQ(back.worker_queue_s, 0.0);  // phases degrade to zero
  EXPECT_DOUBLE_EQ(back.worker_transform_s, 0.0);
  EXPECT_DOUBLE_EQ(back.worker_predict_s, 0.0);
  EXPECT_THROW((void)decode_verdict(encode_verdict(f, 2), 1), Error);
  EXPECT_THROW((void)decode_verdict(v1, 2), Error);
}

TEST(WireCompat, V1PongCarriesNoTimestamp) {
  PongFrame f;
  f.nonce = 11;
  f.t_mono_ns = 999;
  const PongFrame back = decode_pong(encode_pong(f, 1), 1);
  EXPECT_EQ(back.nonce, f.nonce);
  EXPECT_EQ(back.t_mono_ns, 0u);  // no clock handshake on a v1 link
  EXPECT_THROW((void)decode_pong(encode_pong(f, 2), 1), Error);
}

TEST(WireCompat, FrameHeaderCarriesTheVersionThroughDecode) {
  // The frame layer is how a reader learns which codec variant to run:
  // the header version must survive into the decoded Frame for BOTH
  // supported versions, and the matching decode must then succeed.
  SubmitWindowFrame f;
  f.request_id = 1;
  f.steps = 1;
  f.sensors = 1;
  f.values = {2.0};
  f.trace_id = 77;
  f.trace_sampled = true;
  for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    const Frame frame = decode_frame(encode_frame(
        FrameType::kSubmitWindow, encode_submit_window(f, version), version));
    EXPECT_EQ(frame.version, version);
    const SubmitWindowFrame back =
        decode_submit_window(frame.payload, frame.version);
    EXPECT_EQ(back.trace_id, version >= 2 ? 77u : 0u);
  }
}

TEST(WireCompat, RejectsVersionsOutsideTheSupportedRange) {
  const std::string payload = encode_ping(PingFrame{1});
  EXPECT_THROW((void)encode_frame(FrameType::kPing, payload, 0), Error);
  EXPECT_THROW(
      (void)encode_frame(FrameType::kPing, payload,
                         static_cast<std::uint16_t>(kWireVersion + 1)),
      Error);
  EXPECT_THROW((void)decode_submit_window("", 0), Error);
  EXPECT_THROW((void)encode_submit_window(SubmitWindowFrame{}, 3), Error);
}

// -------------------------------------------------------- frame validation

TEST(WireCodec, FrameRoundTripAndCrc) {
  const std::string payload = encode_ping(PingFrame{77});
  const std::string bytes = encode_frame(FrameType::kPing, payload);
  ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());
  const Frame frame = decode_frame(bytes);
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decode_ping(frame.payload).nonce, 77u);
}

TEST(WireCodec, RejectsBadMagicVersionTypeReserved) {
  const std::string good =
      encode_frame(FrameType::kPing, encode_ping(PingFrame{1}));
  {
    std::string bad = good;
    bad[0] = static_cast<char>(bad[0] ^ 0xff);  // magic
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
  {
    std::string bad = good;
    bad[8] = static_cast<char>(bad[8] ^ 0xff);  // version
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
  {
    std::string bad = good;
    bad[10] = static_cast<char>(0xee);  // unknown type
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
  {
    std::string bad = good;
    bad[20] = 1;  // reserved word must be zero
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
  {
    std::string bad = good;
    bad[16] = static_cast<char>(bad[16] ^ 0x01);  // crc
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
}

TEST(WireCodec, RejectsOversizedPayloadLengthBeforeAllocating) {
  // Hand-build a header announcing a payload over the cap; the decoder must
  // throw from the header alone (a hostile peer cannot make us allocate).
  std::string header =
      encode_frame(FrameType::kPing, encode_ping(PingFrame{1}))
          .substr(0, kHeaderBytes);
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
  std::memcpy(header.data() + 12, &huge, sizeof(huge));
  EXPECT_THROW((void)decode_header(header), Error);
}

TEST(WireCodec, RejectsGeometryOverCaps) {
  SubmitWindowFrame f;
  f.steps = 8;
  f.sensors = 4;
  f.values.assign(32, 1.0);
  std::string payload = encode_submit_window(f);
  // steps*sensors beyond kMaxWindowValues must throw before the values are
  // even looked at. steps is the first u32 after the three u64s.
  const std::uint32_t huge_steps = 1u << 30;
  std::memcpy(payload.data() + 24, &huge_steps, sizeof(huge_steps));
  EXPECT_THROW((void)decode_submit_window(payload), Error);
}

TEST(WireCodec, NanWindowValuesTravelIntact) {
  // NaN is a legitimate wire value: missing telemetry samples travel as
  // NaN and the worker's quality-repair path (robust/) deals with them.
  // The decoder must pass the exact bit pattern through, not reject it.
  SubmitWindowFrame f;
  f.steps = 1;
  f.sensors = 2;
  f.values = {std::numeric_limits<double>::quiet_NaN(), 1.0};
  const SubmitWindowFrame back = decode_submit_window(encode_submit_window(f));
  ASSERT_EQ(back.values.size(), 2u);
  EXPECT_TRUE(std::isnan(back.values[0]));
  EXPECT_DOUBLE_EQ(back.values[1], 1.0);
}

TEST(WireCodec, RejectsTrailingBytes) {
  std::string payload = encode_ping(PingFrame{5});
  payload.push_back('\0');
  EXPECT_THROW((void)decode_ping(payload), Error);
}

TEST(WireCodec, FrameTypeNamesAreStable) {
  EXPECT_STREQ(frame_type_name(FrameType::kHello), "hello");
  EXPECT_STREQ(frame_type_name(FrameType::kSubmitWindow), "submit_window");
  EXPECT_STREQ(frame_type_name(FrameType::kSwapCommit), "swap_commit");
  EXPECT_STREQ(frame_type_name(FrameType::kError), "error");
}

// ----------------------------------------------------------- byte identity
//
// The codec's byte layout is a protocol contract with peers already in the
// field: a faster encoder must produce the very same bytes. The CRC is
// pinned by the standard check value and by a bitwise reference, and whole
// frames by FNV-1a fingerprints recorded from the byte-at-a-time codec.

using bytes_test::fnv1a64;

/// Bit-at-a-time CRC-32 (IEEE 802.3, reflected): no tables, no slicing.
std::uint32_t crc32_bitwise(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (const char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFU;
}

/// splitmix64 stream: deterministic bytes and double bit patterns that
/// cover NaN payloads, infinities, subnormals and negative zero.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// A full 60×7 serving window (3,360 value bytes) of mixed bit patterns.
SubmitWindowFrame fingerprint_submit() {
  SubmitWindowFrame f;
  f.request_id = 0x0123456789abcdefULL;
  f.job_id = -7;
  f.deadline_ns = 20'000'000;
  f.steps = 60;
  f.sensors = 7;
  SplitMix rng{11};
  f.values.resize(420);
  for (std::size_t i = 0; i < f.values.size(); ++i) {
    f.values[i] = i % 3 == 0 ? std::bit_cast<double>(rng.next())
                             : static_cast<double>(i) * 0.37 - 50.0;
  }
  f.values[1] = -0.0;
  f.values[2] = std::numeric_limits<double>::quiet_NaN();
  f.values[4] = std::numeric_limits<double>::infinity();
  f.values[5] = std::numeric_limits<double>::denorm_min();
  f.trace_id = 0xfeedfacecafebeefULL;
  f.trace_sampled = true;
  return f;
}

TEST(WireBytes, Crc32KnownAnswer) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(crc32(""), 0U);
  EXPECT_EQ(crc32(std::string_view("\0", 1)), 0xD202EF8DU);
}

TEST(WireBytes, Crc32MatchesBitwiseReferenceAtEveryLength) {
  SplitMix rng{5};
  std::string buf(4096 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.next() & 0xff);
  // Every length 0..4096 from an aligned start, plus odd start offsets so
  // the 8-byte stride meets every alignment and every tail length.
  for (std::size_t len = 0; len <= 4096; ++len) {
    const std::string_view s(buf.data(), len);
    ASSERT_EQ(crc32(s), crc32_bitwise(s)) << "length " << len;
  }
  for (std::size_t start = 1; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view s(buf.data() + start, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s))
          << "start " << start << " length " << len;
    }
  }
}

TEST(WireBytes, EncodedFramesMatchRecordedFingerprints) {
  const SubmitWindowFrame submit = fingerprint_submit();
  const std::string submit_v1 = encode_frame(
      FrameType::kSubmitWindow, encode_submit_window(submit, 1), 1);
  const std::string submit_v2 = encode_frame(
      FrameType::kSubmitWindow, encode_submit_window(submit, 2), 2);
  EXPECT_EQ(submit_v1.size(), kHeaderBytes + 36 + 8 * 420);
  EXPECT_EQ(submit_v2.size(), submit_v1.size() + 9);
  EXPECT_EQ(fnv1a64(submit_v1), 0x959749a54c83ad7bULL);
  EXPECT_EQ(fnv1a64(submit_v2), 0xf72c660cebe6509eULL);

  VerdictFrame verdict;
  verdict.request_id = 0x1122334455667788ULL;
  verdict.trace_id = 0xfeedULL;
  verdict.job_id = -3;
  verdict.accepted = true;
  verdict.reject_reason = 0;
  verdict.degrade_level = 1;
  verdict.abstained = true;
  verdict.abstain_reason = 2;
  verdict.label = -1;
  verdict.batch_size = 17;
  verdict.quality = 0.875;
  verdict.worker_latency_s = 1.25e-4;
  verdict.missing_values = 4;
  verdict.repaired_values = 3;
  verdict.model_version = "rf-cov-v2";
  verdict.worker_queue_s = 3.6e-5;
  verdict.worker_transform_s = 2.1e-6;
  verdict.worker_predict_s = 4.8e-6;
  EXPECT_EQ(fnv1a64(encode_frame(FrameType::kVerdict,
                                 encode_verdict(verdict, 1), 1)),
            0x408c506582fa3ed3ULL);
  EXPECT_EQ(fnv1a64(encode_frame(FrameType::kVerdict,
                                 encode_verdict(verdict, 2), 2)),
            0xace8827906b4bce3ULL);

  HelloFrame hello;
  hello.shard_id = 3;
  hello.window_steps = 60;
  hello.sensors = 7;
  hello.model_version = "rf-cov-v1";
  EXPECT_EQ(fnv1a64(encode_frame(FrameType::kHello, encode_hello(hello))),
            0xd89c32ca65dbe277ULL);
}

// ---------------------------------------------------------------- fuzzing

/// Every frame type with a representative payload, as full wire frames.
std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> frames;
  const auto add = [&](const char* name, FrameType type,
                       const std::string& payload) {
    frames.emplace_back(name, encode_frame(type, payload));
  };
  HelloFrame hello;
  hello.shard_id = 1;
  hello.window_steps = 60;
  hello.sensors = 7;
  hello.model_version = "rf-cov-v1";
  add("hello", FrameType::kHello, encode_hello(hello));

  SubmitWindowFrame submit;
  submit.request_id = 42;
  submit.job_id = 17;
  submit.deadline_ns = 50'000'000;
  submit.steps = 4;
  submit.sensors = 3;
  submit.values.assign(12, 1.25);
  add("submit_window", FrameType::kSubmitWindow,
      encode_submit_window(submit));

  TelemetryRowFrame row;
  row.job_id = 17;
  row.step = 3;
  row.values = {1.0, 2.0, 3.0};
  add("telemetry_row", FrameType::kTelemetryRow, encode_telemetry_row(row));

  VerdictFrame verdict;
  verdict.request_id = 42;
  verdict.accepted = true;
  verdict.label = 2;
  verdict.batch_size = 8;
  verdict.quality = 1.0;
  verdict.model_version = "rf-cov-v1";
  add("verdict", FrameType::kVerdict, encode_verdict(verdict));

  add("ping", FrameType::kPing, encode_ping(PingFrame{7}));
  add("pong", FrameType::kPong, encode_pong(PongFrame{7, 123456}));

  SwapBeginFrame begin;
  begin.version = "v2";
  begin.total_bytes = 1024;
  add("swap_begin", FrameType::kSwapBegin, encode_swap_begin(begin));

  SwapChunkFrame chunk;
  chunk.offset = 0;
  chunk.bytes = "bundle-bytes";
  add("swap_chunk", FrameType::kSwapChunk, encode_swap_chunk(chunk));

  add("swap_commit", FrameType::kSwapCommit,
      encode_swap_commit(SwapCommitFrame{0x1234}));

  SwapAckFrame ack;
  ack.ok = true;
  ack.active_version = "v2";
  add("swap_ack", FrameType::kSwapAck, encode_swap_ack(ack));

  add("swap_abort", FrameType::kSwapAbort,
      encode_swap_abort(SwapAbortFrame{"sibling refused"}));
  add("shutdown", FrameType::kShutdown, "");
  add("stats", FrameType::kStats, "");

  StatsReplyFrame stats;
  stats.submitted = 10;
  stats.model_version = "v1";
  add("stats_reply", FrameType::kStatsReply, encode_stats_reply(stats));

  add("error", FrameType::kError,
      encode_error(ErrorFrame{1, "decode failed"}));
  add("metrics_scrape", FrameType::kMetricsScrape, "");

  MetricsReplyFrame metrics;
  metrics.counters = {{"scwc_serve_submitted_total", 10}};
  metrics.gauges = {{"scwc_serve_inflight", 2.0}};
  MetricsRollingEntry rolling;
  rolling.name = "scwc_serve_latency_seconds";
  rolling.count = 9;
  rolling.p50 = 0.001;
  rolling.p90 = 0.002;
  rolling.p99 = 0.003;
  metrics.rolling = {rolling};
  add("metrics_reply", FrameType::kMetricsReply,
      encode_metrics_reply(metrics));

  // The same traffic on a v1 link: the fuzz promise (typed error or clean
  // decode, nothing else) holds for both protocol versions on the wire.
  SubmitWindowFrame v1_submit = submit;
  frames.emplace_back("submit_window_v1",
                      encode_frame(FrameType::kSubmitWindow,
                                   encode_submit_window(v1_submit, 1), 1));
  frames.emplace_back(
      "verdict_v1",
      encode_frame(FrameType::kVerdict, encode_verdict(verdict, 1), 1));
  frames.emplace_back(
      "pong_v1",
      encode_frame(FrameType::kPong, encode_pong(PongFrame{7, 0}, 1), 1));
  return frames;
}

/// Full decode: frame layer + the payload codec for the decoded type, at
/// the version the header carried (exactly what a real reader does). Any
/// input must either fully decode or throw scwc::Error — nothing else.
bool decode_fully(const std::string& bytes) {
  const Frame frame = decode_frame(bytes);
  switch (frame.type) {
    case FrameType::kHello:
      (void)decode_hello(frame.payload);
      break;
    case FrameType::kSubmitWindow:
      (void)decode_submit_window(frame.payload, frame.version);
      break;
    case FrameType::kTelemetryRow:
      (void)decode_telemetry_row(frame.payload);
      break;
    case FrameType::kVerdict:
      (void)decode_verdict(frame.payload, frame.version);
      break;
    case FrameType::kPing:
      (void)decode_ping(frame.payload);
      break;
    case FrameType::kPong:
      (void)decode_pong(frame.payload, frame.version);
      break;
    case FrameType::kSwapBegin:
      (void)decode_swap_begin(frame.payload);
      break;
    case FrameType::kSwapChunk:
      (void)decode_swap_chunk(frame.payload);
      break;
    case FrameType::kSwapCommit:
      (void)decode_swap_commit(frame.payload);
      break;
    case FrameType::kSwapAck:
      (void)decode_swap_ack(frame.payload);
      break;
    case FrameType::kSwapAbort:
      (void)decode_swap_abort(frame.payload);
      break;
    case FrameType::kShutdown:
    case FrameType::kStats:
      break;  // empty payloads; the frame layer already validated length
    case FrameType::kStatsReply:
      (void)decode_stats_reply(frame.payload);
      break;
    case FrameType::kError:
      (void)decode_error(frame.payload);
      break;
    case FrameType::kMetricsScrape:
      break;  // empty payload, like kStats
    case FrameType::kMetricsReply:
      (void)decode_metrics_reply(frame.payload);
      break;
  }
  return true;
}

TEST(WireFuzz, EveryByteFlipOfEveryFrameTypeIsTypedOrClean) {
  for (const auto& [name, bytes] : corpus()) {
    const bytes_test::FlipTally tally =
        bytes_test::fuzz_every_flip(bytes, decode_fully);
    // A flip can land in a don't-care position (e.g. a value byte that
    // still decodes to a finite double), but the CRC must catch the vast
    // majority; a frame where corruption is mostly accepted is broken.
    EXPECT_GT(tally.rejected, bytes.size() * 2)
        << name << ": only " << tally.rejected << " of " << tally.attempts
        << " corruptions rejected";
  }
}

TEST(WireFuzz, EveryTruncationThrows) {
  for (const auto& [name, bytes] : corpus()) {
    bytes_test::expect_every_truncation_throws(bytes, decode_fully, name);
  }
}

TEST(WireFuzz, GarbageBytesNeverCrash) {
  // Deterministic xorshift garbage, decoded at frame and payload level.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 256; ++round) {
    std::string garbage(static_cast<std::size_t>(next() % 512), '\0');
    for (char& c : garbage) c = static_cast<char>(next() & 0xff);
    EXPECT_THROW((void)decode_fully(garbage), Error) << "round " << round;
  }
}

}  // namespace
}  // namespace scwc::net
