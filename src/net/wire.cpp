#include "net/wire.hpp"

#include <cmath>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace scwc::net {

namespace {

constexpr const char* kDecodeContext = "wire decode";

bool known_frame_type(std::uint16_t t) noexcept {
  return t >= static_cast<std::uint16_t>(FrameType::kHello) &&
         t <= static_cast<std::uint16_t>(FrameType::kMetricsReply);
}

bool supported_version(std::uint16_t v) noexcept {
  return v >= kWireVersionMin && v <= kWireVersion;
}

}  // namespace

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kSubmitWindow: return "submit_window";
    case FrameType::kVerdict: return "verdict";
    case FrameType::kTelemetryRow: return "telemetry_row";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kSwapBegin: return "swap_begin";
    case FrameType::kSwapChunk: return "swap_chunk";
    case FrameType::kSwapCommit: return "swap_commit";
    case FrameType::kSwapAck: return "swap_ack";
    case FrameType::kSwapAbort: return "swap_abort";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kStats: return "stats";
    case FrameType::kStatsReply: return "stats_reply";
    case FrameType::kError: return "error";
    case FrameType::kMetricsScrape: return "metrics_scrape";
    case FrameType::kMetricsReply: return "metrics_reply";
  }
  return "?";
}

std::string encode_frame(FrameType type, std::string_view payload,
                         std::uint16_t version) {
  SCWC_REQUIRE(payload.size() <= kMaxPayloadBytes,
               "wire encode: payload exceeds kMaxPayloadBytes");
  SCWC_REQUIRE(supported_version(version),
               "wire encode: unsupported protocol version");
  ByteWriter w(kHeaderBytes + payload.size());
  w.u64(kWireMagic);
  w.u16(version);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  w.u32(0);  // reserved
  w.bytes(payload);
  return w.take();
}

FrameHeader decode_header(std::string_view header) {
  SCWC_REQUIRE(header.size() == kHeaderBytes,
               "wire decode: header must be exactly 24 bytes");
  ByteReader r(header, kDecodeContext);
  SCWC_REQUIRE(r.u64() == kWireMagic, "wire decode: bad magic");
  const std::uint16_t version = r.u16();
  SCWC_REQUIRE(supported_version(version),
               "wire decode: unsupported protocol version");
  const std::uint16_t type = r.u16();
  SCWC_REQUIRE(known_frame_type(type), "wire decode: unknown frame type");
  FrameHeader h;
  h.type = static_cast<FrameType>(type);
  h.version = version;
  h.payload_len = r.u32();
  SCWC_REQUIRE(h.payload_len <= kMaxPayloadBytes,
               "wire decode: payload length exceeds cap");
  h.payload_crc = r.u32();
  SCWC_REQUIRE(r.u32() == 0, "wire decode: nonzero reserved word");
  return h;
}

Frame assemble_frame(const FrameHeader& header, std::string payload) {
  SCWC_REQUIRE(payload.size() == header.payload_len,
               "wire decode: payload length mismatch");
  SCWC_REQUIRE(crc32(payload) == header.payload_crc,
               "wire decode: payload CRC mismatch");
  return Frame{header.type, header.version, std::move(payload)};
}

Frame decode_frame(std::string_view bytes) {
  SCWC_REQUIRE(bytes.size() >= kHeaderBytes, "wire decode: truncated header");
  const FrameHeader h = decode_header(bytes.substr(0, kHeaderBytes));
  SCWC_REQUIRE(bytes.size() == kHeaderBytes + h.payload_len,
               "wire decode: frame length mismatch");
  return assemble_frame(h, std::string(bytes.substr(kHeaderBytes)));
}

// --------------------------------------------------------------- per-type

std::string encode_hello(const HelloFrame& f) {
  ByteWriter w;
  w.u32(f.shard_id);
  w.u32(f.window_steps);
  w.u32(f.sensors);
  w.string(f.model_version, kMaxStringBytes);
  return w.take();
}

HelloFrame decode_hello(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  HelloFrame f;
  f.shard_id = r.u32();
  f.window_steps = r.u32();
  f.sensors = r.u32();
  SCWC_REQUIRE(f.window_steps <= kMaxWindowValues && f.sensors <= kMaxSensors,
               "wire decode: hello geometry exceeds caps");
  f.model_version = r.string(kMaxStringBytes);
  r.expect_end();
  return f;
}

std::string encode_submit_window(const SubmitWindowFrame& f,
                                 std::uint16_t version) {
  SCWC_REQUIRE(supported_version(version),
               "wire encode: unsupported protocol version");
  SCWC_REQUIRE(f.values.size() <= kMaxWindowValues,
               "wire encode: window exceeds kMaxWindowValues");
  // request, job, deadline, steps, sensors, value count, values, v2 trace.
  ByteWriter w(8 + 8 + 8 + 4 + 4 + 4 + f.values.size() * sizeof(double) + 8 + 1);
  w.u64(f.request_id);
  w.i64(f.job_id);
  w.u64(f.deadline_ns);
  w.u32(f.steps);
  w.u32(f.sensors);
  w.f64_array(f.values);
  if (version >= 2) {
    w.u64(f.trace_id);
    w.u8(f.trace_sampled ? 1 : 0);
  }
  return w.take();
}

SubmitWindowFrame decode_submit_window(std::string_view payload,
                                       std::uint16_t version) {
  SCWC_REQUIRE(supported_version(version),
               "wire decode: unsupported protocol version");
  ByteReader r(payload, kDecodeContext);
  SubmitWindowFrame f;
  f.request_id = r.u64();
  f.job_id = r.i64();
  f.deadline_ns = r.u64();
  f.steps = r.u32();
  f.sensors = r.u32();
  SCWC_REQUIRE(f.sensors <= kMaxSensors,
               "wire decode: sensor count exceeds cap");
  SCWC_REQUIRE(static_cast<std::uint64_t>(f.steps) * f.sensors <=
                   kMaxWindowValues,
               "wire decode: window geometry exceeds cap");
  f.values = r.f64_array(kMaxWindowValues);
  SCWC_REQUIRE(f.values.size() ==
                   static_cast<std::size_t>(f.steps) * f.sensors,
               "wire decode: window value count != steps*sensors");
  if (version >= 2) {
    f.trace_id = r.u64();
    const std::uint8_t sampled = r.u8();
    SCWC_REQUIRE(sampled <= 1, "wire decode: trace sampled not boolean");
    f.trace_sampled = sampled != 0;
  }
  r.expect_end();
  return f;
}

std::string encode_telemetry_row(const TelemetryRowFrame& f) {
  SCWC_REQUIRE(f.values.size() <= kMaxSensors,
               "wire encode: row exceeds kMaxSensors");
  ByteWriter w;
  w.i64(f.job_id);
  w.u64(f.step);
  w.f64_array(f.values);
  return w.take();
}

TelemetryRowFrame decode_telemetry_row(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  TelemetryRowFrame f;
  f.job_id = r.i64();
  f.step = r.u64();
  f.values = r.f64_array(kMaxSensors);
  r.expect_end();
  return f;
}

std::string encode_verdict(const VerdictFrame& f, std::uint16_t version) {
  SCWC_REQUIRE(supported_version(version),
               "wire encode: unsupported protocol version");
  // Ids, five flag bytes, label + batch, two doubles, two counts, the
  // length-prefixed version string and the v2 worker phases.
  ByteWriter w(3 * 8 + 5 + 2 * 4 + 2 * 8 + 2 * 4 + 4 + f.model_version.size() +
           3 * 8);
  w.u64(f.request_id);
  w.u64(f.trace_id);
  w.i64(f.job_id);
  w.u8(f.accepted ? 1 : 0);
  w.u8(f.reject_reason);
  w.u8(f.degrade_level);
  w.u8(f.abstained ? 1 : 0);
  w.u8(f.abstain_reason);
  w.i32(f.label);
  w.u32(f.batch_size);
  w.f64(f.quality);
  w.f64(f.worker_latency_s);
  w.u32(f.missing_values);
  w.u32(f.repaired_values);
  w.string(f.model_version, kMaxStringBytes);
  if (version >= 2) {
    w.f64(f.worker_queue_s);
    w.f64(f.worker_transform_s);
    w.f64(f.worker_predict_s);
  }
  return w.take();
}

VerdictFrame decode_verdict(std::string_view payload, std::uint16_t version) {
  SCWC_REQUIRE(supported_version(version),
               "wire decode: unsupported protocol version");
  ByteReader r(payload, kDecodeContext);
  VerdictFrame f;
  f.request_id = r.u64();
  f.trace_id = r.u64();
  f.job_id = r.i64();
  const std::uint8_t accepted = r.u8();
  SCWC_REQUIRE(accepted <= 1, "wire decode: verdict accepted not boolean");
  f.accepted = accepted != 0;
  f.reject_reason = r.u8();
  SCWC_REQUIRE(f.reject_reason <= 7, "wire decode: unknown reject reason");
  f.degrade_level = r.u8();
  SCWC_REQUIRE(f.degrade_level <= 2, "wire decode: unknown degrade level");
  const std::uint8_t abstained = r.u8();
  SCWC_REQUIRE(abstained <= 1, "wire decode: verdict abstained not boolean");
  f.abstained = abstained != 0;
  f.abstain_reason = r.u8();
  SCWC_REQUIRE(f.abstain_reason <= 4, "wire decode: unknown abstain reason");
  f.label = r.i32();
  f.batch_size = r.u32();
  f.quality = r.f64();
  SCWC_REQUIRE(std::isfinite(f.quality) && f.quality >= 0.0 &&
                   f.quality <= 1.0,
               "wire decode: verdict quality out of [0,1]");
  f.worker_latency_s = r.f64();
  SCWC_REQUIRE(std::isfinite(f.worker_latency_s) && f.worker_latency_s >= 0.0,
               "wire decode: negative/non-finite worker latency");
  f.missing_values = r.u32();
  f.repaired_values = r.u32();
  f.model_version = r.string(kMaxStringBytes);
  if (version >= 2) {
    f.worker_queue_s = r.f64();
    f.worker_transform_s = r.f64();
    f.worker_predict_s = r.f64();
    SCWC_REQUIRE(std::isfinite(f.worker_queue_s) && f.worker_queue_s >= 0.0 &&
                     std::isfinite(f.worker_transform_s) &&
                     f.worker_transform_s >= 0.0 &&
                     std::isfinite(f.worker_predict_s) &&
                     f.worker_predict_s >= 0.0,
                 "wire decode: negative/non-finite worker phase");
  }
  r.expect_end();
  return f;
}

std::string encode_ping(const PingFrame& f) {
  ByteWriter w;
  w.u64(f.nonce);
  return w.take();
}

PingFrame decode_ping(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  PingFrame f;
  f.nonce = r.u64();
  r.expect_end();
  return f;
}

std::string encode_pong(const PongFrame& f, std::uint16_t version) {
  SCWC_REQUIRE(supported_version(version),
               "wire encode: unsupported protocol version");
  ByteWriter w;
  w.u64(f.nonce);
  if (version >= 2) w.u64(f.t_mono_ns);
  return w.take();
}

PongFrame decode_pong(std::string_view payload, std::uint16_t version) {
  SCWC_REQUIRE(supported_version(version),
               "wire decode: unsupported protocol version");
  ByteReader r(payload, kDecodeContext);
  PongFrame f;
  f.nonce = r.u64();
  if (version >= 2) f.t_mono_ns = r.u64();
  r.expect_end();
  return f;
}

std::string encode_swap_begin(const SwapBeginFrame& f) {
  SCWC_REQUIRE(f.total_bytes <= kMaxSwapBytes,
               "wire encode: bundle exceeds kMaxSwapBytes");
  ByteWriter w;
  w.string(f.version, kMaxStringBytes);
  w.u64(f.total_bytes);
  return w.take();
}

SwapBeginFrame decode_swap_begin(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  SwapBeginFrame f;
  f.version = r.string(kMaxStringBytes);
  f.total_bytes = r.u64();
  SCWC_REQUIRE(f.total_bytes <= kMaxSwapBytes,
               "wire decode: bundle size exceeds cap");
  r.expect_end();
  return f;
}

std::string encode_swap_chunk(const SwapChunkFrame& f) {
  SCWC_REQUIRE(f.bytes.size() <= kMaxSwapChunkBytes,
               "wire encode: swap chunk exceeds cap");
  ByteWriter w;
  w.u64(f.offset);
  w.u32(static_cast<std::uint32_t>(f.bytes.size()));
  w.bytes(f.bytes);
  return w.take();
}

SwapChunkFrame decode_swap_chunk(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  SwapChunkFrame f;
  f.offset = r.u64();
  const std::uint32_t n = r.u32();
  SCWC_REQUIRE(n <= kMaxSwapChunkBytes, "wire decode: swap chunk exceeds cap");
  SCWC_REQUIRE(f.offset <= kMaxSwapBytes - n,
               "wire decode: swap chunk offset exceeds cap");
  f.bytes = r.bytes(n);
  r.expect_end();
  return f;
}

std::string encode_swap_commit(const SwapCommitFrame& f) {
  ByteWriter w;
  w.u32(f.crc32);
  return w.take();
}

SwapCommitFrame decode_swap_commit(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  SwapCommitFrame f;
  f.crc32 = r.u32();
  r.expect_end();
  return f;
}

std::string encode_swap_ack(const SwapAckFrame& f) {
  ByteWriter w;
  w.u8(f.ok ? 1 : 0);
  w.string(f.active_version, kMaxStringBytes);
  w.string(f.message, kMaxStringBytes);
  return w.take();
}

SwapAckFrame decode_swap_ack(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  SwapAckFrame f;
  const std::uint8_t ok = r.u8();
  SCWC_REQUIRE(ok <= 1, "wire decode: swap ack ok not boolean");
  f.ok = ok != 0;
  f.active_version = r.string(kMaxStringBytes);
  f.message = r.string(kMaxStringBytes);
  r.expect_end();
  return f;
}

std::string encode_swap_abort(const SwapAbortFrame& f) {
  ByteWriter w;
  w.string(f.reason, kMaxStringBytes);
  return w.take();
}

SwapAbortFrame decode_swap_abort(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  SwapAbortFrame f;
  f.reason = r.string(kMaxStringBytes);
  r.expect_end();
  return f;
}

std::string encode_stats_reply(const StatsReplyFrame& f) {
  ByteWriter w;
  w.u64(f.submitted);
  w.u64(f.answered);
  w.u64(f.abstained);
  w.u64(f.shed);
  w.u64(f.swaps);
  w.string(f.model_version, kMaxStringBytes);
  return w.take();
}

StatsReplyFrame decode_stats_reply(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  StatsReplyFrame f;
  f.submitted = r.u64();
  f.answered = r.u64();
  f.abstained = r.u64();
  f.shed = r.u64();
  f.swaps = r.u64();
  f.model_version = r.string(kMaxStringBytes);
  r.expect_end();
  return f;
}

std::string encode_error(const ErrorFrame& f) {
  ByteWriter w;
  w.u16(f.code);
  w.string(f.message, kMaxStringBytes);
  return w.take();
}

ErrorFrame decode_error(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  ErrorFrame f;
  f.code = r.u16();
  f.message = r.string(kMaxStringBytes);
  r.expect_end();
  return f;
}

std::string encode_metrics_reply(const MetricsReplyFrame& f) {
  SCWC_REQUIRE(f.counters.size() <= kMaxMetricsEntries &&
                   f.gauges.size() <= kMaxMetricsEntries &&
                   f.rolling.size() <= kMaxMetricsEntries,
               "wire encode: metrics reply exceeds kMaxMetricsEntries");
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(f.counters.size()));
  for (const auto& [name, value] : f.counters) {
    w.string(name, kMaxStringBytes);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(f.gauges.size()));
  for (const auto& [name, value] : f.gauges) {
    w.string(name, kMaxStringBytes);
    w.f64(value);
  }
  w.u32(static_cast<std::uint32_t>(f.rolling.size()));
  for (const MetricsRollingEntry& e : f.rolling) {
    w.string(e.name, kMaxStringBytes);
    w.u64(e.count);
    w.f64(e.p50);
    w.f64(e.p90);
    w.f64(e.p99);
  }
  return w.take();
}

MetricsReplyFrame decode_metrics_reply(std::string_view payload) {
  ByteReader r(payload, kDecodeContext);
  MetricsReplyFrame f;
  const std::uint32_t n_counters = r.u32();
  SCWC_REQUIRE(n_counters <= kMaxMetricsEntries,
               "wire decode: metrics counters exceed cap");
  f.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    std::string name = r.string(kMaxStringBytes);
    const std::uint64_t value = r.u64();
    f.counters.emplace_back(std::move(name), value);
  }
  const std::uint32_t n_gauges = r.u32();
  SCWC_REQUIRE(n_gauges <= kMaxMetricsEntries,
               "wire decode: metrics gauges exceed cap");
  f.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    std::string name = r.string(kMaxStringBytes);
    const double value = r.f64();  // NaN travels intact, like windows
    f.gauges.emplace_back(std::move(name), value);
  }
  const std::uint32_t n_rolling = r.u32();
  SCWC_REQUIRE(n_rolling <= kMaxMetricsEntries,
               "wire decode: metrics rolling entries exceed cap");
  f.rolling.reserve(n_rolling);
  for (std::uint32_t i = 0; i < n_rolling; ++i) {
    MetricsRollingEntry e;
    e.name = r.string(kMaxStringBytes);
    e.count = r.u64();
    e.p50 = r.f64();
    e.p90 = r.f64();
    e.p99 = r.f64();
    SCWC_REQUIRE(std::isfinite(e.p50) && e.p50 >= 0.0 &&
                     std::isfinite(e.p90) && e.p90 >= 0.0 &&
                     std::isfinite(e.p99) && e.p99 >= 0.0,
                 "wire decode: negative/non-finite rolling quantile");
    f.rolling.push_back(std::move(e));
  }
  r.expect_end();
  return f;
}

}  // namespace scwc::net
