// SCWCWIRE v2 — the compact binary wire format of the sharded serving
// cluster (DESIGN.md §13).
//
// Every message on a router↔worker connection is one length-prefixed frame:
//
//   offset  size  field
//   0       8     magic   "SCWCWIRE" (0x5343574357495245, big-endian bytes,
//                         stored little-endian like every other integer)
//   8       2     version (1 or 2; see below)
//   10      2     type    (FrameType)
//   12      4     payload_len  (≤ kMaxPayloadBytes)
//   16      4     crc32   (IEEE 802.3 polynomial, over the payload bytes)
//   20      4     reserved (must be 0)
//   24      n     payload (per-type encoding, all integers/doubles LE)
//
// Versioning: v2 appends a trace context (trace id + sampling bit) to
// submit frames, a worker phase breakdown to verdicts, a monotonic
// timestamp to pongs (clock-offset handshake) and adds the metrics
// scrape/reply frame pair. Both versions stay decodable: the header
// carries the version and the per-type codecs take it as a parameter, so
// a v1 peer degrades to untraced operation, never to a decode error.
//
// Encoding and decoding go through the shared byte codec and CRC-32
// (common/bytes.hpp): every violated bound, bad enum, wrong magic or CRC
// mismatch throws a typed scwc::Error (never crashes, never allocates
// unbounded memory — all lengths are capped BEFORE allocation, which the
// wire fuzz test proves byte by byte). Strings and value arrays are
// u32-length-prefixed with hard caps; doubles travel as IEEE-754 bit
// patterns.
//
// The codec layer here is pure (bytes in, structs out) and std-only; the
// socket I/O lives in net/socket.* so the two concerns stay separately
// testable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace scwc::net {

inline constexpr std::uint64_t kWireMagic = 0x5343574357495245ULL;  // SCWCWIRE
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::uint16_t kWireVersionMin = 1;
inline constexpr std::size_t kHeaderBytes = 24;

// Caps: what a corrupted or hostile peer can make the decoder allocate
// before a typed error fires. Dimensions match the serving geometry caps.
inline constexpr std::size_t kMaxPayloadBytes = 1ULL << 26;  // 64 MiB
inline constexpr std::size_t kMaxStringBytes = 1ULL << 12;
inline constexpr std::size_t kMaxSensors = 1ULL << 12;
inline constexpr std::size_t kMaxWindowValues = 1ULL << 22;
inline constexpr std::size_t kMaxSwapBytes = 1ULL << 28;  // 256 MiB bundle
inline constexpr std::size_t kMaxSwapChunkBytes = 1ULL << 20;
inline constexpr std::size_t kMaxMetricsEntries = 1ULL << 12;

/// Every message kind of SCWCWIRE. Values are wire-stable: new types
/// append, nothing renumbers.
enum class FrameType : std::uint16_t {
  kHello = 1,         ///< worker → router, once per connection
  kSubmitWindow = 2,  ///< router → worker: one complete window
  kVerdict = 3,       ///< worker → router: the serve result
  kTelemetryRow = 4,  ///< router → worker: one streaming sample row
  kPing = 5,          ///< either direction; echoed as kPong
  kPong = 6,
  kSwapBegin = 7,     ///< router → worker: bundle push starts
  kSwapChunk = 8,     ///< router → worker: bundle bytes
  kSwapCommit = 9,    ///< router → worker: verify + activate
  kSwapAck = 10,      ///< worker → router: swap / abort outcome
  kSwapAbort = 11,    ///< router → worker: roll back the last swap
  kShutdown = 12,     ///< router → worker: drain and exit
  kStats = 13,        ///< router → worker: stats request
  kStatsReply = 14,   ///< worker → router
  kError = 15,        ///< either direction: decode/protocol failure report
  kMetricsScrape = 16,  ///< router → worker: full metrics snapshot request (v2)
  kMetricsReply = 17,   ///< worker → router: condensed MetricsSnapshot (v2)
};

/// Stable lower-case name for logs ("hello", "submit_window", ...).
[[nodiscard]] const char* frame_type_name(FrameType type) noexcept;

/// One decoded frame: its type, the protocol version its header carried
/// (pass it to the matching decode_* so version-gated fields parse right)
/// and the raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::uint16_t version = kWireVersion;
  std::string payload;
};

// ---------------------------------------------------------------- payloads

/// Worker self-identification, sent once when a connection opens.
struct HelloFrame {
  std::uint32_t shard_id = 0;
  std::uint32_t window_steps = 0;
  std::uint32_t sensors = 0;
  std::string model_version;  ///< active bundle, "" when none
};

/// One complete steps×sensors window for classification.
struct SubmitWindowFrame {
  std::uint64_t request_id = 0;  ///< router-chosen; echoed in the verdict
  std::int64_t job_id = 0;
  std::uint64_t deadline_ns = 0;  ///< relative budget; 0 = no deadline
  std::uint32_t steps = 0;
  std::uint32_t sensors = 0;
  std::vector<double> values;  ///< row-major steps×sensors
  // v2 trace context: the router-issued RequestTracer id the worker adopts
  // so its RequestPhases land under the same trace. 0 = untraced (v1 peer).
  std::uint64_t trace_id = 0;
  bool trace_sampled = false;
};

/// One streaming telemetry sample row (feeds the worker-side assembler).
struct TelemetryRowFrame {
  std::int64_t job_id = 0;
  std::uint64_t step = 0;
  std::vector<double> values;  ///< one sample per sensor
};

/// The serve result for one window, mirroring serve::ServeResult closely
/// enough for the router to rebuild it (quality evidence included).
struct VerdictFrame {
  std::uint64_t request_id = 0;  ///< 0 high bit set → stream-driven window
  std::uint64_t trace_id = 0;    ///< worker-side request trace id
  std::int64_t job_id = 0;
  bool accepted = false;
  std::uint8_t reject_reason = 0;  ///< serve::RejectReason
  std::uint8_t degrade_level = 0;
  bool abstained = false;
  std::uint8_t abstain_reason = 0;  ///< robust::AbstainReason
  std::int32_t label = -1;
  std::uint32_t batch_size = 0;
  double quality = 0.0;
  double worker_latency_s = 0.0;  ///< submit → verdict inside the worker
  std::uint32_t missing_values = 0;
  std::uint32_t repaired_values = 0;
  std::string model_version;
  // v2 worker phase breakdown (seconds; all 0 from a v1 peer): queue =
  // admission + queue + batch_wait inside the worker's service.
  double worker_queue_s = 0.0;
  double worker_transform_s = 0.0;
  double worker_predict_s = 0.0;
};

struct PingFrame {
  std::uint64_t nonce = 0;
};

/// v2 pong carries the responder's monotonic clock (steady ns since its
/// process start) for the NTP-style clock-offset handshake; a v1 pong is
/// just the echoed nonce (t_mono_ns stays 0).
struct PongFrame {
  std::uint64_t nonce = 0;
  std::uint64_t t_mono_ns = 0;
};

/// Announces a bundle push of `total_bytes` for `version`.
struct SwapBeginFrame {
  std::string version;
  std::uint64_t total_bytes = 0;
};

/// One contiguous slice of the bundle stream.
struct SwapChunkFrame {
  std::uint64_t offset = 0;
  std::string bytes;
};

/// Ends the push: the worker verifies the CRC over the assembled bytes,
/// loads the bundle and hot-swaps its registry (or refuses, untouched).
struct SwapCommitFrame {
  std::uint32_t crc32 = 0;
};

/// Outcome of a swap commit or abort on one shard.
struct SwapAckFrame {
  bool ok = false;
  std::string active_version;  ///< what the shard serves after the op
  std::string message;         ///< failure detail, "" on success
};

struct SwapAbortFrame {
  std::string reason;
};

/// Worker-side serving counters, for /vars-style cluster introspection.
struct StatsReplyFrame {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t abstained = 0;
  std::uint64_t shed = 0;
  std::uint64_t swaps = 0;
  std::string model_version;
};

struct ErrorFrame {
  std::uint16_t code = 0;
  std::string message;
};

/// One rolling-histogram summary inside a metrics reply: quantiles only —
/// the router re-exports them as labeled gauges, not full buckets.
struct MetricsRollingEntry {
  std::string name;
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Condensed obs::MetricsSnapshot pulled over the wire (v2): counters and
/// gauges verbatim, rolling histograms as quantile summaries. Each list is
/// capped at kMaxMetricsEntries; names obey kMaxStringBytes. Gauge values
/// travel as raw IEEE-754 bits (NaN intact); rolling quantiles must be
/// finite and ≥ 0.
struct MetricsReplyFrame {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<MetricsRollingEntry> rolling;
};

// ------------------------------------------------------------------ codec

/// Frames `payload` under `type`: header (magic, version, type, length,
/// CRC) + payload. Throws scwc::Error when payload exceeds the cap or the
/// version is outside [kWireVersionMin, kWireVersion].
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload,
                                       std::uint16_t version = kWireVersion);

/// Validated header of a frame still awaiting its payload bytes.
struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint16_t version = kWireVersion;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// Decodes and validates the 24-byte header: magic, supported version
/// (v1 and v2 both accepted — the version lands in the result), known
/// type, capped length, zero reserved word. Throws scwc::Error on any
/// violation.
[[nodiscard]] FrameHeader decode_header(std::string_view header);

/// Validates `payload` against `header` (length + CRC) and returns the
/// assembled frame. Throws scwc::Error on mismatch.
[[nodiscard]] Frame assemble_frame(const FrameHeader& header,
                                   std::string payload);

/// Decodes a whole in-memory frame (header + payload) — the test/fuzz
/// entry point; socket I/O uses decode_header/assemble_frame separately.
[[nodiscard]] Frame decode_frame(std::string_view bytes);

// Per-type payload codecs. Every decode_* throws scwc::Error on trailing
// bytes, truncation, out-of-cap lengths, bad enums or non-finite counts —
// and is total: any byte string either decodes or throws. Codecs whose
// layout differs between protocol versions take the peer's negotiated
// version; encode emits exactly the fields that version defines and decode
// reads exactly those (expect_end stays strict under both).
[[nodiscard]] std::string encode_hello(const HelloFrame& f);
[[nodiscard]] HelloFrame decode_hello(std::string_view payload);

[[nodiscard]] std::string encode_submit_window(
    const SubmitWindowFrame& f, std::uint16_t version = kWireVersion);
[[nodiscard]] SubmitWindowFrame decode_submit_window(
    std::string_view payload, std::uint16_t version = kWireVersion);

[[nodiscard]] std::string encode_telemetry_row(const TelemetryRowFrame& f);
[[nodiscard]] TelemetryRowFrame decode_telemetry_row(std::string_view payload);

[[nodiscard]] std::string encode_verdict(const VerdictFrame& f,
                                         std::uint16_t version = kWireVersion);
[[nodiscard]] VerdictFrame decode_verdict(std::string_view payload,
                                          std::uint16_t version = kWireVersion);

[[nodiscard]] std::string encode_ping(const PingFrame& f);
[[nodiscard]] PingFrame decode_ping(std::string_view payload);

[[nodiscard]] std::string encode_pong(const PongFrame& f,
                                      std::uint16_t version = kWireVersion);
[[nodiscard]] PongFrame decode_pong(std::string_view payload,
                                    std::uint16_t version = kWireVersion);

[[nodiscard]] std::string encode_swap_begin(const SwapBeginFrame& f);
[[nodiscard]] SwapBeginFrame decode_swap_begin(std::string_view payload);

[[nodiscard]] std::string encode_swap_chunk(const SwapChunkFrame& f);
[[nodiscard]] SwapChunkFrame decode_swap_chunk(std::string_view payload);

[[nodiscard]] std::string encode_swap_commit(const SwapCommitFrame& f);
[[nodiscard]] SwapCommitFrame decode_swap_commit(std::string_view payload);

[[nodiscard]] std::string encode_swap_ack(const SwapAckFrame& f);
[[nodiscard]] SwapAckFrame decode_swap_ack(std::string_view payload);

[[nodiscard]] std::string encode_swap_abort(const SwapAbortFrame& f);
[[nodiscard]] SwapAbortFrame decode_swap_abort(std::string_view payload);

[[nodiscard]] std::string encode_stats_reply(const StatsReplyFrame& f);
[[nodiscard]] StatsReplyFrame decode_stats_reply(std::string_view payload);

[[nodiscard]] std::string encode_error(const ErrorFrame& f);
[[nodiscard]] ErrorFrame decode_error(std::string_view payload);

[[nodiscard]] std::string encode_metrics_reply(const MetricsReplyFrame& f);
[[nodiscard]] MetricsReplyFrame decode_metrics_reply(std::string_view payload);

}  // namespace scwc::net
