// Verdict audit log: one JSONL record per serve verdict (schema
// scwc.audit/v1).
//
// The serving loop answers, abstains or sheds thousands of requests per
// second; when an operator later asks "why did job 17's windows abstain
// at 14:02", rerunning is not an answer. The AuditLogger appends exactly
// one JSON line per verdict — trace id, job id, bundle version, abstain
// or shed reason, quality evidence, the per-phase latency breakdown and
// the deadline slack — so post-hoc analysis is a grep away.
//
// Schema (scwc.audit/v1) — every line is one object:
//   schema            "scwc.audit/v1"
//   trace_id          number ≥ 1, the request's trace id
//   job_id            number, -1 when the caller supplied none
//   event             "answer" | "abstain" | "shed"
//   model_version     string; "" for sheds (no bundle consulted)
//   label             number; the answered/fallback label, -1 = none
//   degrade_level     0 | 1 | 2 (fallback-chain rung)
//   batch_size        number ≥ 0 (0 for sheds before batching)
//   abstain_reason    string, present iff event == "abstain"
//   reject_reason     string, present iff event == "shed"
//   quality           number in [0, 1], present iff accepted
//   missing_values    number ≥ 0, present iff accepted
//   repaired_values   number ≥ 0, present iff accepted
//   phases            object {admission_s, queue_s, batch_wait_s,
//                     transform_s, predict_s, total_s}, all numbers ≥ 0;
//                     router-side records add route_s, wire_send_s and
//                     wire_recv_s (optional in the schema, numbers ≥ 0)
//   deadline_slack_s  number, present iff the request had a deadline
//                     (positive = answered with room to spare)
//   shard_id          number ≥ 0, present iff a ShardRouter wrote the
//                     record (which shard served the request)
//
// Writes are mutex-serialised; the logger is shared by the batch
// executor threads. Durability favours throughput: lines are flushed on
// destruction/flush(), not per record.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

#include "obs/json.hpp"
#include "obs/request_trace.hpp"
#include "serve/serve_types.hpp"

namespace scwc::serve {

inline constexpr const char* kAuditSchema = "scwc.audit/v1";

/// One verdict, ready for serialisation.
struct AuditRecord {
  std::uint64_t trace_id = 0;
  std::int64_t job_id = -1;
  std::string event;          ///< "answer" | "abstain" | "shed"
  std::string model_version;  ///< "" for sheds
  int label = -1;
  int degrade_level = 0;
  std::size_t batch_size = 0;
  std::string abstain_reason;  ///< abstains only
  std::string reject_reason;   ///< sheds only
  double quality = 0.0;        ///< accepted only
  std::size_t missing_values = 0;
  std::size_t repaired_values = 0;
  obs::RequestPhases phases;
  std::optional<double> deadline_slack_s;  ///< set iff a deadline existed
  std::optional<std::uint32_t> shard_id;   ///< set iff routed over SCWCWIRE
};

/// Serialises one record (without trailing newline).
[[nodiscard]] obs::Json audit_record_to_json(const AuditRecord& record);

/// Validates one parsed line against scwc.audit/v1. Returns "" when the
/// record conforms, else a one-line description of the first violation.
[[nodiscard]] std::string validate_audit_record_json(const obs::Json& record);

/// Append-only JSONL writer. Thread-safe; never throws after
/// construction (write errors latch into ok()).
class AuditLogger {
 public:
  /// Opens `path` for appending; throws std::runtime_error on failure.
  explicit AuditLogger(const std::string& path);

  void log(const AuditRecord& record);

  void flush();
  [[nodiscard]] std::uint64_t records_written() const;
  /// False once any write failed (disk full, closed fd, …).
  [[nodiscard]] bool ok() const;

 private:
  mutable Mutex mutex_{"serve.audit"};
  std::ofstream out_ SCWC_GUARDED_BY(mutex_);
  std::uint64_t written_ SCWC_GUARDED_BY(mutex_) = 0;
  bool ok_ SCWC_GUARDED_BY(mutex_) = true;
};

/// Who asked, and when, for one finished request.
struct VerdictOrigin {
  std::uint64_t trace_id = 0;
  bool sampled = false;  ///< the request trace is kept
  std::int64_t job_id = -1;
  obs::RequestTracer::Clock::time_point started;
  std::optional<double> deadline_slack_s;  ///< set iff a deadline existed
  std::optional<std::uint32_t> shard_id;   ///< set iff routed over SCWCWIRE
};

/// The one verdict tap of ClassificationService and ShardRouter: keeps the
/// request trace in `tracer` when `origin.sampled`, and logs the audit
/// record to `audit` when it is non-null (neither: no work). Both records
/// take outcome, phases (router-side ones include the wire phases), model
/// version and quality evidence from `result`.
void record_verdict(const VerdictOrigin& origin, const ServeResult& result,
                    obs::RequestTracer& tracer, AuditLogger* audit);

}  // namespace scwc::serve
