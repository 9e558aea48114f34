// Input and load-generation rules of the serving benchmark: the open-loop
// arrival schedule, the seeded fault pattern, the percentile rule and the
// failure accounting. Kept free of any clock or service so tests can pin
// each rule down exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "robust/fault.hpp"
#include "serve/serve_types.hpp"
#include "telemetry/gpu_synth.hpp"

namespace perfbench {

/// Due times (seconds from phase start, ascending) of a Poisson arrival
/// process at `rate_per_s` over [0, seconds). The same seed always gives
/// the same schedule.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   double seconds);

/// Corrupts one job's telemetry with the dropout bursts and per-sensor NaN
/// runs the robust-layer probes run on; the same seed gives the same pattern.
scwc::robust::FaultSummary inject_stream_faults(
    scwc::telemetry::TimeSeries& series, std::uint64_t seed);

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with at
/// least q·n samples at or below it. 0 for an empty sample.
[[nodiscard]] double quantile(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The highest of p50, p90, p99, p99.9 and p99.99 that still has at least
/// ten samples beyond it, with the sample count it was taken from.
/// `supported` is false (and q is 0.5) when not even the median qualifies.
struct TailPercentile {
  double q = 0.5;
  double value = 0.0;
  std::size_t samples = 0;
  bool supported = false;
};
[[nodiscard]] TailPercentile highest_supported_percentile(
    const std::vector<double>& sorted);

/// How one due request ended. Everything but kOnTime is a failure.
enum class Outcome : std::uint8_t {
  kOnTime,  ///< answered (a quality abstain included) within the deadline
  kLate,    ///< answered, but later than the deadline after its due time
  kShed,    ///< refused by the service under load (queue, executor, deadline)
  kError,   ///< any other refusal, a wrong label, or no verdict at all
  kUnsent,  ///< due, but the generator never got to send it
};

/// Outcome of a request that got a verdict. Sheds are the overload
/// reasons; every other refusal is an error.
[[nodiscard]] Outcome classify_verdict(const scwc::serve::ServeResult& result,
                                       double latency_s, double deadline_s);

/// Failure accounting against the number of requests that were due.
struct Accounting {
  std::size_t due = 0;
  std::size_t sent = 0;
  std::size_t on_time = 0;
  std::size_t late = 0;
  std::size_t shed = 0;
  std::size_t error = 0;
  std::size_t unsent = 0;

  void add(Outcome outcome);
  /// Shed + late + error + unsent: every due request not answered on time.
  [[nodiscard]] std::size_t failed() const noexcept { return due - on_time; }
  [[nodiscard]] double failed_share() const noexcept;
  [[nodiscard]] double sent_share() const noexcept;
};

}  // namespace perfbench
