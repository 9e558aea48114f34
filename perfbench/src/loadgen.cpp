#include "loadgen.hpp"

#include <array>
#include <cmath>

#include "common/rng.hpp"

namespace perfbench {

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.05) + 16);
  scwc::Rng rng(seed);
  for (double t = rng.exponential(rate_per_s); t < seconds;
       t += rng.exponential(rate_per_s)) {
    due.push_back(t);
  }
  return due;
}

scwc::robust::FaultSummary inject_stream_faults(
    scwc::telemetry::TimeSeries& series, std::uint64_t seed) {
  scwc::robust::FaultProfile profile;
  profile.dropout_fraction = 0.2;
  profile.mean_gap_steps = 8.0;
  profile.nan_fraction = 0.15;
  profile.mean_nan_run_steps = 12.0;
  scwc::Rng rng(seed);
  return scwc::robust::FaultInjector(profile).corrupt(series, rng);
}

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank < 1 ? 1 : (rank > n ? n : rank);
}

}  // namespace

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

TailPercentile highest_supported_percentile(const std::vector<double>& sorted) {
  static constexpr std::array<double, 5> kCandidates = {0.9999, 0.999, 0.99,
                                                        0.9, 0.5};
  TailPercentile out;
  out.samples = sorted.size();
  out.value = quantile(sorted, 0.5);
  for (const double q : kCandidates) {
    if (samples_beyond(sorted.size(), q) >= 10) {
      out.q = q;
      out.value = quantile(sorted, q);
      out.supported = true;
      break;
    }
  }
  return out;
}

Outcome classify_verdict(const scwc::serve::ServeResult& result,
                         double latency_s, double deadline_s) {
  using scwc::serve::RejectReason;
  if (result.accepted) {
    return latency_s <= deadline_s ? Outcome::kOnTime : Outcome::kLate;
  }
  switch (result.reject_reason) {
    case RejectReason::kQueueFull:
    case RejectReason::kExecutor:
    case RejectReason::kDeadlineExceeded:
      return Outcome::kShed;
    default:
      return Outcome::kError;
  }
}

void Accounting::add(Outcome outcome) {
  ++due;
  if (outcome != Outcome::kUnsent) ++sent;
  switch (outcome) {
    case Outcome::kOnTime: ++on_time; break;
    case Outcome::kLate: ++late; break;
    case Outcome::kShed: ++shed; break;
    case Outcome::kError: ++error; break;
    case Outcome::kUnsent: ++unsent; break;
  }
}

double Accounting::failed_share() const noexcept {
  return due == 0 ? 0.0
                  : static_cast<double>(failed()) / static_cast<double>(due);
}

double Accounting::sent_share() const noexcept {
  return due == 0 ? 1.0
                  : static_cast<double>(sent) / static_cast<double>(due);
}

}  // namespace perfbench
