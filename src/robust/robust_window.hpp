// Gap-tolerant window extraction and imputation.
//
// The clean pipeline (data/window.hpp) assumes every series is complete and
// finite; this is the hardened counterpart for degraded feeds. It extracts
// a window even when the source series was truncated mid-job, records what
// was missing in a QualityReport, and repairs non-finite values with a
// configurable imputation policy. On a clean series the repaired window is
// bit-for-bit identical to data::extract_window's output.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "data/tensor3.hpp"
#include "robust/quality.hpp"
#include "telemetry/gpu_synth.hpp"

namespace scwc::robust {

/// How missing (non-finite) values are filled in.
enum class Imputation {
  kForwardFill,  ///< hold the last finite reading (leading gaps backfill)
  kLinear,       ///< linear interpolation between bounding finite readings
  kPriorMean,    ///< per-sensor mean of the training distribution
};

/// Human-readable policy name ("ffill", "linear", "prior-mean").
std::string imputation_name(Imputation policy);

/// Imputation policy plus the per-sensor class-prior means used as the last
/// resort when a sensor has no finite sample in the whole window (and as
/// the primary fill for kPriorMean). Empty means fall back to 0.
struct ImputationConfig {
  Imputation policy = Imputation::kLinear;
  std::vector<double> sensor_prior_means;
};

/// Per-sensor means over every step of every training trial — the
/// class-prior-weighted expectation of each sensor, used by kPriorMean and
/// as the dead-sensor fallback of all policies.
std::vector<double> sensor_prior_means(const data::Tensor3& x_train);

/// Copies `window_steps` rows starting at `offset` into `dest` (row-major
/// steps×sensors), tolerating a source series that ends early: absent tail
/// rows are written as NaN and recorded as truncated. Counts non-finite
/// values, fully-missing steps and dead sensors. Does not repair anything.
/// Requires dest.size() == window_steps * series.sensors() and offset within
/// the *requested* range (offset may exceed the series length entirely —
/// the whole window is then missing).
QualityReport robust_extract_window(const telemetry::TimeSeries& series,
                                    std::size_t offset,
                                    std::size_t window_steps,
                                    std::span<double> dest);

/// Adds the non-finite values, fully-missing steps and dead sensors of a
/// row-major steps×sensors window to `report`. Allocation-free.
void count_missing(std::span<const double> window, std::size_t steps,
                   std::size_t sensors, QualityReport& report);

/// Repairs every non-finite value of a row-major steps×sensors window in
/// place and adds the repair count to `report`. After the call the window
/// contains only finite values. A window with no missing values is left
/// untouched (bit-for-bit).
void impute_window(std::span<double> window, std::size_t steps,
                   std::size_t sensors, const ImputationConfig& config,
                   QualityReport& report);

/// Convenience: extract + impute in one call.
QualityReport robust_window(const telemetry::TimeSeries& series,
                            std::size_t offset, std::size_t window_steps,
                            const ImputationConfig& config,
                            std::span<double> dest);

}  // namespace scwc::robust
