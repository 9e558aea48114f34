#include "robust/robust_window.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace scwc::robust {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double prior_for(const ImputationConfig& config, std::size_t sensor) {
  if (sensor < config.sensor_prior_means.size()) {
    const double m = config.sensor_prior_means[sensor];
    if (std::isfinite(m)) return m;
  }
  return 0.0;
}

/// Fills one sensor column given the indices of its finite samples.
/// `value(t)` reads, `set(t, v)` writes + counts the repair. Anchors are
/// always *originally* finite steps, so already-imputed values never feed
/// later repairs.
template <typename Get, typename Set>
void repair_column(std::size_t steps, const std::vector<std::size_t>& finite,
                   Imputation policy, double prior, const Get& value,
                   const Set& set) {
  if (finite.empty()) {
    for (std::size_t t = 0; t < steps; ++t) set(t, prior);
    return;
  }
  if (policy == Imputation::kPriorMean) {
    for (std::size_t t = 0; t < steps; ++t) {
      if (!std::isfinite(value(t))) set(t, prior);
    }
    return;
  }
  // Forward-fill and linear share the edge behaviour: leading gaps take the
  // first finite reading, trailing gaps hold the last one.
  std::size_t next_idx = 0;  // index into `finite` of the next finite step
  bool have_prev = false;
  std::size_t prev = 0;  // last finite step before t (valid iff have_prev)
  for (std::size_t t = 0; t < steps; ++t) {
    if (next_idx < finite.size() && finite[next_idx] == t) {
      prev = t;
      have_prev = true;
      ++next_idx;
      continue;
    }
    if (!have_prev) {
      set(t, value(finite.front()));  // leading gap: backfill
    } else if (next_idx >= finite.size()) {
      set(t, value(prev));  // trailing gap: hold
    } else if (policy == Imputation::kForwardFill) {
      set(t, value(prev));
    } else {  // kLinear — interpolate between the bounding finite readings
      const std::size_t next = finite[next_idx];
      const double lo_v = value(prev);
      const double hi_v = value(next);
      const double frac = static_cast<double>(t - prev) /
                          static_cast<double>(next - prev);
      set(t, lo_v + (hi_v - lo_v) * frac);
    }
  }
}

}  // namespace

std::string imputation_name(Imputation policy) {
  switch (policy) {
    case Imputation::kForwardFill:
      return "ffill";
    case Imputation::kLinear:
      return "linear";
    case Imputation::kPriorMean:
      return "prior-mean";
  }
  return "?";
}

std::vector<double> sensor_prior_means(const data::Tensor3& x_train) {
  const std::size_t sensors = x_train.sensors();
  std::vector<double> sums(sensors, 0.0);
  std::vector<std::size_t> counts(sensors, 0);
  const std::span<const double> raw = x_train.raw();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const double v = raw[i];
    if (!std::isfinite(v)) continue;
    const std::size_t s = i % sensors;
    sums[s] += v;
    ++counts[s];
  }
  std::vector<double> means(sensors, 0.0);
  for (std::size_t s = 0; s < sensors; ++s) {
    if (counts[s] > 0) means[s] = sums[s] / static_cast<double>(counts[s]);
  }
  return means;
}

QualityReport robust_extract_window(const telemetry::TimeSeries& series,
                                    std::size_t offset,
                                    std::size_t window_steps,
                                    std::span<double> dest) {
  const std::size_t sensors = series.sensors();
  SCWC_REQUIRE(dest.size() == window_steps * sensors,
               "robust window destination has the wrong size");
  QualityReport report;
  report.steps = window_steps;
  report.sensors = sensors;

  const std::size_t available =
      offset >= series.steps()
          ? 0
          : std::min(window_steps, series.steps() - offset);
  report.truncated_steps = window_steps - available;

  if (available > 0) {
    const double* src = series.values.data() + offset * sensors;
    std::copy(src, src + available * sensors, dest.begin());
  }
  std::fill(dest.begin() + static_cast<std::ptrdiff_t>(available * sensors),
            dest.end(), kNaN);

  count_missing(dest, window_steps, sensors, report);
  return report;
}

void count_missing(std::span<const double> window, std::size_t steps,
                   std::size_t sensors, QualityReport& report) {
  std::size_t missing = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    std::size_t missing_here = 0;
    for (std::size_t s = 0; s < sensors; ++s) {
      if (!std::isfinite(window[t * sensors + s])) ++missing_here;
    }
    missing += missing_here;
    if (missing_here == sensors) ++report.missing_steps;
  }
  report.missing_values += missing;
  // A sensor is dead when none of its steps is finite, which needs at
  // least one missing value (or no steps at all).
  if (missing == 0 && steps > 0) return;
  for (std::size_t s = 0; s < sensors; ++s) {
    bool any_finite = false;
    for (std::size_t t = 0; t < steps && !any_finite; ++t) {
      any_finite = std::isfinite(window[t * sensors + s]);
    }
    if (!any_finite) ++report.dead_sensors;
  }
}

void impute_window(std::span<double> window, std::size_t steps,
                   std::size_t sensors, const ImputationConfig& config,
                   QualityReport& report) {
  SCWC_REQUIRE(window.size() == steps * sensors,
               "impute_window span/shape mismatch");
  // Count first and list the finite steps only for columns that need
  // repair, so a clean window costs no allocation.
  std::vector<std::size_t> finite;
  for (std::size_t s = 0; s < sensors; ++s) {
    std::size_t missing = 0;
    for (std::size_t t = 0; t < steps; ++t) {
      if (!std::isfinite(window[t * sensors + s])) ++missing;
    }
    if (missing == 0) continue;  // untouched columns stay bit-for-bit
    finite.clear();
    for (std::size_t t = 0; t < steps; ++t) {
      if (std::isfinite(window[t * sensors + s])) finite.push_back(t);
    }
    repair_column(
        steps, finite, config.policy, prior_for(config, s),
        [&](std::size_t t) { return window[t * sensors + s]; },
        [&](std::size_t t, double v) {
          window[t * sensors + s] = v;
          ++report.repaired_values;
        });
  }
}

QualityReport robust_window(const telemetry::TimeSeries& series,
                            std::size_t offset, std::size_t window_steps,
                            const ImputationConfig& config,
                            std::span<double> dest) {
  QualityReport report =
      robust_extract_window(series, offset, window_steps, dest);
  impute_window(dest, window_steps, series.sensors(), config, report);
  return report;
}

}  // namespace scwc::robust
