#include "data/serialize.hpp"

#include <chrono>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::data {

namespace {

constexpr std::string_view kMagic{"SCWCB001", 8};
constexpr const char* kDecodeContext = "scb";

// Caps on what a corrupted length field may claim; the reader then checks
// each length against the bytes that remain before allocating.
constexpr std::uint64_t kMaxStringBytes = (1ULL << 24) - 1;
constexpr std::uint64_t kMaxTensorValues = (1ULL << 32) - 1;
constexpr std::uint64_t kDimCap = 1ULL << 26;

void write_split(ByteWriter& w, const Tensor3& x, const std::vector<int>& y,
                 const std::vector<std::string>& names,
                 const std::vector<std::int64_t>& jobs) {
  w.u64(x.trials());
  w.u64(x.steps());
  w.u64(x.sensors());
  w.f64_array<std::uint64_t>(x.raw());
  w.u64(y.size());
  for (const int label : y) w.i64(label);
  w.u64(names.size());
  for (const auto& n : names) w.string<std::uint64_t>(n);
  w.u64(jobs.size());
  for (const auto j : jobs) w.i64(j);
}

void read_split(ByteReader& r, Tensor3& x, std::vector<int>& y,
                std::vector<std::string>& names,
                std::vector<std::int64_t>& jobs) {
  const std::uint64_t trials = r.u64("trial count");
  const std::uint64_t steps = r.u64("step count");
  const std::uint64_t sensors = r.u64("sensor count");
  // Dimension sanity *before* multiplying, so a corrupted header cannot
  // overflow std::size_t and silently alias a smaller tensor.
  if (trials >= kDimCap || steps >= kDimCap || sensors >= kDimCap) {
    r.fail("implausible tensor dimensions " + std::to_string(trials) + "×" +
           std::to_string(steps) + "×" + std::to_string(sensors));
  }
  const std::uint64_t values = r.u64("tensor data");
  if (values > kMaxTensorValues) {
    r.fail("unreasonable tensor data length " + std::to_string(values));
  }
  // Overflow-safe product: capped dimensions still multiply past 64 bits,
  // and an overflowed product could alias the stored length.
  const std::uint64_t ts = trials * steps;  // < 2^52, cannot overflow
  if (sensors != 0 &&
      ts > std::numeric_limits<std::uint64_t>::max() / sensors) {
    r.fail("tensor dimensions overflow");
  }
  if (ts * sensors != values) {
    r.fail("tensor size mismatch (header implies " + std::to_string(trials) +
           "×" + std::to_string(steps) + "×" + std::to_string(sensors) +
           " values, got " + std::to_string(values) + ")");
  }
  r.need(values, sizeof(double), "tensor data");
  x = Tensor3(trials, steps, sensors);
  r.f64s(x.raw(), "tensor data");

  // Each per-trial array holds `trials` items of at least 8 bytes.
  if (r.u64("label count") != trials) r.fail("label count mismatch");
  r.need(trials, 8, "labels");
  y.resize(trials);
  for (auto& label : y) label = static_cast<int>(r.i64("label"));

  if (r.u64("model-name count") != trials) {
    r.fail("model-name count mismatch");
  }
  r.need(trials, 8, "model names");
  names.resize(trials);
  for (auto& n : names) {
    n = r.string<std::uint64_t>(kMaxStringBytes, "model name");
  }

  if (r.u64("job-id count") != trials) r.fail("job-id count mismatch");
  r.need(trials, 8, "job ids");
  jobs.resize(trials);
  for (auto& j : jobs) j = r.i64("job id");
}

}  // namespace

void write_scb(const ChallengeDataset& dataset, std::ostream& os) {
  const obs::TraceSpan span("scb.write");
  ByteWriter w(os);
  w.bytes(kMagic);
  w.string<std::uint64_t>(dataset.name);
  w.u64(static_cast<std::uint64_t>(dataset.policy));
  write_split(w, dataset.x_train, dataset.y_train, dataset.model_train,
              dataset.job_train);
  write_split(w, dataset.x_test, dataset.y_test, dataset.model_test,
              dataset.job_test);
  w.finish();
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("scwc_data_scb_writes_total").inc();
  reg.counter("scwc_data_scb_bytes_written_total").inc(w.size());
}

ChallengeDataset read_scb(std::istream& is) {
  const obs::TraceSpan span("scb.read");
  const auto t0 = std::chrono::steady_clock::now();
  ByteReader r(is, kDecodeContext);
  if (r.bytes(kMagic.size(), "magic") != kMagic) {
    r.fail("bad magic (not an .scb file)");
  }
  ChallengeDataset d;
  d.name = r.string<std::uint64_t>(kMaxStringBytes, "dataset name");
  const std::uint64_t policy = r.u64("window policy");
  if (policy > 2) r.fail("bad window policy " + std::to_string(policy));
  d.policy = static_cast<WindowPolicy>(policy);
  read_split(r, d.x_train, d.y_train, d.model_train, d.job_train);
  read_split(r, d.x_test, d.y_test, d.model_test, d.job_test);
  d.validate();
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("scwc_data_scb_reads_total").inc();
  reg.counter("scwc_data_scb_bytes_read_total").inc(r.offset());
  reg.histogram("scwc_data_scb_read_seconds")
      .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count());
  return d;
}

void save_scb(const ChallengeDataset& dataset,
              const std::filesystem::path& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path.string() + " for writing");
  write_scb(dataset, os);
}

ChallengeDataset load_scb(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  SCWC_REQUIRE(is.is_open(), "cannot open " + path.string() + " for reading");
  return read_scb(is);
}

void export_trial_csv(const Tensor3& x, std::size_t trial,
                      const std::filesystem::path& path) {
  SCWC_REQUIRE(trial < x.trials(), "trial index out of range");
  std::ofstream os(path, std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path.string() + " for writing");
  for (std::size_t s = 0; s < x.sensors(); ++s) {
    if (s > 0) os << ',';
    os << telemetry::gpu_sensor_name(s);
  }
  os << '\n';
  for (std::size_t t = 0; t < x.steps(); ++t) {
    for (std::size_t s = 0; s < x.sensors(); ++s) {
      if (s > 0) os << ',';
      os << x(trial, t, s);
    }
    os << '\n';
  }
}

}  // namespace scwc::data
