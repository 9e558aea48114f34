#include "serve/bundle_io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace scwc::serve {

namespace {

// "SCWCBNDL" — distinct from the forest's own magic, which follows inside.
constexpr std::uint64_t kBundleMagic = 0x53435743424e444cULL;
constexpr std::uint64_t kFormatVersion = 1;
constexpr const char* kDecodeContext = "load_bundle";

// Length caps bound what a corrupted stream can make the loader allocate;
// the reader then checks each length against the bytes that remain, so a
// flipped length or shape fails typed before anything is allocated (the
// fuzz test flips every byte of a valid bundle).
constexpr std::uint64_t kMaxStringBytes = 1ULL << 16;
constexpr std::uint64_t kMaxVectorValues = 1ULL << 24;
constexpr std::uint64_t kMaxMatrixDim = 1ULL << 20;
constexpr std::uint64_t kMaxMatrixValues = 1ULL << 26;

linalg::Vector read_vec(ByteReader& r) {
  return r.f64_array<std::uint64_t>(kMaxVectorValues, "vector");
}

linalg::Matrix read_matrix(ByteReader& r) {
  const std::uint64_t rows = r.u64("matrix rows");
  const std::uint64_t cols = r.u64("matrix cols");
  SCWC_REQUIRE(rows <= kMaxMatrixDim && cols <= kMaxMatrixDim &&
                   rows * cols <= kMaxMatrixValues,
               "load_bundle: implausible matrix shape");
  r.need(rows * cols, sizeof(double), "matrix");
  linalg::Matrix m(rows, cols);
  r.f64s(m.flat(), "matrix");
  return m;
}

std::shared_ptr<const ModelBundle> decode_bundle(ByteReader& r) {
  SCWC_REQUIRE(r.u64("magic") == kBundleMagic, "load_bundle: bad magic");
  SCWC_REQUIRE(r.u64("format version") == kFormatVersion,
               "load_bundle: unsupported format version");
  std::string version =
      r.string<std::uint64_t>(kMaxStringBytes, "version string");

  robust::GuardedConfig guard;
  guard.window_steps = r.u64("window steps");
  guard.sensors = r.u64("sensors");
  guard.min_quality = r.f64("min quality");
  guard.fallback_label = static_cast<int>(r.i64("fallback label"));
  const std::uint64_t policy = r.u64("imputation policy");
  SCWC_REQUIRE(policy <= static_cast<std::uint64_t>(
                             robust::Imputation::kPriorMean),
               "load_bundle: unknown imputation policy");
  guard.imputation.policy = static_cast<robust::Imputation>(policy);
  guard.imputation.sensor_prior_means = read_vec(r);
  SCWC_REQUIRE(std::isfinite(guard.min_quality),
               "load_bundle: non-finite min_quality");

  preprocess::FeaturePipelineConfig pipeline_config;
  const std::uint64_t reduction = r.u64("reduction");
  SCWC_REQUIRE(
      reduction <= static_cast<std::uint64_t>(preprocess::Reduction::kNone),
      "load_bundle: unknown reduction");
  pipeline_config.reduction = static_cast<preprocess::Reduction>(reduction);
  pipeline_config.pca_components = r.u64("pca components");
  const std::size_t steps = r.u64("pipeline steps");
  const std::size_t sensors = r.u64("pipeline sensors");
  linalg::Vector scaler_means = read_vec(r);   // sequence the two reads —
  linalg::Vector scaler_scales = read_vec(r);  // argument order is unspecified
  preprocess::StandardScaler scaler = preprocess::StandardScaler::restore(
      std::move(scaler_means), std::move(scaler_scales));
  std::optional<preprocess::Pca> pca;
  if (r.u64("pca flag") != 0) {
    linalg::Vector mean = read_vec(r);
    linalg::Matrix components = read_matrix(r);
    linalg::Vector variance = read_vec(r);
    linalg::Vector ratio = read_vec(r);
    pca = preprocess::Pca::restore(std::move(mean), std::move(components),
                                   std::move(variance), std::move(ratio));
  }
  preprocess::FeaturePipeline pipeline = preprocess::FeaturePipeline::restore(
      pipeline_config, steps, sensors, std::move(scaler), std::move(pca));

  const std::string tag = r.string<std::uint64_t>(kMaxStringBytes, "model tag");
  SCWC_REQUIRE(tag == "RandomForest",
               "load_bundle: unsupported model tag: " + tag);
  auto forest = std::make_unique<ml::RandomForest>();
  forest->load(r);

  SCWC_REQUIRE(guard.window_steps == steps && guard.sensors == sensors,
               "load_bundle: guard/pipeline geometry mismatch");
  return std::make_shared<const ModelBundle>(
      std::move(version), std::move(pipeline), std::move(forest), guard);
}

}  // namespace

void save_bundle(const ModelBundle& bundle, std::ostream& os) {
  const auto* forest = dynamic_cast<const ml::RandomForest*>(&bundle.model());
  SCWC_REQUIRE(forest != nullptr,
               "save_bundle: only RandomForest bundles are serialisable, got " +
                   bundle.model().name());

  ByteWriter w(os);
  w.u64(kBundleMagic);
  w.u64(kFormatVersion);
  w.string<std::uint64_t>(bundle.version());

  const robust::GuardedConfig& guard = bundle.guard_config();
  w.u64(guard.window_steps);
  w.u64(guard.sensors);
  w.f64(guard.min_quality);
  w.i64(guard.fallback_label);
  w.u64(static_cast<std::uint64_t>(guard.imputation.policy));
  w.f64_array<std::uint64_t>(guard.imputation.sensor_prior_means);

  const preprocess::FeaturePipeline& pipeline = bundle.pipeline();
  w.u64(static_cast<std::uint64_t>(pipeline.config().reduction));
  w.u64(pipeline.config().pca_components);
  w.u64(pipeline.steps());
  w.u64(pipeline.sensors());
  w.f64_array<std::uint64_t>(pipeline.scaler().means());
  w.f64_array<std::uint64_t>(pipeline.scaler().scales());
  w.u64(pipeline.pca().has_value() ? 1 : 0);
  if (pipeline.pca().has_value()) {
    const preprocess::Pca& pca = *pipeline.pca();
    w.f64_array<std::uint64_t>(pca.mean());
    w.u64(pca.components_matrix().rows());
    w.u64(pca.components_matrix().cols());
    w.f64s(pca.components_matrix().flat());
    w.f64_array<std::uint64_t>(pca.explained_variance());
    w.f64_array<std::uint64_t>(pca.explained_variance_ratio());
  }

  w.string<std::uint64_t>(forest->name());
  forest->save(w);
  w.finish();
}

void save_bundle_file(const ModelBundle& bundle, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  SCWC_REQUIRE(os.is_open(), "save_bundle_file: cannot open " + path);
  save_bundle(bundle, os);
}

std::shared_ptr<const ModelBundle> load_bundle(std::istream& is) {
  ByteReader r(is, kDecodeContext);
  return decode_bundle(r);
}

std::shared_ptr<const ModelBundle> load_bundle_bytes(std::string_view bytes) {
  ByteReader r(bytes, kDecodeContext);
  return decode_bundle(r);
}

std::shared_ptr<const ModelBundle> load_bundle_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SCWC_REQUIRE(is.is_open(), "load_bundle_file: cannot open " + path);
  return load_bundle(is);
}

namespace {

std::shared_ptr<const ModelBundle> try_swap(
    ModelRegistry& registry,
    const std::function<std::shared_ptr<const ModelBundle>()>& load) {
  // The whole load happens BEFORE the registry is touched, so a failure at
  // any byte leaves the current bundle serving — no partial swap exists.
  std::shared_ptr<const ModelBundle> bundle;
  std::string what;
  try {
    bundle = load();
  } catch (const std::exception& e) {
    what = e.what();
    bundle = nullptr;
  }
  if (bundle == nullptr) {
    obs::MetricsRegistry::global()
        .counter("scwc_serve_bundle_load_failures_total")
        .inc();
    SCWC_LOG_WARN("bundle swap refused: " << what);
    return nullptr;
  }
  try {
    registry.register_bundle(bundle, /*activate=*/true);
  } catch (const std::exception& e) {
    // e.g. duplicate version — still a refused swap, registry unchanged.
    obs::MetricsRegistry::global()
        .counter("scwc_serve_bundle_load_failures_total")
        .inc();
    SCWC_LOG_WARN("bundle swap refused: " << e.what());
    return nullptr;
  }
  return bundle;
}

}  // namespace

std::shared_ptr<const ModelBundle> try_swap_from_bytes(ModelRegistry& registry,
                                                       std::string_view bytes) {
  return try_swap(registry, [bytes] { return load_bundle_bytes(bytes); });
}

std::shared_ptr<const ModelBundle> try_swap_from_file(ModelRegistry& registry,
                                                      const std::string& path) {
  return try_swap(registry, [&path] { return load_bundle_file(path); });
}

}  // namespace scwc::serve
