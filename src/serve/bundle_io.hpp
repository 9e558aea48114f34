// Bundle persistence: serialise a ModelBundle so a serving process can load
// a version without retraining (and roll between versions from disk).
//
// Format (SCWCBNDL v1, written and read through the shared byte codec,
// common/bytes.hpp): magic, format version, bundle version string, guard
// config, fitted pipeline parameters (scaler, optional PCA basis), then the
// model tagged by Classifier::name() in its own SCWC_RF1 layout. Only
// RandomForest models are supported; other families serve from freshly
// trained in-process bundles.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "serve/model_registry.hpp"

namespace scwc::serve {

/// Writes `bundle` to a stream/file. Throws scwc::Error for model families
/// without a serialiser (anything but RandomForest) or on I/O failure.
void save_bundle(const ModelBundle& bundle, std::ostream& os);
void save_bundle_file(const ModelBundle& bundle, const std::string& path);

/// Reads a bundle back. Throws scwc::Error on bad magic, unsupported format
/// or model tag, truncation, or non-finite/ill-shaped parameters.
/// load_bundle_bytes decodes an in-memory bundle in place.
[[nodiscard]] std::shared_ptr<const ModelBundle> load_bundle(std::istream& is);
[[nodiscard]] std::shared_ptr<const ModelBundle> load_bundle_bytes(
    std::string_view bytes);
[[nodiscard]] std::shared_ptr<const ModelBundle> load_bundle_file(
    const std::string& path);

/// Failure-isolating hot swap: loads a bundle from the bytes/file and
/// registers + activates it atomically — or, if the load fails for ANY
/// reason (typed parse error, I/O failure, allocation failure on a
/// corrupted length field), leaves the registry completely untouched,
/// counts scwc_serve_bundle_load_failures_total, and returns nullptr. A bad
/// bundle on disk can therefore never take down serving of the current one.
/// Returns the activated bundle on success.
std::shared_ptr<const ModelBundle> try_swap_from_bytes(ModelRegistry& registry,
                                                       std::string_view bytes);
std::shared_ptr<const ModelBundle> try_swap_from_file(ModelRegistry& registry,
                                                      const std::string& path);

}  // namespace scwc::serve
