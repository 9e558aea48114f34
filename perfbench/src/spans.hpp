// In-memory span log of the benchmark's traced run.
//
// A span covers one call into a layer (or one phase a request spent in a
// layer, as the ServeResult reports it): name, start, end, parent span and
// the request it belongs to. Spans of one request share its trace id. The
// log is written to one thread at a time and dumped when the run ends;
// per-layer figures are read back from it by span name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t parent = 0;  ///< 1-based index of the parent span; 0 = root
  std::uint16_t name = 0;    ///< index into SpanLog::names()
  std::uint16_t count = 1;   ///< windows the span's work covered
  std::uint64_t trace = 0;   ///< request id; 0 for spans outside requests
  double start_s = 0.0;      ///< seconds since the run's epoch
  double end_s = 0.0;
};

/// Half-open range of span positions a query looks at.
struct SpanRange {
  std::size_t first = 0;
  std::size_t last = std::numeric_limits<std::size_t>::max();
};

class SpanLog {
 public:
  /// Interns a span name (call once per name, off the hot path).
  std::uint16_t name_id(std::string_view name);

  /// Appends a span and returns its 1-based id (for use as a parent).
  std::uint32_t add(std::uint16_t name, std::uint64_t trace,
                    std::uint32_t parent, double start_s, double end_s,
                    std::uint16_t count = 1) {
    spans_.push_back(Span{parent, name, count, trace, start_s, end_s});
    return static_cast<std::uint32_t>(spans_.size());
  }

  void reserve(std::size_t n) { spans_.reserve(n); }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Durations (seconds) of every span named `name` in `range`, each
  /// divided by its count when `per_window` is set.
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              bool per_window = false,
                                              SpanRange range = {}) const;

  /// Self time (seconds) of every span named `name` in `range`: its
  /// duration minus the durations of its direct children.
  [[nodiscard]] std::vector<double> self_times(std::string_view name,
                                               SpanRange range = {}) const;

  /// Writes up to `max_spans` spans as tab-separated text
  /// (id, parent, trace, name, count, start_us, end_us) after a header
  /// naming how many spans were recorded. Returns false on an I/O error.
  bool write_tsv(const std::string& path, std::size_t max_spans) const;

 private:
  [[nodiscard]] int find(std::string_view name) const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
