#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::uint16_t SpanLog::name_id(std::string_view name) {
  const int found = find(name);
  if (found >= 0) return static_cast<std::uint16_t>(found);
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

int SpanLog::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<double> SpanLog::durations(std::string_view name,
                                       bool per_window, SpanRange range) const {
  std::vector<double> out;
  const int id = find(name);
  if (id < 0) return out;
  const std::size_t last = std::min(range.last, spans_.size());
  for (std::size_t i = range.first; i < last; ++i) {
    const Span& s = spans_[i];
    if (s.name != id) continue;
    const double d = s.end_s - s.start_s;
    out.push_back(per_window && s.count > 0 ? d / s.count : d);
  }
  return out;
}

std::vector<double> SpanLog::self_times(std::string_view name,
                                        SpanRange range) const {
  std::vector<double> out;
  const int id = find(name);
  const std::size_t first = range.first;
  const std::size_t last = std::min(range.last, spans_.size());
  if (id < 0 || first >= last) return out;
  // Children always follow their parent in the log, so one forward pass
  // charges each child to its parent's slot.
  std::vector<double> child_sum(last - first, 0.0);
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    if (s.parent > first) child_sum[s.parent - 1 - first] += s.end_s - s.start_s;
  }
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    if (s.name == id) out.push_back(s.end_s - s.start_s - child_sum[i - first]);
  }
  return out;
}

bool SpanLog::write_tsv(const std::string& path, std::size_t max_spans) const {
  std::ofstream os(path);
  if (!os.is_open()) return false;
  const std::size_t n = std::min(max_spans, spans_.size());
  os << "# spans recorded " << spans_.size() << ", written " << n << '\n'
     << "id\tparent\ttrace\tname\tcount\tstart_us\tend_us\n";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    os << i + 1 << '\t' << s.parent << '\t' << s.trace << '\t'
       << names_[s.name] << '\t' << s.count << '\t'
       << static_cast<long long>(s.start_s * 1e6) << '\t'
       << static_cast<long long>(s.end_s * 1e6) << '\n';
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
