#include "data/npz.hpp"

#include <fstream>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scwc::data {

namespace {

/// The NPY v1.0 preamble of an array: magic, version, header length and
/// the dict header, space-padded so the payload starts 64-byte aligned.
std::string npy_header(std::string_view descr,
                       const std::vector<std::size_t>& shape) {
  std::ostringstream dict;
  dict << "{'descr': '" << descr << "', 'fortran_order': False, 'shape': (";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    dict << shape[i];
    if (shape.size() == 1 || i + 1 < shape.size()) dict << ",";
    if (i + 1 < shape.size()) dict << " ";
  }
  dict << "), }";
  std::string h = dict.str();
  // Pad with spaces so magic(6)+version(2)+len(2)+header is 64-aligned and
  // the header ends with a newline, per the NPY v1.0 spec.
  const std::size_t base = 6 + 2 + 2;
  const std::size_t total = ((base + h.size() + 1 + 63) / 64) * 64;
  h.resize(total - base - 1, ' ');
  h += '\n';
  SCWC_CHECK(h.size() <= 65535, "npy: header too long for v1.0");

  ByteWriter w(base + h.size());
  w.bytes("\x93NUMPY");
  w.u8(1);  // major
  w.u8(0);  // minor
  w.u16(static_cast<std::uint16_t>(h.size()));
  w.bytes(h);
  return w.take();
}

/// The fields a ZIP local-file header and a central-directory entry share,
/// from the signature to the extra-field length (a central entry also
/// carries "version made by").
void write_zip_record(ByteWriter& w, std::uint32_t signature,
                      const std::string& name, std::uint32_t crc,
                      std::uint32_t size, bool central) {
  w.u32(signature);
  if (central) w.u16(20);  // version made by
  w.u16(20);               // version needed
  w.u16(0);                // flags
  w.u16(0);                // method: stored
  w.u16(0);                // mod time
  w.u16(0x21);             // mod date (1980-01-01)
  w.u32(crc);
  w.u32(size);  // compressed size
  w.u32(size);  // uncompressed size
  w.u16(static_cast<std::uint16_t>(name.size()));
  w.u16(0);  // extra length
}

}  // namespace

std::string npy_from_doubles(std::span<const double> values,
                             const std::vector<std::size_t>& shape) {
  std::size_t count = 1;
  for (const std::size_t s : shape) count *= s;
  SCWC_REQUIRE(count == values.size(), "npy: shape does not match data size");
  const std::string header = npy_header("<f8", shape);
  ByteWriter w(header.size() + values.size_bytes());
  w.bytes(header);
  w.f64s(values);
  return w.take();
}

std::string npy_from_labels(std::span<const int> labels) {
  const std::string header = npy_header("<i8", {labels.size()});
  ByteWriter w(header.size() + labels.size() * sizeof(std::int64_t));
  w.bytes(header);
  for (const int label : labels) w.i64(label);
  return w.take();
}

std::string npy_from_strings(const std::vector<std::string>& values) {
  constexpr std::size_t kWidth = 32;
  const std::string header = npy_header("<U32", {values.size()});
  ByteWriter w(header.size() + values.size() * kWidth * 4);
  w.bytes(header);
  for (const auto& s : values) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      // ASCII → UTF-32LE code units; zero-padded beyond the string.
      w.u32(i < s.size() ? static_cast<std::uint8_t>(s[i]) : 0U);
    }
  }
  return w.take();
}

void write_zip(std::ostream& os, const std::vector<ZipEntry>& entries) {
  struct Record {
    std::uint32_t crc;
    std::uint32_t size;
    std::uint32_t offset;
  };
  std::vector<Record> records;
  records.reserve(entries.size());
  ByteWriter w(os);

  // Local file headers + data.
  for (const auto& entry : entries) {
    SCWC_REQUIRE(entry.bytes.size() < 0xFFFFFFFFull,
                 "zip: member too large for zip32");
    const Record rec{crc32(entry.bytes),
                     static_cast<std::uint32_t>(entry.bytes.size()),
                     static_cast<std::uint32_t>(w.size())};
    records.push_back(rec);
    write_zip_record(w, 0x04034b50, entry.name, rec.crc, rec.size,
                     /*central=*/false);
    w.bytes(entry.name);
    w.bytes(entry.bytes);
  }

  // Central directory.
  const auto central_start = static_cast<std::uint32_t>(w.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Record& rec = records[i];
    write_zip_record(w, 0x02014b50, entries[i].name, rec.crc, rec.size,
                     /*central=*/true);
    w.u16(0);  // comment
    w.u16(0);  // disk number
    w.u16(0);  // internal attrs
    w.u32(0);  // external attrs
    w.u32(rec.offset);
    w.bytes(entries[i].name);
  }
  const auto central_size =
      static_cast<std::uint32_t>(w.size()) - central_start;

  // End of central directory.
  w.u32(0x06054b50);
  w.u16(0);  // disk
  w.u16(0);  // central directory disk
  w.u16(static_cast<std::uint16_t>(entries.size()));
  w.u16(static_cast<std::uint16_t>(entries.size()));
  w.u32(central_size);
  w.u32(central_start);
  w.u16(0);  // comment length
  w.finish();
}

void save_npz(const ChallengeDataset& dataset,
              const std::filesystem::path& path) {
  const obs::TraceSpan span("npz.write");
  dataset.validate();
  std::vector<ZipEntry> entries;
  entries.push_back(
      {"X_train.npy",
       npy_from_doubles(dataset.x_train.raw(),
                        {dataset.x_train.trials(), dataset.x_train.steps(),
                         dataset.x_train.sensors()})});
  entries.push_back({"y_train.npy", npy_from_labels(dataset.y_train)});
  entries.push_back(
      {"model_train.npy", npy_from_strings(dataset.model_train)});
  entries.push_back(
      {"X_test.npy",
       npy_from_doubles(dataset.x_test.raw(),
                        {dataset.x_test.trials(), dataset.x_test.steps(),
                         dataset.x_test.sensors()})});
  entries.push_back({"y_test.npy", npy_from_labels(dataset.y_test)});
  entries.push_back({"model_test.npy", npy_from_strings(dataset.model_test)});

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path.string() + " for writing");
  write_zip(os, entries);
  std::uint64_t payload = 0;
  for (const ZipEntry& e : entries) payload += e.bytes.size();
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("scwc_data_npz_writes_total").inc();
  reg.counter("scwc_data_npz_bytes_written_total").inc(payload);
}

}  // namespace scwc::data
