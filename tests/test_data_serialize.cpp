// Tests for .scb serialisation, CSV export and dataset validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "data/npz.hpp"
#include "data/serialize.hpp"
#include "fuzz_bytes.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::data {
namespace {

ChallengeDataset tiny_dataset() {
  ChallengeDataset ds;
  ds.name = "60-test-1";
  ds.policy = WindowPolicy::kRandom;
  ds.x_train = Tensor3(4, 3, 2);
  ds.x_test = Tensor3(2, 3, 2);
  double v = 0.5;
  for (double& x : ds.x_train.raw()) x = v += 1.0;
  for (double& x : ds.x_test.raw()) x = v -= 0.25;
  ds.y_train = {0, 1, 2, 1};
  ds.y_test = {0, 2};
  for (const int y : ds.y_train) {
    ds.model_train.push_back(telemetry::architecture(y).name);
  }
  for (const int y : ds.y_test) {
    ds.model_test.push_back(telemetry::architecture(y).name);
  }
  ds.job_train = {11, 22, 33, 22};
  ds.job_test = {44, 55};
  return ds;
}

TEST(Scb, RoundTripsThroughMemory) {
  const ChallengeDataset ds = tiny_dataset();
  std::stringstream buffer;
  write_scb(ds, buffer);
  const ChallengeDataset back = read_scb(buffer);
  EXPECT_EQ(back.name, ds.name);
  EXPECT_EQ(back.policy, ds.policy);
  EXPECT_EQ(back.y_train, ds.y_train);
  EXPECT_EQ(back.y_test, ds.y_test);
  EXPECT_EQ(back.model_train, ds.model_train);
  EXPECT_EQ(back.job_train, ds.job_train);
  ASSERT_EQ(back.x_train.trials(), ds.x_train.trials());
  for (std::size_t i = 0; i < ds.x_train.raw().size(); ++i) {
    EXPECT_EQ(back.x_train.raw()[i], ds.x_train.raw()[i]);
  }
}

TEST(Scb, RoundTripsThroughFile) {
  const auto path = std::filesystem::temp_directory_path() / "scwc_test.scb";
  const ChallengeDataset ds = tiny_dataset();
  save_scb(ds, path);
  const ChallengeDataset back = load_scb(path);
  EXPECT_EQ(back.name, ds.name);
  EXPECT_EQ(back.test_trials(), 2u);
  std::filesystem::remove(path);
}

TEST(Scb, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTSCWC1garbagegarbage";
  EXPECT_THROW((void)read_scb(buffer), Error);
}

TEST(Scb, RejectsTruncatedStream) {
  const ChallengeDataset ds = tiny_dataset();
  std::stringstream buffer;
  write_scb(ds, buffer);
  const std::string full = buffer.str();
  for (const double frac : {0.3, 0.6, 0.95}) {
    std::stringstream cut(full.substr(
        0, static_cast<std::size_t>(static_cast<double>(full.size()) * frac)));
    EXPECT_THROW((void)read_scb(cut), Error) << "at fraction " << frac;
  }
}

TEST(Scb, MissingFileThrows) {
  EXPECT_THROW((void)load_scb("/nonexistent/dir/x.scb"), Error);
}

std::string error_message(std::stringstream& buffer) {
  try {
    (void)read_scb(buffer);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Magic + dataset name "x" — the valid prefix of a hand-built .scb.
std::string scb_prefix() {
  std::string out = "SCWCB001";
  append_u64(out, 1);
  out.push_back('x');
  return out;
}

TEST(Scb, BadMagicNamesTheProblem) {
  std::stringstream buffer;
  buffer << "NOTSCWC1garbagegarbage";
  const std::string what = error_message(buffer);
  EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
}

TEST(Scb, TruncationErrorsCarryByteOffset) {
  const ChallengeDataset ds = tiny_dataset();
  std::stringstream full;
  write_scb(ds, full);
  const std::string bytes = full.str();
  // Cut mid-magic, mid-header and mid-tensor: every failure must say what
  // field died and at which byte offset.
  for (const std::size_t cut : {std::size_t{4}, std::size_t{20},
                                bytes.size() / 2}) {
    std::stringstream buffer(bytes.substr(0, cut));
    const std::string what = error_message(buffer);
    EXPECT_NE(what.find("truncated"), std::string::npos)
        << "cut=" << cut << ": " << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos)
        << "cut=" << cut << ": " << what;
  }
}

TEST(Scb, RejectsBadWindowPolicy) {
  std::string bytes = scb_prefix();
  append_u64(bytes, 9);  // policy must be 0..2
  std::stringstream buffer(bytes);
  const std::string what = error_message(buffer);
  EXPECT_NE(what.find("bad window policy 9"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
}

TEST(Scb, RejectsImplausibleTensorDimensions) {
  // A corrupted header claiming 2^40 trials must fail the dimension cap
  // instead of attempting a petabyte allocation (or overflowing size_t).
  std::string bytes = scb_prefix();
  append_u64(bytes, 0);            // policy
  append_u64(bytes, 1ULL << 40);   // trials
  append_u64(bytes, 3);            // steps
  append_u64(bytes, 2);            // sensors
  std::stringstream buffer(bytes);
  const std::string what = error_message(buffer);
  EXPECT_NE(what.find("implausible tensor dimensions"), std::string::npos)
      << what;
}

TEST(Scb, RejectsTensorSizeMismatch) {
  // Header claims 2×3×2 but only one double follows the length field.
  std::string bytes = scb_prefix();
  append_u64(bytes, 0);  // policy
  append_u64(bytes, 2);  // trials
  append_u64(bytes, 3);  // steps
  append_u64(bytes, 2);  // sensors
  append_u64(bytes, 1);  // tensor length: 1 ≠ 12
  bytes.append(sizeof(double), '\0');
  std::stringstream buffer(bytes);
  const std::string what = error_message(buffer);
  EXPECT_NE(what.find("tensor size mismatch"), std::string::npos) << what;
}

TEST(Scb, RejectsUnreasonableStringLength) {
  // The name length field claims 2^32 characters on a 9-byte stream.
  std::string bytes = "SCWCB001";
  append_u64(bytes, 1ULL << 32);
  std::stringstream buffer(bytes);
  const std::string what = error_message(buffer);
  EXPECT_NE(what.find("unreasonable"), std::string::npos) << what;
}

TEST(Scb, RejectsLabelCountMismatch) {
  std::string bytes = scb_prefix();
  append_u64(bytes, 0);  // policy
  append_u64(bytes, 1);  // trials
  append_u64(bytes, 1);  // steps
  append_u64(bytes, 1);  // sensors
  append_u64(bytes, 1);  // tensor length
  bytes.append(sizeof(double), '\0');
  append_u64(bytes, 5);  // label count ≠ trials
  std::stringstream buffer(bytes);
  const std::string what = error_message(buffer);
  EXPECT_NE(what.find("label count mismatch"), std::string::npos) << what;
}

// ------------------------------------------------ recorded layouts + fuzz
//
// .scb caches and .npz releases written by earlier builds must keep their
// exact bytes. The fingerprints were recorded from the per-format encoders
// that preceded the shared byte codec (common/bytes.hpp).

std::string scb_bytes(const ChallengeDataset& ds) {
  std::stringstream buffer;
  write_scb(ds, buffer);
  return buffer.str();
}

ChallengeDataset read_scb_bytes(const std::string& bytes) {
  std::stringstream in(bytes);
  return read_scb(in);
}

TEST(Scb, WriteBytesMatchTheRecordedFingerprint) {
  const std::string bytes = scb_bytes(tiny_dataset());
  EXPECT_EQ(bytes.size(), 607u);
  EXPECT_EQ(bytes_test::fnv1a64(bytes), 0x81c0215c32572a8cULL);
}

TEST(Npz, SaveBytesMatchTheRecordedFingerprint) {
  const auto path =
      std::filesystem::temp_directory_path() / "scwc_fingerprint_tiny.npz";
  save_npz(tiny_dataset(), path);
  std::ifstream is(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  is.close();
  std::filesystem::remove(path);
  EXPECT_EQ(bytes.size(), 2492u);
  EXPECT_EQ(bytes_test::fnv1a64(bytes), 0xd41be0532f289fedULL);
}

TEST(Scb, FuzzByteFlipAtEveryOffsetFailsTypedOrLoadsClean) {
  const std::string bytes = scb_bytes(tiny_dataset());
  const bytes_test::FlipTally tally =
      bytes_test::fuzz_every_flip(bytes, read_scb_bytes);
  // Magic, counts, dimensions, labels and names must actually reject.
  EXPECT_GT(tally.rejected, tally.attempts / 4)
      << tally.rejected << " of " << tally.attempts;
}

TEST(Scb, FuzzTruncationAtEveryOffsetThrowsTyped) {
  bytes_test::expect_every_truncation_throws(scb_bytes(tiny_dataset()),
                                             read_scb_bytes, "scb");
}

TEST(CsvExport, WritesHeaderAndRows) {
  const ChallengeDataset ds = tiny_dataset();
  const auto path = std::filesystem::temp_directory_path() / "scwc_trial.csv";
  export_trial_csv(ds.x_train, 1, path);
  std::ifstream is(path);
  std::string header;
  std::getline(is, header);
  EXPECT_NE(header.find("utilization_gpu_pct"), std::string::npos);
  int rows = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 3);  // steps
  std::filesystem::remove(path);
}

TEST(CsvExport, RejectsBadTrialIndex) {
  const ChallengeDataset ds = tiny_dataset();
  EXPECT_THROW(export_trial_csv(ds.x_train, 99, "/tmp/x.csv"), Error);
}

TEST(Validate, AcceptsConsistentDataset) {
  EXPECT_NO_THROW(tiny_dataset().validate());
}

TEST(Validate, CatchesLengthMismatch) {
  ChallengeDataset ds = tiny_dataset();
  ds.y_train.pop_back();
  EXPECT_THROW(ds.validate(), Error);
}

TEST(Validate, CatchesWrongModelName) {
  ChallengeDataset ds = tiny_dataset();
  ds.model_train[0] = "WrongNet";
  EXPECT_THROW(ds.validate(), Error);
}

TEST(Validate, CatchesLabelOutOfRange) {
  ChallengeDataset ds = tiny_dataset();
  ds.y_test[0] = 26;
  ds.model_test[0] = "whatever";
  EXPECT_THROW(ds.validate(), Error);
}

TEST(Validate, CatchesShapeMismatch) {
  ChallengeDataset ds = tiny_dataset();
  ds.x_test = Tensor3(2, 4, 2);  // wrong steps
  EXPECT_THROW(ds.validate(), Error);
}

}  // namespace
}  // namespace scwc::data
