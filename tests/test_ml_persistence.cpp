// Tests for trained-model persistence (tree + forest save/load).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fuzz_bytes.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace scwc::ml {
namespace {

using linalg::Matrix;

void make_blobs(std::size_t per_class, std::size_t classes, std::size_t dims,
                Matrix& x, std::vector<int>& y, std::uint64_t seed) {
  Rng rng(seed);
  x = Matrix(per_class * classes, dims);
  y.assign(per_class * classes, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = c * per_class + i;
      y[row] = static_cast<int>(c);
      for (std::size_t d = 0; d < dims; ++d) {
        x(row, d) = (d == c % dims ? 3.0 : 0.0) + rng.normal();
      }
    }
  }
}

TEST(Persistence, TreeRoundTripsThroughMemory) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 4, x, y, 1);
  DecisionTree tree;
  tree.fit(x, y);

  std::stringstream buffer;
  tree.save(buffer);
  DecisionTree restored;
  restored.load(buffer);

  EXPECT_EQ(restored.node_count(), tree.node_count());
  EXPECT_EQ(restored.depth(), tree.depth());
  EXPECT_EQ(restored.num_classes(), tree.num_classes());
  EXPECT_EQ(restored.predict(x), tree.predict(x));
  EXPECT_DOUBLE_EQ(restored.predict_proba(x).max_abs_diff(tree.predict_proba(x)),
            0.0);
}

TEST(Persistence, ForestRoundTripsThroughMemory) {
  Matrix x;
  std::vector<int> y;
  make_blobs(25, 4, 5, x, y, 2);
  RandomForest forest({.n_estimators = 12});
  forest.fit(x, y);

  std::stringstream buffer;
  forest.save(buffer);
  RandomForest restored;
  restored.load(buffer);

  EXPECT_EQ(restored.tree_count(), 12u);
  EXPECT_EQ(restored.predict(x), forest.predict(x));
  EXPECT_DOUBLE_EQ(restored.predict_proba(x).max_abs_diff(forest.predict_proba(x)),
            0.0);
}

TEST(Persistence, ForestRoundTripsThroughFile) {
  Matrix x;
  std::vector<int> y;
  make_blobs(20, 3, 3, x, y, 3);
  RandomForest forest({.n_estimators = 8});
  forest.fit(x, y);
  const auto path =
      (std::filesystem::temp_directory_path() / "scwc_forest.bin").string();
  forest.save_file(path);
  RandomForest restored;
  restored.load_file(path);
  std::filesystem::remove(path);
  EXPECT_EQ(restored.predict(x), forest.predict(x));
}

TEST(Persistence, LoadedForestGeneralisesLikeTheOriginal) {
  Matrix x_train;
  std::vector<int> y_train;
  make_blobs(40, 3, 4, x_train, y_train, 4);
  Matrix x_test;
  std::vector<int> y_test;
  make_blobs(15, 3, 4, x_test, y_test, 5);
  RandomForest forest({.n_estimators = 20});
  forest.fit(x_train, y_train);
  std::stringstream buffer;
  forest.save(buffer);
  RandomForest restored;
  restored.load(buffer);
  EXPECT_DOUBLE_EQ(accuracy(y_test, restored.predict(x_test)),
                   accuracy(y_test, forest.predict(x_test)));
}

TEST(Persistence, RejectsGarbage) {
  RandomForest forest;
  std::stringstream garbage("not a forest at all, sorry");
  EXPECT_THROW(forest.load(garbage), Error);
}

TEST(Persistence, RejectsTruncatedStream) {
  Matrix x;
  std::vector<int> y;
  make_blobs(15, 2, 3, x, y, 6);
  RandomForest forest({.n_estimators = 4});
  forest.fit(x, y);
  std::stringstream buffer;
  forest.save(buffer);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  RandomForest restored;
  EXPECT_THROW(restored.load(cut), Error);
}

TEST(Persistence, SaveBeforeFitThrows) {
  RandomForest forest;
  std::stringstream buffer;
  EXPECT_THROW(forest.save(buffer), Error);
}

// ------------------------------------------------------- SCWC_RF1 layout
//
// save() writes the SCWC_RF1 byte layout the serving bundles (SCWCBNDL v1)
// embed. The fingerprints pin the bytes of two fixed fits: the same fit must
// keep producing the same bytes, or bundles already written elsewhere would
// no longer match what this build writes.

std::string saved_bytes(const RandomForest& forest) {
  std::stringstream buffer;
  forest.save(buffer);
  return buffer.str();
}

TEST(Persistence, SaveBytesMatchTheRecordedLayout) {
  Matrix x;
  std::vector<int> y;
  make_blobs(25, 4, 5, x, y, 2);
  RandomForest pure({.n_estimators = 12});
  pure.fit(x, y);
  const std::string pure_bytes = saved_bytes(pure);
  EXPECT_EQ(pure_bytes.size(), 12536u);
  EXPECT_EQ(bytes_test::fnv1a64(pure_bytes), 1908206968134899831ULL);

  RandomForestConfig config;
  config.n_estimators = 9;
  config.tree.min_samples_leaf = 5;
  RandomForest impure(config);
  impure.fit(x, y);
  const std::string impure_bytes = saved_bytes(impure);
  EXPECT_EQ(impure_bytes.size(), 7360u);
  EXPECT_EQ(bytes_test::fnv1a64(impure_bytes), 7561247615936941099ULL);

  // save -> load -> save is the identity on the bytes.
  std::stringstream in(impure_bytes);
  RandomForest restored;
  restored.load(in);
  EXPECT_EQ(saved_bytes(restored), impure_bytes);
}

// Every single-byte flip of a small SCWC_RF1 stream either loads a forest
// or throws scwc::Error, and every truncation throws.
std::string small_forest_bytes() {
  Matrix x;
  std::vector<int> y;
  make_blobs(15, 3, 3, x, y, 6);
  RandomForestConfig config;
  config.n_estimators = 2;
  config.tree.max_depth = 3;
  RandomForest forest(config);
  forest.fit(x, y);
  return saved_bytes(forest);
}

void load_forest(const std::string& bytes) {
  std::stringstream in(bytes);
  RandomForest forest;
  forest.load(in);
}

TEST(Persistence, FuzzByteFlipAtEveryOffsetFailsTypedOrLoadsClean) {
  const std::string bytes = small_forest_bytes();
  const bytes_test::FlipTally tally =
      bytes_test::fuzz_every_flip(bytes, load_forest);
  // Magic, counts, child indices and fraction counts must actually reject.
  EXPECT_GT(tally.rejected, 0u);
}

TEST(Persistence, FuzzTruncationAtEveryOffsetThrowsTyped) {
  bytes_test::expect_every_truncation_throws(small_forest_bytes(),
                                             load_forest, "SCWC_RF1");
}

TEST(Persistence, RestoredForestPredictsBitIdentically) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 4, 5, x, y, 7);
  RandomForestConfig config;
  config.n_estimators = 15;
  config.tree.min_samples_leaf = 3;
  RandomForest forest(config);
  forest.fit(x, y);
  std::stringstream buffer;
  forest.save(buffer);
  RandomForest restored;
  restored.load(buffer);
  for (const std::size_t n : {1u, 7u, 8u, 63u, 64u, 65u, 120u}) {
    Matrix rows(n, x.cols());
    for (std::size_t r = 0; r < n; ++r) {
      const auto src = x.row(r % x.rows());
      std::copy(src.begin(), src.end(), rows.row(r).begin());
    }
    const Matrix a = forest.predict_proba(rows);
    const Matrix b = restored.predict_proba(rows);
    ASSERT_EQ(a.rows(), b.rows());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(double)),
              0)
        << "batch " << n;
  }
}

// ------------------------------------------------------ crafted trees
//
// Hand-built DecisionTree byte streams (the per-tree half of SCWC_RF1):
// num_classes, depth, node count, then per node feature, threshold, left,
// right, majority (the largest fraction; 0 for internal nodes), fraction
// count and fractions.

struct CraftedNode {
  std::int64_t feature = -1;
  double threshold = 0.0;
  std::int64_t left = -1;
  std::int64_t right = -1;
  std::vector<double> fractions;
};

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::string crafted_tree(std::uint64_t classes, std::uint64_t depth,
                         const std::vector<CraftedNode>& nodes) {
  std::string out;
  put_u64(out, classes);
  put_u64(out, depth);
  put_u64(out, nodes.size());
  for (const CraftedNode& n : nodes) {
    put_u64(out, static_cast<std::uint64_t>(n.feature));
    put_f64(out, n.threshold);
    put_u64(out, static_cast<std::uint64_t>(n.left));
    put_u64(out, static_cast<std::uint64_t>(n.right));
    put_u64(out, static_cast<std::uint64_t>(std::distance(
                     n.fractions.begin(),
                     std::max_element(n.fractions.begin(), n.fractions.end()))));
    put_u64(out, n.fractions.size());
    for (const double f : n.fractions) put_f64(out, f);
  }
  return out;
}

std::string crafted_forest(std::uint64_t classes, const std::string& tree) {
  std::string out;
  put_u64(out, 0x534357435F524631ULL);  // "SCWC_RF1"
  put_u64(out, classes);
  put_u64(out, 1);
  return out + tree;
}

// A root split on feature 0 with two pure leaves: depth 1.
std::vector<CraftedNode> stump() {
  return {{.feature = 0, .threshold = 0.5, .left = 1, .right = 2, .fractions = {}},
          {.fractions = {1.0, 0.0}},
          {.fractions = {0.0, 1.0}}};
}

void expect_tree_rejected(const std::string& bytes) {
  std::stringstream tree_in(bytes);
  DecisionTree tree;
  EXPECT_THROW(tree.load(tree_in), Error);
  std::stringstream forest_in(crafted_forest(2, bytes));
  RandomForest forest;
  EXPECT_THROW(forest.load(forest_in), Error);
}

TEST(Persistence, CraftedStumpLoadsAndPredicts) {
  std::stringstream in(crafted_forest(2, crafted_tree(2, 1, stump())));
  RandomForest forest;
  forest.load(in);
  Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  EXPECT_EQ(forest.predict(x), (std::vector<int>{0, 1}));
  std::stringstream tree_in(crafted_tree(2, 1, stump()));
  DecisionTree tree;
  tree.load(tree_in);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_EQ(tree.predict(x), (std::vector<int>{0, 1}));
}

TEST(Persistence, LoadedModelRejectsRowsNarrowerThanItsSplits) {
  std::vector<CraftedNode> nodes = stump();
  nodes[0].feature = 3;  // needs rows of at least four features
  const std::string bytes = crafted_tree(2, 1, nodes);
  const Matrix narrow(2, 3);
  std::stringstream tree_in(bytes);
  DecisionTree tree;
  tree.load(tree_in);
  EXPECT_THROW((void)tree.predict(narrow), Error);
  std::stringstream forest_in(crafted_forest(2, bytes));
  RandomForest forest;
  forest.load(forest_in);
  EXPECT_THROW((void)forest.predict(narrow), Error);
  EXPECT_EQ(forest.predict(Matrix(2, 4)), (std::vector<int>{0, 0}));
}

TEST(Persistence, RejectsChildPointingBackToAnAncestor) {
  std::vector<CraftedNode> nodes = stump();
  nodes[0].right = 0;  // the root is its own right child: descend never ends
  expect_tree_rejected(crafted_tree(2, 1, nodes));

  // A deeper cycle: node 2 splits again and points back to the root.
  nodes = stump();
  nodes[2] = {.feature = 0, .threshold = 0.7, .left = 3, .right = 0, .fractions = {}};
  nodes.push_back({.fractions = {0.0, 1.0}});
  expect_tree_rejected(crafted_tree(2, 2, nodes));
}

TEST(Persistence, RejectsChildSharedByTwoParents) {
  std::vector<CraftedNode> nodes = {
      {.feature = 0, .threshold = 0.5, .left = 1, .right = 2, .fractions = {}},
      {.feature = 0, .threshold = 0.2, .left = 2, .right = 3, .fractions = {}},
      {.fractions = {1.0, 0.0}},
      {.fractions = {0.0, 1.0}}};
  expect_tree_rejected(crafted_tree(2, 2, nodes));
}

TEST(Persistence, RejectsLeafWithFewerFractionsThanClasses) {
  std::vector<CraftedNode> nodes = stump();
  nodes[2].fractions = {1.0};  // two classes, one fraction
  expect_tree_rejected(crafted_tree(2, 1, nodes));
}

TEST(Persistence, RejectsStoredDepthThatDisagreesWithTheStructure) {
  expect_tree_rejected(crafted_tree(2, 0, stump()));
  expect_tree_rejected(crafted_tree(2, 7, stump()));
}

TEST(Persistence, RejectsTreeWhoseClassCountDisagreesWithTheForest) {
  std::vector<CraftedNode> nodes = stump();
  for (CraftedNode& n : nodes) {
    if (!n.fractions.empty()) n.fractions.push_back(0.0);
  }
  std::stringstream in(crafted_forest(2, crafted_tree(3, 1, nodes)));
  RandomForest forest;
  EXPECT_THROW(forest.load(in), Error);
}

}  // namespace
}  // namespace scwc::ml
