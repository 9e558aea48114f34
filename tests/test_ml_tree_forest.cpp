// Tests for the CART decision tree and the random forest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/decision_tree.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace scwc::ml {
namespace {

using linalg::Matrix;

/// Gaussian blobs: `classes` clusters in `dims` dimensions.
void make_blobs(std::size_t per_class, std::size_t classes, std::size_t dims,
                double spread, Matrix& x, std::vector<int>& y,
                std::uint64_t seed = 31) {
  Rng rng(seed);
  x = Matrix(per_class * classes, dims);
  y.assign(per_class * classes, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = c * per_class + i;
      y[row] = static_cast<int>(c);
      for (std::size_t d = 0; d < dims; ++d) {
        const double center = (d % classes == c) ? 4.0 : 0.0;
        x(row, d) = center + rng.normal() * spread;
      }
    }
  }
}

TEST(DecisionTree, PerfectlySeparableDataIsLearnedExactly) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 4, 0.2, x, y);
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(accuracy(y, tree.predict(x)), 1.0);
}

TEST(DecisionTree, LearnsXorWithDepthTwo) {
  // XOR needs two levels of splits — a classic axis-aligned CART case.
  Matrix x(200, 2);
  std::vector<int> y(200);
  Rng rng(3);
  for (std::size_t i = 0; i < 200; ++i) {
    const bool a = rng.bernoulli(0.5);
    const bool b = rng.bernoulli(0.5);
    x(i, 0) = (a ? 1.0 : 0.0) + rng.normal() * 0.1;
    x(i, 1) = (b ? 1.0 : 0.0) + rng.normal() * 0.1;
    y[i] = (a != b) ? 1 : 0;
  }
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_GT(accuracy(y, tree.predict(x)), 0.98);
  EXPECT_GE(tree.depth(), 2u);
}

TEST(DecisionTree, MaxDepthLimitsTree) {
  Matrix x;
  std::vector<int> y;
  make_blobs(50, 4, 3, 1.5, x, y);
  DecisionTreeConfig config;
  config.max_depth = 1;
  DecisionTree stump(config);
  stump.fit(x, y);
  EXPECT_LE(stump.depth(), 1u);
  EXPECT_LE(stump.node_count(), 3u);
}

TEST(DecisionTree, MinSamplesLeafIsRespected) {
  Matrix x;
  std::vector<int> y;
  make_blobs(20, 2, 2, 2.0, x, y);
  DecisionTreeConfig config;
  config.min_samples_leaf = 10;
  DecisionTree tree(config);
  tree.fit(x, y);
  // With 40 samples and ≥10 per leaf, there can be at most 4 leaves.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTree, ProbabilitiesSumToOne) {
  Matrix x;
  std::vector<int> y;
  make_blobs(25, 3, 3, 1.0, x, y);
  DecisionTree tree;
  tree.fit(x, y);
  const Matrix proba = tree.predict_proba(x);
  ASSERT_EQ(proba.cols(), 3u);
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GE(proba(r, c), 0.0);
      sum += proba(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DecisionTree, SingleClassDataGivesLeafOnly) {
  Matrix x(10, 2, 1.0);
  std::vector<int> y(10, 3);  // all class 3
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  const auto pred = tree.predict(x);
  for (const int p : pred) EXPECT_EQ(p, 3);
}

TEST(DecisionTree, NumClassesOverrideWidensProba) {
  Matrix x(10, 2);
  for (std::size_t i = 0; i < 10; ++i) x(i, 0) = static_cast<double>(i);
  std::vector<int> y(10, 0);
  DecisionTreeConfig config;
  config.num_classes = 5;
  DecisionTree tree(config);
  tree.fit(x, y);
  EXPECT_EQ(tree.predict_proba(x).cols(), 5u);
}

TEST(DecisionTree, DeterministicForFixedSeed) {
  Matrix x;
  std::vector<int> y;
  make_blobs(40, 3, 6, 1.2, x, y);
  DecisionTreeConfig config;
  config.max_features = 2;  // random feature subsets engage the RNG
  DecisionTree a(config, 5);
  DecisionTree b(config, 5);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_EQ(a.predict(x), b.predict(x));
}

TEST(DecisionTree, ErrorsOnMisuse) {
  DecisionTree tree;
  Matrix x(3, 2);
  EXPECT_THROW((void)tree.predict(x), Error);  // before fit
  std::vector<int> wrong(2, 0);
  EXPECT_THROW(tree.fit(x, wrong), Error);  // length mismatch
  std::vector<int> neg{0, -1, 0};
  EXPECT_THROW(tree.fit(x, neg), Error);
}

TEST(RandomForest, FitsBlobsWellOnHeldOut) {
  Matrix x_train;
  std::vector<int> y_train;
  make_blobs(60, 4, 6, 1.8, x_train, y_train, 7);
  Matrix x_test;
  std::vector<int> y_test;
  make_blobs(20, 4, 6, 1.8, x_test, y_test, 8);
  RandomForest forest({.n_estimators = 40});
  forest.fit(x_train, y_train);
  EXPECT_GT(accuracy(y_test, forest.predict(x_test)), 0.9);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  Matrix x_train;
  std::vector<int> y_train;
  make_blobs(50, 5, 8, 3.0, x_train, y_train, 11);
  Matrix x_test;
  std::vector<int> y_test;
  make_blobs(40, 5, 8, 3.0, x_test, y_test, 12);

  DecisionTree tree;
  tree.fit(x_train, y_train);
  RandomForest forest({.n_estimators = 60});
  forest.fit(x_train, y_train);
  const double tree_acc = accuracy(y_test, tree.predict(x_test));
  const double forest_acc = accuracy(y_test, forest.predict(x_test));
  EXPECT_GE(forest_acc, tree_acc - 0.02);
}

TEST(RandomForest, ProbaAveragesToDistribution) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 4, 1.0, x, y);
  RandomForest forest({.n_estimators = 10});
  forest.fit(x, y);
  const Matrix proba = forest.predict_proba(x);
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < proba.cols(); ++c) sum += proba(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForest, DeterministicAcrossRuns) {
  Matrix x;
  std::vector<int> y;
  make_blobs(40, 3, 5, 1.5, x, y, 13);
  RandomForestConfig config;
  config.n_estimators = 15;
  config.seed = 99;
  RandomForest a(config);
  RandomForest b(config);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_EQ(a.predict(x), b.predict(x));
}

TEST(RandomForest, TreeCountMatchesConfig) {
  Matrix x;
  std::vector<int> y;
  make_blobs(10, 2, 2, 1.0, x, y);
  RandomForest forest({.n_estimators = 7});
  forest.fit(x, y);
  EXPECT_EQ(forest.tree_count(), 7u);
}

TEST(RandomForest, WithoutBootstrapStillWorks) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 4, 0.5, x, y);
  RandomForestConfig config;
  config.n_estimators = 9;
  config.bootstrap = false;
  RandomForest forest(config);
  forest.fit(x, y);
  EXPECT_GT(accuracy(y, forest.predict(x)), 0.95);
}

TEST(RandomForest, ErrorsOnMisuse) {
  RandomForest forest;
  Matrix x(2, 2);
  EXPECT_THROW((void)forest.predict(x), Error);
  RandomForestConfig bad;
  bad.n_estimators = 0;
  RandomForest zero(bad);
  std::vector<int> y{0, 1};
  EXPECT_THROW(zero.fit(x, y), Error);
}


// ---------------------------------------------------------------- parity
//
// The forest predicts from one compiled node table. The reference below is
// the plain per-tree walker: every tree of the forest is read back from the
// forest's own save() bytes with DecisionTree::load, and the trees'
// predict_proba results are summed in tree order and scaled by 1/T. The
// compiled path must reproduce that bit for bit.

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(is.get()))
         << (8 * i);
  }
  return v;
}

Matrix per_tree_reference(const RandomForest& forest, const Matrix& x) {
  std::stringstream bytes;
  forest.save(bytes);
  (void)read_u64(bytes);  // magic
  const std::uint64_t classes = read_u64(bytes);
  const std::uint64_t trees = read_u64(bytes);
  Matrix sum(x.rows(), classes);
  for (std::uint64_t t = 0; t < trees; ++t) {
    DecisionTree tree;
    tree.load(bytes);
    sum += tree.predict_proba(x);
  }
  sum *= 1.0 / static_cast<double>(trees);
  return sum;
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(double)) ==
             0;
}

Matrix cycled_rows(const Matrix& x, std::size_t n) {
  Matrix out(n, x.cols());
  for (std::size_t r = 0; r < n; ++r) {
    const auto src = x.row(r % x.rows());
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  return out;
}

std::vector<int> argmax_rows(const Matrix& proba) {
  std::vector<int> out(proba.rows());
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < proba.cols(); ++c) {
      if (proba(r, c) > proba(r, best)) best = c;
    }
    out[r] = static_cast<int>(best);
  }
  return out;
}

void expect_parity_over_batch_sizes(const RandomForest& forest,
                                    const Matrix& pool_rows) {
  for (const std::size_t n : {1u, 7u, 8u, 63u, 64u, 65u, 1000u}) {
    const Matrix x = cycled_rows(pool_rows, n);
    const Matrix reference = per_tree_reference(forest, x);
    const Matrix proba = forest.predict_proba(x);
    EXPECT_TRUE(bit_equal(proba, reference)) << "batch " << n;
    EXPECT_EQ(forest.predict(x), argmax_rows(reference)) << "batch " << n;
  }
}

TEST(RandomForestParity, CompiledPredictEqualsPerTreeSumBitForBit) {
  Matrix x;
  std::vector<int> y;
  make_blobs(60, 5, 7, 2.5, x, y, 41);
  RandomForest forest({.n_estimators = 30});
  forest.fit(x, y);
  Matrix probe;
  std::vector<int> unused;
  make_blobs(40, 5, 7, 3.0, probe, unused, 42);
  expect_parity_over_batch_sizes(forest, probe);
}

TEST(RandomForestParity, ImpureLeavesKeepParity) {
  Matrix x;
  std::vector<int> y;
  make_blobs(60, 5, 7, 3.0, x, y, 43);
  RandomForestConfig config;
  config.n_estimators = 25;
  config.tree.min_samples_leaf = 5;  // leaves hold mixed class fractions
  RandomForest forest(config);
  forest.fit(x, y);
  Matrix probe;
  std::vector<int> unused;
  make_blobs(40, 5, 7, 3.0, probe, unused, 44);
  // The fixture is only meaningful if some leaf is impure: then some row
  // gets a fraction strictly between 0 and 1 from at least one tree.
  const Matrix proba = forest.predict_proba(probe);
  bool fractional = false;
  for (const double p : proba.flat()) {
    const double votes = p * 25.0;
    fractional = fractional || std::abs(votes - std::round(votes)) > 1e-9;
  }
  EXPECT_TRUE(fractional);
  expect_parity_over_batch_sizes(forest, probe);
}

TEST(RandomForestParity, SameResultInsideAndOutsideThePool) {
  Matrix x;
  std::vector<int> y;
  make_blobs(50, 4, 6, 2.5, x, y, 45);
  RandomForestConfig config;
  config.n_estimators = 20;
  config.tree.min_samples_leaf = 5;  // fractional sums are order-sensitive
  RandomForest forest(config);
  forest.fit(x, y);
  Matrix probe;
  std::vector<int> unused;
  make_blobs(50, 4, 6, 3.0, probe, unused, 46);  // 200 rows: several tiles
  const Matrix reference = per_tree_reference(forest, probe);
  for (int repeat = 0; repeat < 50; ++repeat) {
    const Matrix outside = forest.predict_proba(probe);
    Matrix inside;
    ThreadPool::global()
        .submit([&] { inside = forest.predict_proba(probe); })
        .get();
    ASSERT_TRUE(bit_equal(outside, reference)) << "repeat " << repeat;
    ASSERT_TRUE(bit_equal(inside, reference)) << "repeat " << repeat;
  }
}

TEST(RandomForestParity, RejectsRowsNarrowerThanTheModel) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 6, 1.0, x, y);
  RandomForest forest({.n_estimators = 5});
  forest.fit(x, y);
  const Matrix narrow(4, 2);
  EXPECT_THROW((void)forest.predict_proba(narrow), Error);
}

}  // namespace
}  // namespace scwc::ml
