// Random forest classifier (bagging + per-split feature subsampling).
//
// Matches scikit-learn's RandomForestClassifier defaults where the paper
// relies on them: Gini splits, bootstrap samples the size of the training
// set, sqrt(d) features per split, soft (probability-averaged) voting.
// Trees are grown in parallel, each from a forked RNG stream, so results
// are independent of the thread count. Fitted trees are compiled into one
// node table (ml/forest_table.hpp), the only form the forest keeps.
#pragma once

#include <cstdint>
#include <memory>

#include "ml/decision_tree.hpp"
#include "ml/forest_table.hpp"

namespace scwc::ml {

/// Forest hyper-parameters. The paper grid-searches n_estimators over
/// {50, 100, 250}.
struct RandomForestConfig {
  std::size_t n_estimators = 100;
  DecisionTreeConfig tree;           ///< tree.max_features 0 → sqrt(d)
  bool bootstrap = true;
  std::uint64_t seed = 20220401;
};

/// Ensemble of CART trees with probability-averaged voting.
class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestConfig config = {}) : config_(config) {}

  void fit(const linalg::Matrix& x, std::span<const int> y) override;
  [[nodiscard]] std::vector<int> predict(const linalg::Matrix& x) const override;
  /// Mean of the trees' leaf class fractions, summed per row in tree order
  /// and scaled by 1/tree_count(). Bit-identical for any batch split and
  /// thread count. Rows must have more columns than the largest feature
  /// index the trees split on.
  [[nodiscard]] linalg::Matrix predict_proba(const linalg::Matrix& x) const;
  [[nodiscard]] std::string name() const override { return "RandomForest"; }

  [[nodiscard]] std::size_t tree_count() const noexcept {
    return table_.tree_count();
  }
  [[nodiscard]] const RandomForestConfig& config() const noexcept {
    return config_;
  }

  /// Serialises the fitted forest so a deployed monitor (see
  /// examples/live_monitor.cpp) can load it without retraining. The
  /// SCWC_RF1 layout: magic, class count, tree count, then each tree as
  /// DecisionTree::save writes it.
  void save(std::ostream& os) const;
  void save(ByteWriter& w) const;
  /// Restores a forest written by save(). Throws scwc::Error on malformed
  /// input (see DecisionTree::load) and leaves the forest unchanged then.
  void load(std::istream& is);
  void load(ByteReader& r);
  /// File-path convenience wrappers.
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  RandomForestConfig config_;
  ForestTable table_;
};

}  // namespace scwc::ml
