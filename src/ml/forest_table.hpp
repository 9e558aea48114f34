// Compiled form of a tree ensemble: every tree in one contiguous node table.
//
// RandomForest keeps only this form. Nodes of each tree are stored in
// preorder, so an internal node's left child is always the next node and a
// node needs just {threshold, feature, right} — 16 bytes.
//
// A leaf points at itself and its threshold is a quiet NaN, so `value <=
// threshold` is false for every value and a lane that reached its leaf
// stays there. The NaN's payload bits locate the leaf's class fractions: a
// pure leaf (one class, fraction 1.0 — every leaf of a fully grown tree)
// carries its class; any other leaf carries the range of its non-zero
// (class, fraction) entries in a sparse side table.
//
// Prediction walks a tile of rows through one tree at a time, all lanes in
// lockstep, and computes each child index without a branch. Each row's
// class sums are accumulated tree by tree in tree order, which makes the
// result independent of how rows are split over threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/decision_tree.hpp"

namespace scwc::ml {

class ForestTable {
 public:
  /// Rows walked together through a tree.
  static constexpr std::size_t kTileRows = 16;

  /// Compiles a fitted tree and appends it as the last tree.
  void append(const DecisionTree& tree);
  /// Appends every tree of `other`, in order.
  void append(const ForestTable& other);
  /// Rebuilds tree `t` as a DecisionTree, bit for bit as it was appended.
  [[nodiscard]] DecisionTree tree(std::size_t t) const;

  /// Adds, for rows [row_begin, row_end) of `x`, every tree's leaf class
  /// fractions to the same rows of `sum`, in tree order. `sum` must have
  /// num_classes() columns and `x` more than max_feature() columns.
  void accumulate(const linalg::Matrix& x, std::size_t row_begin,
                  std::size_t row_end, linalg::Matrix& sum) const;

  [[nodiscard]] std::size_t tree_count() const noexcept {
    return trees_.size() - 1;
  }
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return num_classes_;
  }
  /// Largest feature index any node reads (0 for a forest of leaves).
  [[nodiscard]] std::size_t max_feature() const noexcept {
    return max_feature_;
  }

 private:
  struct Node {
    double threshold;      // a NaN carrying the leaf payload for a leaf
    std::int32_t feature;  // 0 for a leaf, so the read stays in bounds
    std::int32_t right;    // index within the tree; a leaf's own index
  };
  struct LeafEntry {
    double fraction;
    std::int32_t cls;
  };
  /// Where each tree starts in nodes_ and leaf_majority_; one extra entry
  /// marks the end of the last tree.
  struct TreeStart {
    std::uint32_t node;
    std::uint32_t leaf;
  };

  std::size_t num_classes_ = 0;
  std::size_t max_feature_ = 0;
  std::vector<Node> nodes_;
  std::vector<TreeStart> trees_{TreeStart{0, 0}};
  /// Non-zero class fractions of the leaves that are not pure.
  std::vector<LeafEntry> entries_;
  /// Majority class of every leaf in table order; only save() needs it.
  std::vector<std::int32_t> leaf_majority_;
};

}  // namespace scwc::ml
