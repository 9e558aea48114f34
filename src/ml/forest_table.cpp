#include "ml/forest_table.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.hpp"

namespace scwc::ml {

namespace {

// Leaf payload, in the low 51 bits of a quiet NaN (exponent all ones and
// bit 51 set, so every payload stays a NaN):
//   kPureLeaf set    bits 0..31 hold the class; its fraction is 1.0
//   kPureLeaf clear  bits 0..31 hold the first entry, bits 32..49 the count
constexpr std::uint64_t kQuietNaN = 0x7FF8000000000000ULL;
constexpr std::uint64_t kPureLeaf = 1ULL << 50;
constexpr std::uint64_t kCountMask = (1ULL << 18) - 1;
constexpr std::uint64_t kLowMask = 0xFFFFFFFFULL;

std::uint32_t checked_u32(std::size_t v) {
  SCWC_REQUIRE(v <= std::numeric_limits<std::int32_t>::max(),
               "ForestTable: forest too large for 32-bit indices");
  return static_cast<std::uint32_t>(v);
}

}  // namespace

void ForestTable::append(const DecisionTree& tree) {
  SCWC_REQUIRE(!tree.nodes_.empty(), "ForestTable: tree is not fitted");
  if (tree_count() == 0) num_classes_ = tree.num_classes_;
  SCWC_REQUIRE(tree.num_classes_ == num_classes_,
               "ForestTable: trees disagree on the class count");
  for (std::size_t i = 0; i < tree.nodes_.size(); ++i) {
    const DecisionTree::Node& node = tree.nodes_[i];
    const auto self = static_cast<std::int32_t>(checked_u32(i));
    if (node.feature >= 0) {
      SCWC_CHECK(node.left == self + 1 && node.right > node.left,
                 "ForestTable: tree is not stored in preorder");
      nodes_.push_back({node.threshold, node.feature, node.right});
      max_feature_ =
          std::max(max_feature_, static_cast<std::size_t>(node.feature));
      continue;
    }
    // Skipping a +0.0 fraction is exact: the sums it would be added to
    // start at +0.0 and so are never -0.0. Any other bit pattern (-0.0
    // included) is kept, so tree() restores the leaf bit for bit.
    const std::size_t first = entries_.size();
    for (std::size_t c = 0; c < node.class_fraction.size(); ++c) {
      const double f = node.class_fraction[c];
      if (std::bit_cast<std::uint64_t>(f) != 0) {
        entries_.push_back({f, static_cast<std::int32_t>(c)});
      }
    }
    const std::size_t count = entries_.size() - first;
    std::uint64_t payload = 0;
    if (count == 1 && entries_.back().fraction == 1.0) {
      payload = kPureLeaf | static_cast<std::uint32_t>(entries_.back().cls);
      entries_.pop_back();
    } else {
      payload = (static_cast<std::uint64_t>(count) << 32) | checked_u32(first);
    }
    nodes_.push_back({std::bit_cast<double>(kQuietNaN | payload), 0, self});
    leaf_majority_.push_back(node.majority);
  }
  trees_.push_back(
      {checked_u32(nodes_.size()), checked_u32(leaf_majority_.size())});
}

void ForestTable::append(const ForestTable& other) {
  if (other.tree_count() == 0) return;
  if (tree_count() == 0) num_classes_ = other.num_classes_;
  SCWC_REQUIRE(other.num_classes_ == num_classes_,
               "ForestTable: trees disagree on the class count");
  const std::uint32_t node_base = checked_u32(nodes_.size());
  const std::uint32_t leaf_base = checked_u32(leaf_majority_.size());
  const std::size_t entry_base = entries_.size();
  for (std::size_t t = 0; t < other.tree_count(); ++t) {
    const std::size_t first = other.trees_[t].node;
    for (std::size_t i = first; i < other.trees_[t + 1].node; ++i) {
      Node node = other.nodes_[i];
      const auto bits = std::bit_cast<std::uint64_t>(node.threshold);
      if (node.right == static_cast<std::int32_t>(i - first) &&
          (bits & kPureLeaf) == 0) {
        // A leaf with entries: they move up by entry_base.
        const std::uint32_t moved = checked_u32((bits & kLowMask) + entry_base);
        node.threshold = std::bit_cast<double>((bits & ~kLowMask) | moved);
      }
      nodes_.push_back(node);
    }
    trees_.push_back({checked_u32(node_base + other.trees_[t + 1].node),
                      checked_u32(leaf_base + other.trees_[t + 1].leaf)});
  }
  entries_.insert(entries_.end(), other.entries_.begin(), other.entries_.end());
  leaf_majority_.insert(leaf_majority_.end(), other.leaf_majority_.begin(),
                        other.leaf_majority_.end());
  max_feature_ = std::max(max_feature_, other.max_feature_);
}

DecisionTree ForestTable::tree(std::size_t t) const {
  SCWC_REQUIRE(t < tree_count(), "ForestTable: tree index out of range");
  DecisionTreeConfig config;
  config.num_classes = num_classes_;
  DecisionTree out(config);
  out.num_classes_ = num_classes_;
  const std::size_t first = trees_[t].node;
  std::size_t leaf = trees_[t].leaf;
  out.nodes_.resize(trees_[t + 1].node - first);
  for (std::size_t i = 0; i < out.nodes_.size(); ++i) {
    const Node& node = nodes_[first + i];
    DecisionTree::Node& dst = out.nodes_[i];
    if (node.right != static_cast<std::int32_t>(i)) {
      dst.feature = node.feature;
      dst.threshold = node.threshold;
      dst.left = static_cast<std::int32_t>(i + 1);
      dst.right = node.right;
      continue;
    }
    dst.class_fraction.assign(num_classes_, 0.0);
    const auto bits = std::bit_cast<std::uint64_t>(node.threshold);
    const auto low = static_cast<std::uint32_t>(bits & kLowMask);
    if ((bits & kPureLeaf) != 0) {
      dst.class_fraction[low] = 1.0;
    } else {
      const auto end =
          low + static_cast<std::uint32_t>((bits >> 32) & kCountMask);
      for (std::uint32_t e = low; e < end; ++e) {
        dst.class_fraction[static_cast<std::size_t>(entries_[e].cls)] =
            entries_[e].fraction;
      }
    }
    dst.majority = leaf_majority_[leaf++];
  }
  out.depth_ = out.preorder_depth();
  return out;
}

void ForestTable::accumulate(const linalg::Matrix& x, std::size_t row_begin,
                             std::size_t row_end, linalg::Matrix& sum) const {
  SCWC_CHECK(sum.cols() == num_classes_ && sum.rows() == x.rows() &&
                 x.cols() > max_feature_ && row_end <= x.rows(),
             "ForestTable::accumulate: shape mismatch");
  const std::size_t trees = tree_count();
  for (std::size_t r0 = row_begin; r0 < row_end; r0 += kTileRows) {
    const std::size_t lanes = std::min(kTileRows, row_end - r0);
    const double* rows[kTileRows];
    double* sums[kTileRows];
    for (std::size_t l = 0; l < lanes; ++l) {
      rows[l] = x.data() + (r0 + l) * x.cols();
      sums[l] = sum.data() + (r0 + l) * num_classes_;
    }
    for (std::size_t t = 0; t < trees; ++t) {
      const Node* tree = nodes_.data() + trees_[t].node;
      std::int32_t at[kTileRows] = {};
      // Lockstep descent: go_left picks i+1, otherwise `right`; a lane on
      // its leaf keeps its index. The tile is done after the first pass in
      // which no lane moved, i.e. every lane sits on its leaf.
      bool moved = true;
      while (moved) {
        moved = false;
        for (std::size_t l = 0; l < lanes; ++l) {
          const Node& node = tree[at[l]];
          const std::int32_t go_left =
              rows[l][node.feature] <= node.threshold ? 1 : 0;
          const std::int32_t next =
              node.right + go_left * (at[l] + 1 - node.right);
          moved |= next != at[l];
          at[l] = next;
        }
      }
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto bits = std::bit_cast<std::uint64_t>(tree[at[l]].threshold);
        const auto low = static_cast<std::uint32_t>(bits & kLowMask);
        if ((bits & kPureLeaf) != 0) {
          sums[l][low] += 1.0;
          continue;
        }
        const auto end =
            low + static_cast<std::uint32_t>((bits >> 32) & kCountMask);
        for (std::uint32_t e = low; e < end; ++e) {
          sums[l][entries_[e].cls] += entries_[e].fraction;
        }
      }
    }
  }
}

}  // namespace scwc::ml
