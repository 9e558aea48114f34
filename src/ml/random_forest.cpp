#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scwc::ml {

void RandomForest::fit(const linalg::Matrix& x, std::span<const int> y) {
  SCWC_REQUIRE(x.rows() == y.size(), "RandomForest: X/y length mismatch");
  SCWC_REQUIRE(x.rows() > 0, "RandomForest: empty training set");
  SCWC_REQUIRE(config_.n_estimators > 0, "RandomForest: need at least 1 tree");

  int max_label = 0;
  for (const int label : y) max_label = std::max(max_label, label);

  DecisionTreeConfig tree_config = config_.tree;
  tree_config.num_classes = static_cast<std::size_t>(max_label) + 1;
  if (tree_config.max_features == 0) {
    tree_config.max_features = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(x.cols()))));
  }

  // Pre-draw every tree's stream so results do not depend on scheduling.
  Rng root(config_.seed);
  std::vector<std::uint64_t> tree_seeds(config_.n_estimators);
  std::vector<std::uint64_t> bootstrap_seeds(config_.n_estimators);
  for (std::size_t t = 0; t < config_.n_estimators; ++t) {
    tree_seeds[t] = root.next_u64();
    bootstrap_seeds[t] = root.next_u64();
  }

  // Each worker compiles its tree as soon as it is grown and drops the
  // per-node form, so the fit never holds every tree twice.
  std::vector<ForestTable> compiled(config_.n_estimators);
  const std::size_t n = x.rows();
  const obs::TraceSpan fit_span("rf.fit");
  const obs::CounterHandle trees_total =
      obs::MetricsRegistry::global().counter("scwc_ml_rf_trees_total");
  parallel_for(
      0, config_.n_estimators,
      [&](std::size_t t) {
        DecisionTree tree(tree_config, tree_seeds[t]);
        if (config_.bootstrap) {
          Rng boot(bootstrap_seeds[t]);
          std::vector<std::size_t> rows(n);
          for (std::size_t i = 0; i < n; ++i) {
            rows[i] = static_cast<std::size_t>(boot.uniform_index(n));
          }
          tree.fit_on_rows(x, y, rows);
        } else {
          tree.fit(x, y);
        }
        compiled[t].append(tree);
        trees_total.inc();
      },
      1);
  ForestTable table;
  for (const ForestTable& one : compiled) table.append(one);
  table_ = std::move(table);
}

linalg::Matrix RandomForest::predict_proba(const linalg::Matrix& x) const {
  SCWC_REQUIRE(table_.tree_count() > 0, "RandomForest::predict before fit");
  SCWC_REQUIRE(x.cols() > table_.max_feature(),
               "RandomForest::predict: rows have fewer features than the "
               "model splits on");
  const std::size_t rows = x.rows();
  linalg::Matrix proba(rows, table_.num_classes());
  // Soft voting over row tiles. Every row is summed in tree order whichever
  // thread runs its tile, so the split cannot change a single bit. On a
  // pool worker (every serving call) this runs serially.
  constexpr std::size_t kTile = ForestTable::kTileRows;
  parallel_for_blocked(
      0, (rows + kTile - 1) / kTile,
      [&](std::size_t lo, std::size_t hi) {
        table_.accumulate(x, lo * kTile, std::min(rows, hi * kTile), proba);
      },
      1);
  proba *= 1.0 / static_cast<double>(table_.tree_count());
  return proba;
}

std::vector<int> RandomForest::predict(const linalg::Matrix& x) const {
  const linalg::Matrix proba = predict_proba(x);
  std::vector<int> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = proba.row(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < row.size(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = static_cast<int>(best);
  }
  return out;
}

namespace {
constexpr std::uint64_t kForestMagic = 0x534357435F524631ULL;  // "SCWC_RF1"
}

void RandomForest::save(std::ostream& os) const {
  ByteWriter w(os);
  save(w);
  w.finish();
}

void RandomForest::load(std::istream& is) {
  ByteReader r(is, "model");
  load(r);
}

void RandomForest::save(ByteWriter& w) const {
  SCWC_REQUIRE(table_.tree_count() > 0, "RandomForest::save before fit");
  w.u64(kForestMagic);
  w.u64(table_.num_classes());
  w.u64(table_.tree_count());
  for (std::size_t t = 0; t < table_.tree_count(); ++t) table_.tree(t).save(w);
}

void RandomForest::load(ByteReader& r) {
  SCWC_REQUIRE(r.u64("magic") == kForestMagic,
               "RandomForest::load: bad magic");
  const std::uint64_t num_classes = r.u64("class count");
  const std::uint64_t count = r.u64("tree count");
  SCWC_REQUIRE(count >= 1 && count < (1ULL << 20),
               "RandomForest::load: unreasonable tree count");
  ForestTable table;
  for (std::uint64_t t = 0; t < count; ++t) {
    DecisionTree tree;
    tree.load(r);
    SCWC_REQUIRE(tree.num_classes() == num_classes,
                 "RandomForest::load: tree class count disagrees with the "
                 "forest");
    table.append(tree);
  }
  table_ = std::move(table);
}

void RandomForest::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path + " for writing");
  save(os);
}

void RandomForest::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SCWC_REQUIRE(is.is_open(), "cannot open " + path + " for reading");
  load(is);
}

}  // namespace scwc::ml
