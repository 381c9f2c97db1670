#pragma once
// Weight-of-Evidence (WoE) categorical encoder (§5.2.2 of the paper).
//
// Each categorical value x of a feature column is mapped to
//     WoE(x) = ln( P(X = x | y = 1) / P(X = x | y = 0) )
// with +1 count smoothing against division by zero, exactly as footnote 1
// prescribes. Values unseen during fit encode to 0.0 (neutral).
//
// WoE is the mechanism that (i) condenses high-cardinality categoricals
// (IPs, ports, member MACs) into one informative real value, (ii) carries
// the long-term memory of suspicious reflectors/ports, and (iii) separates
// *local* knowledge from the classifier, enabling model transfer between
// IXPs (§6.4).

#include <cstdint>
#include <optional>
#include <vector>

#include "ml/classifier.hpp"
#include "util/flat_hash.hpp"

namespace scrubber::ml {

/// WoE table of a single categorical column.
///
/// Both the count accumulator and the finished value -> WoE table live in
/// util::FlatHash: contiguous storage for the encode hot path, and
/// insertion-order iteration, which makes every serialization of a fitted
/// column deterministic (first-observation order) and lets from_table()
/// round-trip tables byte-identically — re-inserting in serialized order
/// reproduces the iteration order exactly.
class WoeColumn {
 public:
  /// Serialized form: value -> WoE, iterated in insertion order.
  using Table = util::FlatHash<std::int64_t, double>;

  /// Accumulates one observation of categorical value `value` with label y.
  void observe(std::int64_t value, int y) noexcept {
    auto& counts = counts_[value];
    (y == 1 ? counts.positive : counts.negative) += 1.0;
    (y == 1 ? total_positive_ : total_negative_) += 1.0;
  }

  /// Finalizes WoE scores from accumulated counts.
  void finalize();

  /// Exponentially decays all accumulated counts by `keep` in (0, 1] —
  /// the "forgetting" §6.3 identifies as the prerequisite for incremental
  /// learning with drifting features (repurposed reflector IPs). Call
  /// between update rounds, then observe() new data and finalize().
  /// Values whose counts decay below ~0.01 observations are dropped.
  void decay(double keep);

  /// WoE of a value; 0.0 (neutral) for values unseen during fit.
  [[nodiscard]] double encode(std::int64_t value) const noexcept {
    const double* woe = woe_.find(value);
    return woe == nullptr ? 0.0 : *woe;
  }

  /// Values with WoE strictly above `threshold` (e.g. >1.0 for reflectors).
  [[nodiscard]] std::vector<std::int64_t> values_above(double threshold) const;

  /// Number of distinct values with a WoE entry.
  [[nodiscard]] std::size_t size() const noexcept { return woe_.size(); }

  /// Read-only access to the full table (insertion-ordered iteration via
  /// Table::for_each — the serialization order model_io writes).
  [[nodiscard]] const Table& table() const noexcept { return woe_; }

  /// Rebuilds a column from a serialized value -> WoE table (model_io).
  /// Insertion order of `table` becomes the column's iteration order, so
  /// save -> load -> save round trips are byte-identical.
  [[nodiscard]] static WoeColumn from_table(Table table) {
    WoeColumn column;
    column.woe_ = std::move(table);
    return column;
  }

 private:
  struct Counts {
    double positive = 0.0;
    double negative = 0.0;
  };

  util::FlatHash<std::int64_t, Counts> counts_;
  Table woe_;
  double total_positive_ = 0.0;
  double total_negative_ = 0.0;
};

/// Transformer that WoE-encodes all categorical columns of a dataset.
/// Numeric columns pass through unchanged. Missing values encode to 0.
class WoeEncoder final : public Transformer {
 public:
  /// `cross_fit_folds` > 1 enables out-of-fold encoding of *training*
  /// rows during fit_transform(): each row is encoded by tables built
  /// without it. This keeps the classifier from treating high-cardinality
  /// WoE columns (per-IP scores) as memorized row identifiers — an issue
  /// that only bites at our scaled-down data sizes; inference always uses
  /// the final tables fitted on all training data.
  explicit WoeEncoder(std::size_t cross_fit_folds = 5) noexcept
      : cross_fit_folds_(cross_fit_folds) {}

  void fit(const Dataset& data) override;
  void apply(std::span<double> row) const override;
  [[nodiscard]] Dataset fit_transform(const Dataset& data) override;

  /// Column-strip batch encode of a row-major cell block (`width` doubles
  /// per row): all rows of one categorical column are encoded before the
  /// next, so each column's WoE table stays cache-resident across the
  /// whole batch. Cell-for-cell the same operation as apply() row by row
  /// — bit-identical output, enforced by tests/ml/woe_test.cpp.
  void encode_rows(std::span<double> cells, std::size_t width) const;

  /// Batch override of the row-loop default: one encode_rows() pass over
  /// the dataset's cell buffer (WoE never changes row width).
  [[nodiscard]] Dataset apply_to_dataset(const Dataset& data) const override;

  /// Continuous-learning update: decays every column's counts by `keep`
  /// (1.0 = no forgetting), observes the new rows, and refinalizes the
  /// tables in place. Requires a prior fit() on the same schema; tables
  /// restored from JSON carry no counts and start accumulating afresh.
  void update(const Dataset& data, double keep = 1.0);
  [[nodiscard]] std::string name() const override { return "WoE"; }
  [[nodiscard]] std::unique_ptr<Transformer> clone() const override {
    return std::make_unique<WoeEncoder>(*this);
  }

  /// Per-column table access by column index (throws when the column was
  /// not categorical at fit time).
  [[nodiscard]] const WoeColumn& column(std::size_t index) const;
  [[nodiscard]] WoeColumn& column(std::size_t index);

  /// True when column `index` is WoE-encoded by this encoder.
  [[nodiscard]] bool encodes(std::size_t index) const noexcept {
    return index < columns_.size() && columns_[index].has_value();
  }

  /// Indices of encoded (categorical) columns.
  [[nodiscard]] std::vector<std::size_t> encoded_columns() const;

  /// Rebuilds the encoder from serialized per-column tables (model_io).
  void restore(std::vector<std::optional<WoeColumn>> columns) {
    columns_ = std::move(columns);
  }

 private:
  std::size_t cross_fit_folds_ = 5;
  std::vector<std::optional<WoeColumn>> columns_;
};

}  // namespace scrubber::ml
