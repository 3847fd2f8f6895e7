#ifndef JUST_EXEC_COLUMN_BATCH_H_
#define JUST_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/dataframe.h"

namespace just::exec {

/// One column of a ColumnBatch. Fixed-width types (bool/int/timestamp and
/// double) are unpacked into flat typed vectors so kernels run as tight
/// loops; strings get their own vector; geometry, trajectory, and any column
/// whose runtime values stray from the declared type fall back to a generic
/// Value vector ("object" storage). Nulls are tracked in a packed bitmap for
/// typed storages and as Value::Null() entries for object storage.
class ColumnVector {
 public:
  enum class Storage { kInt64, kDouble, kString, kObject };

  explicit ColumnVector(DataType declared);

  DataType declared_type() const { return declared_; }
  Storage storage() const { return storage_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return has_nulls_; }

  // --- Append path (batch decoding / frame conversion) ---

  /// Appends a fixed-width cell to an int64-backed column (bool / int /
  /// timestamp). Caller must know the column's storage is kInt64.
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string s);
  void AppendNull();
  /// Appends `n` nulls at once (placeholder cells a scan never decodes).
  void AppendNulls(size_t n);
  /// Appends any Value. A value whose type does not match the declared
  /// column type degrades the whole column to object storage (preserving
  /// the exact per-row Values, as row-at-a-time execution would see them).
  void AppendValue(const Value& v);
  void AppendValue(Value&& v);

  // --- Read path (kernels) ---

  bool IsNull(size_t row) const {
    if (storage_ == Storage::kObject) return obj_[row].is_null();
    if (!has_nulls_) return false;
    // The bitmap only reaches the last null; rows past it are non-null.
    const size_t word = row >> 6;
    return word < null_words_.size() && ((null_words_[word] >> (row & 63)) & 1);
  }
  int64_t Int64At(size_t row) const { return i64_[row]; }
  double DoubleAt(size_t row) const { return f64_[row]; }
  const std::string& StringAt(size_t row) const { return str_[row]; }
  const Value& ObjectAt(size_t row) const { return obj_[row]; }

  const int64_t* i64_data() const { return i64_.data(); }
  const double* f64_data() const { return f64_.data(); }

  /// Materializes the cell as a generic Value (declared-type aware: int64
  /// storage renders as Bool/Int/Timestamp per the declared type).
  Value ValueAt(size_t row) const;

  /// Compacted copy of the given physical rows, in order (the projection
  /// kernel: copying survivors column-wise instead of row-wise).
  ColumnVector Gather(const uint32_t* rows, size_t n) const;

  size_t ApproxBytes() const;

 private:
  void MarkNull(size_t row);
  /// Converts typed storage to object storage (on type-mismatch append).
  void DegradeToObject();

  DataType declared_;
  Storage storage_;
  size_t size_ = 0;
  bool has_nulls_ = false;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
  std::vector<Value> obj_;
  std::vector<uint64_t> null_words_;
};

/// A columnar batch: the unit the vectorized executor pipelines between
/// stages. Columns share one physical row count; a selection vector (when
/// present) names the active rows in ascending order — filters shrink the
/// selection instead of copying survivors, so a chain of predicates touches
/// only surviving rows.
class ColumnBatch {
 public:
  ColumnBatch() : schema_(std::make_shared<Schema>()) {}
  explicit ColumnBatch(std::shared_ptr<Schema> schema);

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<Schema>& schema_ptr() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  ColumnVector& column(size_t i) { return columns_[i]; }
  const ColumnVector& column(size_t i) const { return columns_[i]; }

  /// Physical rows (before selection).
  size_t num_rows() const { return num_rows_; }
  /// Rows surviving the selection vector.
  size_t num_active() const { return has_selection_ ? selection_.size() : num_rows_; }

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }
  /// nullptr when every physical row is active — kernels branch once and
  /// loop flat either way.
  const uint32_t* selection_data() const {
    return has_selection_ ? selection_.data() : nullptr;
  }
  /// Replaces the selection (indices must be ascending physical rows).
  void SetSelection(std::vector<uint32_t> selection);
  void ClearSelection();

  /// Marks that a row-append (via column appends) completed; keeps the
  /// physical row count in sync when callers write columns directly.
  void FinishRow() { ++num_rows_; }

  void AppendRow(const Row& row);
  void AppendRow(Row&& row);

  /// Materializes one physical row as generic Values (fallback eval path).
  Row MaterializeRow(size_t row) const;

  /// Appends the active rows to `out` (which must share the schema shape).
  void AppendTo(DataFrame* out) const;
  /// Materializes the active rows as a row-oriented DataFrame.
  DataFrame ToDataFrame() const;

  /// Converts a DataFrame; `&&` overload moves cell values instead of
  /// copying (strings / geometries / trajectories).
  static ColumnBatch FromDataFrame(const DataFrame& frame);
  static ColumnBatch FromDataFrame(DataFrame&& frame);

  /// Assembles a batch from pre-built columns (the projection path). All
  /// columns must share `num_rows`; no selection is set.
  static ColumnBatch FromColumns(std::shared_ptr<Schema> schema,
                                 std::vector<ColumnVector> columns,
                                 size_t num_rows);

  size_t ApproxBytes() const;

 private:
  std::shared_ptr<Schema> schema_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
  bool has_selection_ = false;
  std::vector<uint32_t> selection_;
};

/// The executor's inter-stage currency: a run of batches. Scans chunk their
/// output at kBatchRows so per-stage working sets stay cache-sized and
/// EXPLAIN ANALYZE can report batch counts.
using BatchVector = std::vector<ColumnBatch>;

/// Rows per batch produced by scans and frame conversion.
inline constexpr size_t kBatchRows = 4096;

/// Total active rows across a run of batches.
size_t BatchesActiveRows(const BatchVector& batches);

/// Concatenates the active rows of every batch into a DataFrame.
DataFrame BatchesToDataFrame(const std::shared_ptr<Schema>& schema,
                             const BatchVector& batches);

/// Chunks a DataFrame into batches of at most kBatchRows rows. The `&&`
/// overload moves cell values out of the frame.
BatchVector BatchesFromDataFrame(const DataFrame& frame);
BatchVector BatchesFromDataFrame(DataFrame&& frame);

}  // namespace just::exec

#endif  // JUST_EXEC_COLUMN_BATCH_H_
