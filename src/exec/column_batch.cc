#include "exec/column_batch.h"

#include <utility>

namespace just::exec {

namespace {

ColumnVector::Storage StorageFor(DataType declared) {
  switch (declared) {
    case DataType::kBool:
    case DataType::kInt:
    case DataType::kTimestamp:
      return ColumnVector::Storage::kInt64;
    case DataType::kDouble:
      return ColumnVector::Storage::kDouble;
    case DataType::kString:
      return ColumnVector::Storage::kString;
    default:
      return ColumnVector::Storage::kObject;
  }
}

}  // namespace

ColumnVector::ColumnVector(DataType declared)
    : declared_(declared), storage_(StorageFor(declared)) {}

void ColumnVector::MarkNull(size_t row) {
  has_nulls_ = true;
  size_t word = row >> 6;
  if (null_words_.size() <= word) null_words_.resize(word + 1, 0);
  null_words_[word] |= uint64_t{1} << (row & 63);
}

void ColumnVector::AppendInt64(int64_t v) {
  i64_.push_back(v);
  ++size_;
}

void ColumnVector::AppendDouble(double v) {
  f64_.push_back(v);
  ++size_;
}

void ColumnVector::AppendString(std::string s) {
  str_.push_back(std::move(s));
  ++size_;
}

void ColumnVector::AppendNull() {
  switch (storage_) {
    case Storage::kInt64:
      i64_.push_back(0);
      break;
    case Storage::kDouble:
      f64_.push_back(0);
      break;
    case Storage::kString:
      str_.emplace_back();
      break;
    case Storage::kObject:
      obj_.emplace_back();
      ++size_;
      return;
  }
  MarkNull(size_);
  ++size_;
}

void ColumnVector::AppendNulls(size_t n) {
  switch (storage_) {
    case Storage::kInt64:
      i64_.resize(size_ + n);
      break;
    case Storage::kDouble:
      f64_.resize(size_ + n);
      break;
    case Storage::kString:
      str_.resize(size_ + n);
      break;
    case Storage::kObject:
      obj_.resize(size_ + n);
      size_ += n;
      return;
  }
  for (size_t i = 0; i < n; ++i) MarkNull(size_ + i);
  size_ += n;
}

void ColumnVector::AppendValue(const Value& v) { AppendValue(Value(v)); }

void ColumnVector::AppendValue(Value&& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (storage_) {
    case Storage::kInt64:
      if (v.type() == declared_) {
        // Bool / Int / Timestamp all carry int64 payloads.
        AppendInt64(v.type() == DataType::kBool
                        ? static_cast<int64_t>(v.bool_value())
                        : v.type() == DataType::kInt ? v.int_value()
                                                     : v.timestamp_value());
        return;
      }
      break;
    case Storage::kDouble:
      if (v.type() == DataType::kDouble) {
        AppendDouble(v.double_value());
        return;
      }
      break;
    case Storage::kString:
      if (v.type() == DataType::kString) {
        // Moving out of the variant keeps large strings zero-copy.
        AppendString(std::move(const_cast<std::string&>(v.string_value())));
        return;
      }
      break;
    case Storage::kObject:
      obj_.push_back(std::move(v));
      ++size_;
      return;
  }
  // Runtime value strayed from the declared type (e.g. a Double in an
  // integer-typed computed column): keep exact row semantics by degrading.
  DegradeToObject();
  obj_.push_back(std::move(v));
  ++size_;
}

void ColumnVector::DegradeToObject() {
  std::vector<Value> values;
  values.reserve(size_);
  for (size_t row = 0; row < size_; ++row) values.push_back(ValueAt(row));
  storage_ = Storage::kObject;
  obj_ = std::move(values);
  i64_.clear();
  f64_.clear();
  str_.clear();
  null_words_.clear();
  has_nulls_ = false;
}

Value ColumnVector::ValueAt(size_t row) const {
  switch (storage_) {
    case Storage::kObject:
      return obj_[row];
    case Storage::kInt64:
      if (IsNull(row)) return Value::Null();
      switch (declared_) {
        case DataType::kBool:
          return Value::Bool(i64_[row] != 0);
        case DataType::kTimestamp:
          return Value::Timestamp(i64_[row]);
        default:
          return Value::Int(i64_[row]);
      }
    case Storage::kDouble:
      return IsNull(row) ? Value::Null() : Value::Double(f64_[row]);
    case Storage::kString:
      return IsNull(row) ? Value::Null() : Value::String(str_[row]);
  }
  return Value::Null();
}

ColumnVector ColumnVector::Gather(const uint32_t* rows, size_t n) const {
  ColumnVector out(declared_);
  out.storage_ = storage_;
  switch (storage_) {
    case Storage::kInt64:
      out.i64_.reserve(n);
      break;
    case Storage::kDouble:
      out.f64_.reserve(n);
      break;
    case Storage::kString:
      out.str_.reserve(n);
      break;
    case Storage::kObject:
      out.obj_.reserve(n);
      break;
  }
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows[i];
    switch (storage_) {
      case Storage::kInt64:
        out.i64_.push_back(i64_[row]);
        break;
      case Storage::kDouble:
        out.f64_.push_back(f64_[row]);
        break;
      case Storage::kString:
        out.str_.push_back(str_[row]);
        break;
      case Storage::kObject:
        out.obj_.push_back(obj_[row]);
        break;
    }
    if (has_nulls_ && IsNull(row)) out.MarkNull(i);
    ++out.size_;
  }
  return out;
}

size_t ColumnVector::ApproxBytes() const {
  size_t bytes = i64_.capacity() * sizeof(int64_t) +
                 f64_.capacity() * sizeof(double) +
                 null_words_.capacity() * sizeof(uint64_t);
  for (const std::string& s : str_) bytes += 32 + s.size();
  for (const Value& v : obj_) bytes += v.ApproxBytes();
  return bytes;
}

ColumnBatch::ColumnBatch(std::shared_ptr<Schema> schema)
    : schema_(std::move(schema)) {
  columns_.reserve(schema_->num_fields());
  for (const Field& f : schema_->fields()) columns_.emplace_back(f.type);
}

void ColumnBatch::SetSelection(std::vector<uint32_t> selection) {
  selection_ = std::move(selection);
  has_selection_ = true;
}

void ColumnBatch::ClearSelection() {
  selection_.clear();
  has_selection_ = false;
}

void ColumnBatch::AppendRow(const Row& row) {
  for (size_t i = 0; i < columns_.size() && i < row.size(); ++i) {
    columns_[i].AppendValue(row[i]);
  }
  for (size_t i = row.size(); i < columns_.size(); ++i) {
    columns_[i].AppendNull();
  }
  ++num_rows_;
}

void ColumnBatch::AppendRow(Row&& row) {
  for (size_t i = 0; i < columns_.size() && i < row.size(); ++i) {
    columns_[i].AppendValue(std::move(row[i]));
  }
  for (size_t i = row.size(); i < columns_.size(); ++i) {
    columns_[i].AppendNull();
  }
  ++num_rows_;
}

Row ColumnBatch::MaterializeRow(size_t row) const {
  Row out;
  out.reserve(columns_.size());
  for (const ColumnVector& col : columns_) out.push_back(col.ValueAt(row));
  return out;
}

void ColumnBatch::AppendTo(DataFrame* out) const {
  if (has_selection_) {
    for (uint32_t row : selection_) out->AddRow(MaterializeRow(row));
  } else {
    for (size_t row = 0; row < num_rows_; ++row) {
      out->AddRow(MaterializeRow(row));
    }
  }
}

DataFrame ColumnBatch::ToDataFrame() const {
  DataFrame out(schema_);
  out.mutable_rows()->reserve(num_active());
  AppendTo(&out);
  return out;
}

ColumnBatch ColumnBatch::FromDataFrame(const DataFrame& frame) {
  ColumnBatch batch(frame.schema_ptr());
  for (const Row& row : frame.rows()) batch.AppendRow(row);
  return batch;
}

ColumnBatch ColumnBatch::FromDataFrame(DataFrame&& frame) {
  ColumnBatch batch(frame.schema_ptr());
  for (Row& row : *frame.mutable_rows()) batch.AppendRow(std::move(row));
  return batch;
}

ColumnBatch ColumnBatch::FromColumns(std::shared_ptr<Schema> schema,
                                     std::vector<ColumnVector> columns,
                                     size_t num_rows) {
  ColumnBatch batch;
  batch.schema_ = std::move(schema);
  batch.columns_ = std::move(columns);
  batch.num_rows_ = num_rows;
  return batch;
}

size_t ColumnBatch::ApproxBytes() const {
  size_t bytes = selection_.capacity() * sizeof(uint32_t);
  for (const ColumnVector& col : columns_) bytes += col.ApproxBytes();
  return bytes;
}

size_t BatchesActiveRows(const BatchVector& batches) {
  size_t rows = 0;
  for (const ColumnBatch& batch : batches) rows += batch.num_active();
  return rows;
}

DataFrame BatchesToDataFrame(const std::shared_ptr<Schema>& schema,
                             const BatchVector& batches) {
  DataFrame out(schema);
  out.mutable_rows()->reserve(BatchesActiveRows(batches));
  for (const ColumnBatch& batch : batches) batch.AppendTo(&out);
  return out;
}

namespace {

template <typename RowRange>
BatchVector ChunkRows(const std::shared_ptr<Schema>& schema, RowRange&& rows,
                      bool move_values) {
  BatchVector batches;
  ColumnBatch current(schema);
  for (auto& row : rows) {
    if (current.num_rows() >= kBatchRows) {
      batches.push_back(std::move(current));
      current = ColumnBatch(schema);
    }
    if (move_values) {
      current.AppendRow(std::move(const_cast<Row&>(row)));
    } else {
      current.AppendRow(row);
    }
  }
  if (current.num_rows() > 0 || batches.empty()) {
    batches.push_back(std::move(current));
  }
  return batches;
}

}  // namespace

BatchVector BatchesFromDataFrame(const DataFrame& frame) {
  return ChunkRows(frame.schema_ptr(), frame.rows(), /*move_values=*/false);
}

BatchVector BatchesFromDataFrame(DataFrame&& frame) {
  return ChunkRows(frame.schema_ptr(), *frame.mutable_rows(),
                   /*move_values=*/true);
}

}  // namespace just::exec
