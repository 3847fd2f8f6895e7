#include "exec/operators.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace just::exec {

Result<DataFrame> Project(const DataFrame& input,
                          const std::vector<std::string>& columns) {
  std::vector<int> indices;
  auto schema = std::make_shared<Schema>();
  for (const std::string& col : columns) {
    int idx = input.schema().IndexOf(col);
    if (idx < 0) return Status::InvalidArgument("no such column: " + col);
    indices.push_back(idx);
    schema->AddField(input.schema().field(idx));
  }
  DataFrame out(schema);
  for (const Row& row : input.rows()) {
    Row projected;
    projected.reserve(indices.size());
    for (int idx : indices) projected.push_back(row[idx]);
    out.AddRow(std::move(projected));
  }
  return out;
}

Result<DataFrame> Sort(const DataFrame& input,
                       const std::vector<SortKey>& keys) {
  struct ResolvedKey {
    int index;
    bool ascending;
  };
  std::vector<ResolvedKey> resolved;
  for (const SortKey& key : keys) {
    int idx = input.schema().IndexOf(key.column);
    if (idx < 0) {
      return Status::InvalidArgument("no such column: " + key.column);
    }
    resolved.push_back({idx, key.ascending});
  }
  std::vector<Row> rows = input.rows();
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Row& a, const Row& b) {
                     for (const ResolvedKey& k : resolved) {
                       int c = a[k.index].Compare(b[k.index]);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return DataFrame(input.schema_ptr(), std::move(rows));
}

DataFrame Limit(const DataFrame& input, size_t n) {
  std::vector<Row> rows(input.rows().begin(),
                        input.rows().begin() +
                            std::min(n, input.rows().size()));
  return DataFrame(input.schema_ptr(), std::move(rows));
}

namespace {
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_valid = true;
  Value min, max;
  bool has_minmax = false;

  void Update(const Value& v) {
    if (v.is_null()) return;
    ++count;
    auto d = v.AsDouble();
    if (d.ok()) {
      sum += d.value();
    } else {
      sum_valid = false;
    }
    if (!has_minmax) {
      min = v;
      max = v;
      has_minmax = true;
    } else {
      if (v.Compare(min) < 0) min = v;
      if (v.Compare(max) > 0) max = v;
    }
  }

  Value Finish(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        return count == 0 || !sum_valid ? Value::Null() : Value::Double(sum);
      case AggFunc::kAvg:
        return count == 0 || !sum_valid
                   ? Value::Null()
                   : Value::Double(sum / static_cast<double>(count));
      case AggFunc::kMin:
        return has_minmax ? min : Value::Null();
      case AggFunc::kMax:
        return has_minmax ? max : Value::Null();
    }
    return Value::Null();
  }
};

struct RowKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 0;
    for (const Value& v : key) h = h * 1099511628211ull + v.Hash();
    return h;
  }
};

struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
};
}  // namespace

Result<DataFrame> GroupBy(const DataFrame& input,
                          const std::vector<std::string>& group_by,
                          const std::vector<Aggregate>& aggregates) {
  std::vector<int> key_indices;
  for (const std::string& col : group_by) {
    int idx = input.schema().IndexOf(col);
    if (idx < 0) return Status::InvalidArgument("no such column: " + col);
    key_indices.push_back(idx);
  }
  struct AggSpec {
    AggFunc func;
    int index;  // -1 for COUNT(*)
  };
  std::vector<AggSpec> specs;
  for (const Aggregate& agg : aggregates) {
    int idx = -1;
    if (!agg.column.empty()) {
      idx = input.schema().IndexOf(agg.column);
      if (idx < 0) {
        return Status::InvalidArgument("no such column: " + agg.column);
      }
    }
    specs.push_back({agg.func, idx});
  }

  std::unordered_map<Row, std::vector<AggState>, RowKeyHash, RowKeyEq> groups;
  std::vector<Row> key_order;
  for (const Row& row : input.rows()) {
    Row key;
    key.reserve(key_indices.size());
    for (int idx : key_indices) key.push_back(row[idx]);
    auto [it, inserted] =
        groups.try_emplace(std::move(key), specs.size(), AggState());
    if (inserted) key_order.push_back(it->first);
    for (size_t a = 0; a < specs.size(); ++a) {
      if (specs[a].index < 0) {
        ++it->second[a].count;  // COUNT(*)
      } else {
        it->second[a].Update(row[specs[a].index]);
      }
    }
  }
  // Global aggregation over an empty input still yields one row.
  if (group_by.empty() && groups.empty()) {
    groups.try_emplace(Row{}, specs.size(), AggState());
    key_order.push_back(Row{});
  }

  auto schema = std::make_shared<Schema>();
  for (int idx : key_indices) schema->AddField(input.schema().field(idx));
  for (size_t a = 0; a < aggregates.size(); ++a) {
    DataType type = specs[a].func == AggFunc::kCount
                        ? DataType::kInt
                        : (specs[a].index >= 0 &&
                           (specs[a].func == AggFunc::kMin ||
                            specs[a].func == AggFunc::kMax)
                               ? input.schema().field(specs[a].index).type
                               : DataType::kDouble);
    schema->AddField(Field{aggregates[a].output_name, type});
  }
  DataFrame out(schema);
  for (const Row& key : key_order) {
    const auto& states = groups.at(key);
    Row row = key;
    for (size_t a = 0; a < specs.size(); ++a) {
      row.push_back(states[a].Finish(specs[a].func));
    }
    out.AddRow(std::move(row));
  }
  return out;
}

Result<DataFrame> HashJoin(const DataFrame& left, const DataFrame& right,
                           const std::string& left_col,
                           const std::string& right_col) {
  int li = left.schema().IndexOf(left_col);
  int ri = right.schema().IndexOf(right_col);
  if (li < 0) return Status::InvalidArgument("no such column: " + left_col);
  if (ri < 0) return Status::InvalidArgument("no such column: " + right_col);

  auto schema = std::make_shared<Schema>();
  for (const Field& f : left.schema().fields()) schema->AddField(f);
  for (const Field& f : right.schema().fields()) {
    Field out = f;
    if (left.schema().IndexOf(f.name) >= 0) out.name += "_r";
    schema->AddField(out);
  }

  std::unordered_map<Row, std::vector<const Row*>, RowKeyHash, RowKeyEq>
      build;
  for (const Row& row : right.rows()) {
    build[Row{row[ri]}].push_back(&row);
  }
  DataFrame out(schema);
  for (const Row& lrow : left.rows()) {
    auto it = build.find(Row{lrow[li]});
    if (it == build.end()) continue;
    for (const Row* rrow : it->second) {
      Row joined = lrow;
      joined.insert(joined.end(), rrow->begin(), rrow->end());
      out.AddRow(std::move(joined));
    }
  }
  return out;
}

}  // namespace just::exec
