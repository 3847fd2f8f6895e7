#include "sql/access_path.h"

#include <algorithm>
#include <cctype>

#include "common/time_util.h"
#include "sql/expr_eval.h"

namespace just::sql {

namespace {

bool IsGeometryLiteral(const Expr& e) {
  return e.kind == Expr::Kind::kLiteral &&
         e.literal.type() == exec::DataType::kGeometry;
}

bool IsTimeLiteral(const Expr& e, TimestampMs* out) {
  if (e.kind != Expr::Kind::kLiteral) return false;
  exec::Value v = e.literal;
  if (!CoerceLiteral(exec::DataType::kTimestamp, &v)) return false;
  *out = v.timestamp_value();
  return true;
}

bool ColumnEquals(const Expr& e, const std::string& name) {
  if (e.kind != Expr::Kind::kColumn) return false;
  if (e.column.size() != name.size()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(e.column[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return true;
}

/// The inclusive window [*lo, *hi] conjunct `c` bounds `time_column` to:
/// `time BETWEEN a AND b`, or `time` <, <=, > or >= a literal. Timestamps
/// are whole milliseconds, so a strict bound moves one inward; a side `c`
/// leaves open stays INT64_MIN / INT64_MAX. False when `c` is no such
/// bound, or one the window cannot hold: an open lower side keeps rows with
/// no time (NULL sorts first), so a lower bound at INT64_MIN stays
/// residual, as does a strict bound past either end.
bool TimeWindowOf(const Expr& c, const std::string& time_column,
                  TimestampMs* lo, TimestampMs* hi) {
  if (c.args.size() < 2 || !ColumnEquals(*c.args[0], time_column)) {
    return false;
  }
  *lo = INT64_MIN;
  *hi = INT64_MAX;
  TimestampMs v = 0;
  if (c.op == BinaryOp::kBetween) {
    return c.args.size() == 3 && IsTimeLiteral(*c.args[1], lo) &&
           IsTimeLiteral(*c.args[2], hi) && *lo != INT64_MIN;
  }
  if (!IsTimeLiteral(*c.args[1], &v)) return false;
  switch (c.op) {
    case BinaryOp::kLt:
      if (v == INT64_MIN) return false;
      *hi = v - 1;
      return true;
    case BinaryOp::kLe:
      *hi = v;
      return true;
    case BinaryOp::kGt:
      if (v == INT64_MAX) return false;
      *lo = v + 1;
      return true;
    case BinaryOp::kGe:
      *lo = v;
      return v != INT64_MIN;
    default:
      return false;
  }
}

bool HasTimeAwareIndex(const meta::TableMeta& table_meta) {
  return std::any_of(table_meta.indexes.begin(), table_meta.indexes.end(),
                     [](const meta::IndexConfig& index) {
                       return curve::IsSpatioTemporal(index.type);
                     });
}

/// The `ready` secondary index whose column `e` references, or nullptr.
const meta::SecondaryIndexDef* ReadyIndexFor(const meta::TableMeta& table_meta,
                                             const Expr& e) {
  for (const meta::SecondaryIndexDef& def : table_meta.secondary_indexes) {
    if (def.state == meta::IndexState::kReady && ColumnEquals(e, def.column)) {
      return &def;
    }
  }
  return nullptr;
}

}  // namespace

void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr->kind == Expr::Kind::kBinary && expr->op == BinaryOp::kAnd) {
    SplitConjuncts(expr->args[0].get(), out);
    SplitConjuncts(expr->args[1].get(), out);
    return;
  }
  out->push_back(expr);
}

Result<AccessPath> ChooseAccessPath(
    core::JustEngine* engine, const std::string& user,
    const meta::TableMeta& table_meta,
    const std::vector<const Expr*>& conjuncts) {
  AccessPath path;
  bool have_knn = false;
  std::vector<const Expr*> index_conjuncts;  ///< consumed by the bounds
  std::vector<const Expr*> st_conjuncts;     ///< consumed by the box
  std::vector<const Expr*> time_conjuncts;   ///< consumed by the window
  path.t_min = INT64_MIN;
  path.t_max = INT64_MAX;

  for (const Expr* conjunct : conjuncts) {
    if (conjunct->kind != Expr::Kind::kBinary) {
      path.residual.push_back(conjunct);
      continue;
    }
    if (conjunct->op == BinaryOp::kWithin && !path.have_box &&
        ColumnEquals(*conjunct->args[0], table_meta.geom_column) &&
        IsGeometryLiteral(*conjunct->args[1])) {
      path.box = conjunct->args[1]->literal.geometry_value().Bounds();
      path.have_box = true;
      st_conjuncts.push_back(conjunct);
      continue;
    }
    // Every time bound narrows one window.
    TimestampMs lo = 0, hi = 0;
    if (TimeWindowOf(*conjunct, table_meta.time_column, &lo, &hi)) {
      path.t_min = std::max(path.t_min, lo);
      path.t_max = std::min(path.t_max, hi);
      path.have_time = true;
      time_conjuncts.push_back(conjunct);
      continue;
    }
    if (conjunct->op == BinaryOp::kIn && !have_knn &&
        ColumnEquals(*conjunct->args[0], table_meta.geom_column) &&
        conjunct->args[1]->kind == Expr::Kind::kCall &&
        conjunct->args[1]->call_name == "st_knn" &&
        conjunct->args[1]->args.size() == 2) {
      const Expr& point_arg = *conjunct->args[1]->args[0];
      const Expr& k_arg = *conjunct->args[1]->args[1];
      if (IsGeometryLiteral(point_arg) && k_arg.kind == Expr::Kind::kLiteral) {
        auto k = k_arg.literal.AsInt();
        if (k.ok()) {
          path.knn_query = point_arg.literal.geometry_value().Bounds().Center();
          path.knn_k = static_cast<int>(k.value());
          have_knn = true;
          continue;
        }
      }
    }
    // Secondary-index bounds: column-vs-literal comparisons and BETWEEN on
    // a column carrying a `ready` CREATE INDEX index. One driving column;
    // at most one bound per side — everything else stays residual (the
    // range recheck inside the index scan keeps any split exact).
    if (conjunct->args[0]->kind == Expr::Kind::kColumn) {
      const meta::SecondaryIndexDef* def =
          ReadyIndexFor(table_meta, *conjunct->args[0]);
      if (def != nullptr &&
          (path.index_column.empty() || path.index_column == def->column)) {
        int col = table_meta.ColumnIndex(def->column);
        exec::DataType col_type =
            col >= 0 ? table_meta.columns[static_cast<size_t>(col)].type
                     : exec::DataType::kNull;
        bool consumed = false;
        if (conjunct->op == BinaryOp::kBetween &&
            conjunct->args[1]->kind == Expr::Kind::kLiteral &&
            conjunct->args[2]->kind == Expr::Kind::kLiteral &&
            !path.lower.present && !path.upper.present) {
          exec::Value lo = conjunct->args[1]->literal;
          exec::Value hi = conjunct->args[2]->literal;
          if (CoerceLiteral(col_type, &lo) &&
              CoerceLiteral(col_type, &hi)) {
            path.lower = {true, true, std::move(lo)};
            path.upper = {true, true, std::move(hi)};
            consumed = true;
          }
        } else if (conjunct->args.size() == 2 &&
                   conjunct->args[1]->kind == Expr::Kind::kLiteral) {
          exec::Value v = conjunct->args[1]->literal;
          if (CoerceLiteral(col_type, &v)) {
            switch (conjunct->op) {
              case BinaryOp::kEq:
                if (!path.lower.present && !path.upper.present) {
                  path.lower = {true, true, v};
                  path.upper = {true, true, std::move(v)};
                  consumed = true;
                }
                break;
              case BinaryOp::kGt:
              case BinaryOp::kGe:
                if (!path.lower.present) {
                  path.lower = {true, conjunct->op == BinaryOp::kGe,
                                std::move(v)};
                  consumed = true;
                }
                break;
              case BinaryOp::kLt:
              case BinaryOp::kLe:
                if (!path.upper.present) {
                  path.upper = {true, conjunct->op == BinaryOp::kLe,
                                std::move(v)};
                  consumed = true;
                }
                break;
              default:
                break;
            }
          }
        }
        if (consumed) {
          path.index_column = def->column;
          index_conjuncts.push_back(conjunct);
          continue;
        }
      }
    }
    path.residual.push_back(conjunct);
  }

  // A box with a window open on one side: the spatial index reads fewer
  // keys than every period of the time-aware one, so the box drives and
  // the comparisons stay residual. A window with no box drives only a
  // time-aware index, whose keys lead with the period; on a table without
  // one it is a full scan.
  const bool open_window = path.t_min == INT64_MIN || path.t_max == INT64_MAX;
  if (path.have_box ? open_window : !HasTimeAwareIndex(table_meta)) {
    path.have_time = false;
    for (const Expr* c : time_conjuncts) path.residual.push_back(c);
    time_conjuncts.clear();
  }
  if (!path.have_time) path.t_min = path.t_max = 0;

  auto demote_index_bounds = [&] {
    for (const Expr* c : index_conjuncts) path.residual.push_back(c);
    path.index_column.clear();
    path.lower = core::AttrBound{};
    path.upper = core::AttrBound{};
  };

  if (have_knn) {
    // The expansion search answers only the k nearest: a box or time
    // window the query also names filters those k rows as residual work.
    path.kind = AccessPath::Kind::kKnn;
    path.label = "knn";
    demote_index_bounds();
    for (const Expr* c : st_conjuncts) path.residual.push_back(c);
    for (const Expr* c : time_conjuncts) path.residual.push_back(c);
    path.have_box = false;
    path.have_time = false;
    return path;
  }

  if (!path.index_column.empty()) {
    bool use_index = false;
    if (!path.have_box && !path.have_time) {
      path.kind = AccessPath::Kind::kSecondaryIndex;
      path.label = "secondary_index";
      use_index = true;
    } else {
      // Intersection decision by bounded cardinality probe: the index
      // drives only when it narrows the candidate set below the threshold;
      // otherwise the curve index drives and the bounds demote to
      // residual refinement.
      size_t threshold = engine->options().index_intersection_threshold;
      auto probe = engine->SecondaryIndexProbe(
          user, table_meta.name, path.index_column, path.lower, path.upper,
          threshold + 1);
      if (probe.ok() && probe.value() <= threshold) {
        path.kind = AccessPath::Kind::kIndexIntersection;
        path.label = "index_intersection";
        use_index = true;
      }
    }
    if (use_index) return path;
    demote_index_bounds();
  }

  if (path.have_box && path.have_time) {
    path.kind = AccessPath::Kind::kStRange;
    path.label = "st_range";
  } else if (path.have_box) {
    path.kind = AccessPath::Kind::kSpatialRange;
    path.label = "spatial_range";
  } else if (path.have_time) {
    // Time alone: periods lead the time-aware keys, so the window is one
    // key range per shard over its periods, and refinement tests time only.
    path.kind = AccessPath::Kind::kStRange;
    path.box = geo::Mbr::World();
    path.label = "temporal_range";
  }
  return path;
}

}  // namespace just::sql
