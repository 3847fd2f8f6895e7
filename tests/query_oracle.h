#ifndef JUST_TESTS_QUERY_ORACLE_H_
#define JUST_TESTS_QUERY_ORACLE_H_

// Test-side helpers over the engine's one query entry point
// (JustEngine::Query): a DataFrame view of a Query, and the brute-force
// SELECT oracle every access path is compared against.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/operators.h"
#include "sql/access_path.h"
#include "sql/analyzer.h"
#include "sql/expr_eval.h"
#include "sql/optimizer.h"
#include "sql/parser.h"

namespace just::testing {

/// JustEngine::Query materialized as a DataFrame; the default spec is a
/// full scan.
inline Result<exec::DataFrame> QueryFrame(core::JustEngine* engine,
                                          const std::string& user,
                                          const std::string& table,
                                          const core::QuerySpec& spec = {},
                                          core::QueryStats* stats = nullptr) {
  JUST_ASSIGN_OR_RETURN(auto meta, engine->DescribeTable(user, table));
  JUST_ASSIGN_OR_RETURN(auto batches,
                        engine->Query(user, table, spec, stats));
  return exec::BatchesToDataFrame(meta.MakeSchema(), batches);
}

/// The rows of `frame` where the conjuncts of `where` hold: each by
/// EvaluateExpr being true (NULL and evaluation errors drop the row), except
/// `geom IN st_knn(p, k)`, which EvaluateExpr cannot judge row by row: it
/// holds for the k rows of `frame` nearest p (Geometry::Distance, ties by
/// row order).
inline exec::DataFrame KeepWhere(const exec::DataFrame& frame,
                                 const sql::Expr& where) {
  std::vector<const sql::Expr*> conjuncts;
  sql::SplitConjuncts(&where, &conjuncts);
  const auto& rows = frame.rows();
  std::vector<bool> keep(rows.size(), true);
  for (const sql::Expr* c : conjuncts) {
    const bool knn = c->kind == sql::Expr::Kind::kBinary &&
                     c->op == sql::BinaryOp::kIn &&
                     c->args[1]->kind == sql::Expr::Kind::kCall &&
                     c->args[1]->call_name == "st_knn";
    if (!knn) {
      for (size_t r = 0; r < rows.size(); ++r) {
        auto v = sql::EvaluateExpr(*c, frame.schema(), rows[r]);
        keep[r] = keep[r] && v.ok() && v->type() == exec::DataType::kBool &&
                  v->bool_value();
      }
      continue;
    }
    auto point = sql::EvaluateConstant(*c->args[1]->args[0]);
    auto k = sql::EvaluateConstant(*c->args[1]->args[1]);
    if (!point.ok() || point->type() != exec::DataType::kGeometry ||
        !k.ok() || !k->AsInt().ok()) {
      keep.assign(rows.size(), false);
      continue;
    }
    const geo::Point q = point->geometry_value().Bounds().Center();
    std::vector<std::pair<double, size_t>> by_distance;
    for (size_t r = 0; r < rows.size(); ++r) {
      auto g = sql::EvaluateExpr(*c->args[0], frame.schema(), rows[r]);
      if (g.ok() && g->type() == exec::DataType::kGeometry) {
        by_distance.emplace_back(g->geometry_value().Distance(q), r);
      }
    }
    std::stable_sort(by_distance.begin(), by_distance.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<bool> nearest(rows.size(), false);
    size_t n = std::min(by_distance.size(),
                        static_cast<size_t>(std::max<int64_t>(0, *k->AsInt())));
    for (size_t i = 0; i < n; ++i) nearest[by_distance[i].second] = true;
    for (size_t r = 0; r < rows.size(); ++r) keep[r] = keep[r] && nearest[r];
  }
  exec::DataFrame out(frame.schema_ptr());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (keep[r]) out.AddRow(rows[r]);
  }
  return out;
}

/// Row-at-a-time interpretation of an optimized plan with no access-path
/// selection: every table scan decodes the whole table through a full-scan
/// Query and keeps the rows where the WHERE predicate evaluates true (k-NN
/// conjuncts by brute-force distance ranking), and
/// the operators above it run on DataFrames (exec::GroupBy / Sort / Limit /
/// HashJoin, EvaluateExpr projections). Analysis functions are not modelled.
inline Result<exec::DataFrame> OracleExecute(core::JustEngine* engine,
                                             const std::string& user,
                                             const sql::PlanNode& node,
                                             const sql::Expr* where = nullptr) {
  using Kind = sql::PlanNode::Kind;
  auto child = [&](size_t i) {
    return OracleExecute(engine, user, *node.children[i]);
  };
  switch (node.kind) {
    case Kind::kScanTable:
    case Kind::kScanView: {
      exec::DataFrame frame;
      if (node.kind == Kind::kScanView) {
        JUST_ASSIGN_OR_RETURN(frame, engine->GetView(user, node.name));
      } else {
        JUST_ASSIGN_OR_RETURN(frame, QueryFrame(engine, user, node.name));
      }
      if (where != nullptr) frame = KeepWhere(frame, *where);
      if (node.required_columns.empty()) return frame;
      return exec::Project(frame, node.required_columns);
    }
    case Kind::kFilter: {
      const sql::PlanNode& input = *node.children[0];
      if (input.kind == Kind::kScanTable || input.kind == Kind::kScanView) {
        return OracleExecute(engine, user, input, node.predicate.get());
      }
      JUST_ASSIGN_OR_RETURN(auto frame, child(0));
      return KeepWhere(frame, *node.predicate);
    }
    case Kind::kProject: {
      JUST_ASSIGN_OR_RETURN(auto input, child(0));
      exec::DataFrame out(node.schema);
      for (const exec::Row& row : input.rows()) {
        exec::Row projected;
        for (const auto& item : node.items) {
          JUST_ASSIGN_OR_RETURN(
              auto value, sql::EvaluateExpr(*item.expr, input.schema(), row));
          projected.push_back(std::move(value));
        }
        out.AddRow(std::move(projected));
      }
      return out;
    }
    case Kind::kAggregate: {
      JUST_ASSIGN_OR_RETURN(auto input, child(0));
      return exec::GroupBy(input, node.group_by, node.aggregates);
    }
    case Kind::kSort: {
      JUST_ASSIGN_OR_RETURN(auto input, child(0));
      std::vector<exec::SortKey> keys;
      for (const auto& item : node.order_by) {
        keys.push_back({item.column, item.ascending});
      }
      return exec::Sort(input, keys);
    }
    case Kind::kLimit: {
      JUST_ASSIGN_OR_RETURN(auto input, child(0));
      return exec::Limit(input, static_cast<size_t>(node.limit));
    }
    case Kind::kJoin: {
      JUST_ASSIGN_OR_RETURN(auto left, child(0));
      JUST_ASSIGN_OR_RETURN(auto right, child(1));
      return exec::HashJoin(left, right, node.join_left_col,
                            node.join_right_col);
    }
  }
  return Status::Internal("bad plan node");
}

/// The brute-force answer to a SELECT statement (see OracleExecute).
inline Result<exec::DataFrame> OracleSelect(core::JustEngine* engine,
                                            const std::string& user,
                                            const std::string& select_sql) {
  JUST_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(select_sql));
  if (stmt.select == nullptr) {
    return Status::InvalidArgument("not a SELECT: " + select_sql);
  }
  sql::Analyzer analyzer(engine, user);
  JUST_ASSIGN_OR_RETURN(auto plan, analyzer.Analyze(*stmt.select));
  JUST_ASSIGN_OR_RETURN(plan, sql::Optimize(std::move(plan)));
  return OracleExecute(engine, user, *plan);
}

}  // namespace just::testing

#endif  // JUST_TESTS_QUERY_ORACLE_H_
