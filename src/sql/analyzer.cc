#include "sql/analyzer.h"

#include "sql/expr_eval.h"
#include "sql/functions.h"

namespace just::sql {

namespace {

// True if the expression contains an aggregate call at any depth.
bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == Expr::Kind::kCall) {
    exec::AggFunc agg;
    if (FindAggregateFunction(expr.call_name, &agg)) return true;
  }
  for (const auto& arg : expr.args) {
    if (ContainsAggregate(*arg)) return true;
  }
  return false;
}

std::string DeriveAlias(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == Expr::Kind::kColumn) return item.expr->column;
  return item.expr->ToString();
}

}  // namespace

Result<std::unique_ptr<PlanNode>> Analyzer::AnalyzeSource(
    const SelectStmt& select) {
  std::unique_ptr<PlanNode> source;
  if (select.subquery != nullptr) {
    JUST_ASSIGN_OR_RETURN(source, Analyze(*select.subquery));
  } else if (engine_->ViewExists(user_, select.from_name)) {
    source = MakePlanNode(PlanNode::Kind::kScanView);
    source->name = select.from_name;
    JUST_ASSIGN_OR_RETURN(auto view, engine_->GetView(user_,
                                                      select.from_name));
    source->schema = view.schema_ptr();
  } else {
    JUST_ASSIGN_OR_RETURN(auto table_meta,
                          engine_->DescribeTable(user_, select.from_name));
    source = MakePlanNode(PlanNode::Kind::kScanTable);
    source->name = select.from_name;
    source->schema = table_meta.MakeSchema();
  }

  if (!select.join_name.empty()) {
    std::unique_ptr<PlanNode> right;
    if (engine_->ViewExists(user_, select.join_name)) {
      right = MakePlanNode(PlanNode::Kind::kScanView);
      right->name = select.join_name;
      JUST_ASSIGN_OR_RETURN(auto view,
                            engine_->GetView(user_, select.join_name));
      right->schema = view.schema_ptr();
    } else {
      JUST_ASSIGN_OR_RETURN(auto table_meta,
                            engine_->DescribeTable(user_, select.join_name));
      right = MakePlanNode(PlanNode::Kind::kScanTable);
      right->name = select.join_name;
      right->schema = table_meta.MakeSchema();
    }
    if (source->schema->IndexOf(select.join_left_col) < 0) {
      return Status::InvalidArgument("join column not in left input: " +
                                     select.join_left_col);
    }
    if (right->schema->IndexOf(select.join_right_col) < 0) {
      return Status::InvalidArgument("join column not in right input: " +
                                     select.join_right_col);
    }
    auto join = MakePlanNode(PlanNode::Kind::kJoin);
    join->join_left_col = select.join_left_col;
    join->join_right_col = select.join_right_col;
    auto joined_schema = std::make_shared<exec::Schema>();
    for (const auto& f : source->schema->fields()) {
      joined_schema->AddField(f);
    }
    for (const auto& f : right->schema->fields()) {
      exec::Field out = f;
      if (source->schema->IndexOf(f.name) >= 0) out.name += "_r";
      joined_schema->AddField(out);
    }
    join->schema = joined_schema;
    join->children.push_back(std::move(source));
    join->children.push_back(std::move(right));
    source = std::move(join);
  }
  return source;
}

Result<std::unique_ptr<PlanNode>> Analyzer::Analyze(const SelectStmt& select) {
  JUST_ASSIGN_OR_RETURN(auto node, AnalyzeSource(select));

  // WHERE.
  if (select.where != nullptr) {
    // Type-check against the source schema (verifies field names).
    JUST_ASSIGN_OR_RETURN(auto where_type,
                          InferType(*select.where, *node->schema));
    if (where_type != exec::DataType::kBool) {
      return Status::InvalidArgument("WHERE must be boolean");
    }
    auto filter = MakePlanNode(PlanNode::Kind::kFilter);
    filter->predicate = select.where->Clone();
    CoerceTimeLiterals(filter->predicate.get(), *node->schema);
    filter->schema = node->schema;
    filter->children.push_back(std::move(node));
    node = std::move(filter);
  }

  // Aggregation vs plain projection.
  bool has_aggregate = !select.group_by.empty();
  for (const auto& item : select.items) {
    if (item.expr->kind != Expr::Kind::kStar &&
        ContainsAggregate(*item.expr)) {
      has_aggregate = true;
    }
  }

  if (has_aggregate) {
    auto agg = MakePlanNode(PlanNode::Kind::kAggregate);
    agg->group_by = select.group_by;
    auto schema = std::make_shared<exec::Schema>();
    for (const auto& col : select.group_by) {
      int idx = node->schema->IndexOf(col);
      if (idx < 0) {
        return Status::InvalidArgument("no such column: " + col);
      }
      schema->AddField(node->schema->field(idx));
    }
    for (const auto& item : select.items) {
      if (item.expr->kind == Expr::Kind::kColumn) {
        // Must be a group-by column; it is already in the schema.
        bool found = false;
        for (const auto& g : select.group_by) {
          if (g == item.expr->column) found = true;
        }
        if (!found) {
          return Status::InvalidArgument(
              "column " + item.expr->column +
              " must appear in GROUP BY or inside an aggregate");
        }
        continue;
      }
      if (item.expr->kind != Expr::Kind::kCall) {
        return Status::InvalidArgument(
            "aggregate queries support only aggregate calls and group "
            "columns in SELECT");
      }
      exec::AggFunc func;
      if (!FindAggregateFunction(item.expr->call_name, &func)) {
        return Status::InvalidArgument("unknown aggregate: " +
                                       item.expr->call_name);
      }
      exec::Aggregate aggregate;
      aggregate.func = func;
      if (!item.expr->args.empty() &&
          item.expr->args[0]->kind == Expr::Kind::kColumn) {
        aggregate.column = item.expr->args[0]->column;
        if (node->schema->IndexOf(aggregate.column) < 0) {
          return Status::InvalidArgument("no such column: " +
                                         aggregate.column);
        }
      }
      aggregate.output_name = DeriveAlias(item);
      exec::DataType out_type =
          func == exec::AggFunc::kCount
              ? exec::DataType::kInt
              : (func == exec::AggFunc::kMin || func == exec::AggFunc::kMax) &&
                        !aggregate.column.empty()
                    ? node->schema
                          ->field(node->schema->IndexOf(aggregate.column))
                          .type
                    : exec::DataType::kDouble;
      schema->AddField({aggregate.output_name, out_type});
      agg->aggregates.push_back(std::move(aggregate));
    }
    agg->schema = schema;
    agg->children.push_back(std::move(node));
    node = std::move(agg);
  } else {
    // ORDER BY may reference pre-projection columns: sort below the project.
    if (!select.order_by.empty()) {
      for (const auto& item : select.order_by) {
        if (node->schema->IndexOf(item.column) < 0) {
          return Status::InvalidArgument("no such column: " + item.column);
        }
      }
      auto sort = MakePlanNode(PlanNode::Kind::kSort);
      sort->order_by = select.order_by;
      sort->schema = node->schema;
      sort->children.push_back(std::move(node));
      node = std::move(sort);
    }
    // Projection with * expansion.
    auto project = MakePlanNode(PlanNode::Kind::kProject);
    auto schema = std::make_shared<exec::Schema>();
    bool custom_schema = false;
    for (const auto& item : select.items) {
      if (item.expr->kind == Expr::Kind::kStar) {
        for (const auto& f : node->schema->fields()) {
          SelectItem expanded;
          expanded.expr = Expr::Column(f.name);
          expanded.alias = f.name;
          project->items.push_back(std::move(expanded));
          schema->AddField(f);
        }
        continue;
      }
      // 1-N / N-M functions carry their own output schema.
      if (item.expr->kind == Expr::Kind::kCall) {
        const TableFunction* tf = FindTableFunction(item.expr->call_name);
        const PartitionFunction* pf =
            FindPartitionFunction(item.expr->call_name);
        if (tf != nullptr || pf != nullptr) {
          if (select.items.size() != 1) {
            return Status::InvalidArgument(
                item.expr->call_name +
                " must be the only item in the SELECT list");
          }
          // Validate the input column reference.
          if (!item.expr->args.empty()) {
            for (const auto& arg : item.expr->args) {
              JUST_RETURN_NOT_OK(InferType(*arg, *node->schema).status());
            }
          }
          SelectItem copied;
          copied.expr = item.expr->Clone();
          copied.alias = item.alias;
          project->items.push_back(std::move(copied));
          project->schema = tf != nullptr ? tf->output_schema
                                          : pf->output_schema;
          custom_schema = true;
          break;
        }
      }
      JUST_ASSIGN_OR_RETURN(auto type, InferType(*item.expr, *node->schema));
      SelectItem copied;
      copied.expr = item.expr->Clone();
      copied.alias = item.alias;
      schema->AddField({DeriveAlias(item), type});
      project->items.push_back(std::move(copied));
    }
    if (!custom_schema) project->schema = schema;
    project->children.push_back(std::move(node));
    node = std::move(project);
  }

  // ORDER BY over aggregate output.
  if (has_aggregate && !select.order_by.empty()) {
    for (const auto& item : select.order_by) {
      if (node->schema->IndexOf(item.column) < 0) {
        return Status::InvalidArgument("no such column: " + item.column);
      }
    }
    auto sort = MakePlanNode(PlanNode::Kind::kSort);
    sort->order_by = select.order_by;
    sort->schema = node->schema;
    sort->children.push_back(std::move(node));
    node = std::move(sort);
  }

  if (select.limit >= 0) {
    auto limit = MakePlanNode(PlanNode::Kind::kLimit);
    limit->limit = select.limit;
    limit->schema = node->schema;
    limit->children.push_back(std::move(node));
    node = std::move(limit);
  }
  return node;
}

}  // namespace just::sql
