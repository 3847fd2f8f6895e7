#ifndef JUST_SQL_ACCESS_PATH_H_
#define JUST_SQL_ACCESS_PATH_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/ast.h"

namespace just::sql {

/// The physical access path chosen for one table scan: the engine query it
/// runs (core::QuerySpec) plus what the plan prints and what the executor
/// still filters. Shared by the executor and by EXPLAIN's plan annotation,
/// so the path the plan prints is the path the executor runs.
struct AccessPath : core::QuerySpec {
  /// EXPLAIN's `access` attribute / plan annotation.
  const char* label = "full_scan";
  /// Conjuncts the chosen path does not answer; the executor runs them as a
  /// residual filter.
  std::vector<const Expr*> residual;
};

/// Flattens an AND tree into conjuncts (borrowed pointers).
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out);

/// Chooses the access path for `conjuncts` over `table_meta`. Priorities:
/// k-NN first (its expansion protocol subsumes everything), then a `ready`
/// secondary index over a bounded column — alone when no spatio-temporal
/// predicate competes, otherwise decided by a cardinality probe against
/// `index_intersection_threshold` (few index entries: the index drives and
/// spatio-temporal refinement filters; many: the curve index drives and the
/// attribute bounds demote to residual work) — then the curve paths, and
/// finally a full scan.
Result<AccessPath> ChooseAccessPath(core::JustEngine* engine,
                                    const std::string& user,
                                    const meta::TableMeta& table_meta,
                                    const std::vector<const Expr*>& conjuncts);

}  // namespace just::sql

#endif  // JUST_SQL_ACCESS_PATH_H_
