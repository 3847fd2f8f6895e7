#ifndef JUST_CORE_ROW_CODEC_H_
#define JUST_CORE_ROW_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "exec/column_batch.h"
#include "exec/dataframe.h"
#include "meta/catalog.h"

namespace just::core {

/// Serializes a row for storage as a KV value. Every cell is framed by the
/// compression layer ([codec id][raw size][payload], Section IV-D): columns
/// declared `compress=gzip|zip` go through the general-purpose codec; the
/// rest use the identity codec. A trajectory (st_series) cell keeps its
/// small fields apart from its big one, as the paper's trajectory table
/// does: an identity-framed summary (MBR, start/end time, point count) and
/// oid, then the GPS list in its own frame: raw fixed-width when
/// uncompressed (what JUSTnc measures), else the delta transform under the
/// column's codec. Refinement reads the summary without touching the list.
Result<std::string> EncodeRow(const meta::TableMeta& table,
                              const exec::Row& row);

/// Inverse of EncodeRow.
Result<exec::Row> DecodeRow(const meta::TableMeta& table,
                            std::string_view bytes);

/// Which table columns a masked decode touches, by column position. An
/// empty mask means every column.
using ColumnMask = std::vector<bool>;

/// Decodes serialized rows straight into ColumnBatch columns, skipping the
/// per-cell Value materialization DecodeRow pays: identity-coded cells parse
/// in place from the row bytes, fixed-width cells (bool / int / timestamp /
/// double) land in the typed column vectors, point geometries parse straight
/// into their Value, and only other geometries / trajectories /
/// type-mismatched cells take the generic Value path. Per-column codec
/// decisions are resolved once at construction, not per row. Rows arrive
/// from remote servers, so every malformed input is a Corruption status.
class BatchRowDecoder {
 public:
  explicit BatchRowDecoder(const meta::TableMeta& table);

  /// Appends one decoded row (every column) to `batch`, which must have
  /// been created with this table's schema. On error the batch is left
  /// without the partial row's FinishRow, so callers should discard it.
  Status DecodeInto(std::string_view bytes, exec::ColumnBatch* batch) const;

  /// Appends one cell to each column of `batch` that `mask` selects and
  /// leaves the others alone; FinishRow is the caller's, since it owns the
  /// other columns' row count. A skipped cell costs its length prefix. Every
  /// prefix is read, selected or not, so a truncated row fails under any
  /// mask. A selected `summary_column` holding a summary-layout st_series
  /// cell decodes to a summary-only trajectory (Trajectory::summary_only):
  /// its GPS list is neither decompressed nor decoded. A full decode of a
  /// summary cell is Corruption when the list disagrees with the summary.
  Status DecodeColumns(std::string_view bytes, const ColumnMask& mask,
                       exec::ColumnBatch* batch,
                       int summary_column = -1) const;

 private:
  /// Appends one unframed cell payload to `col` (table column `column`).
  Status AppendCell(size_t column, std::string_view raw, bool summary_only,
                    exec::ColumnVector* col) const;

  const meta::TableMeta& table_;
  /// Per column: true when the cell payload is an st_series cell (tagged
  /// trajectory encoding) rather than a Value serialization.
  std::vector<bool> is_trajectory_;
};

}  // namespace just::core

#endif  // JUST_CORE_ROW_CODEC_H_
