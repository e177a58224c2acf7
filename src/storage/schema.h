#ifndef CDPD_STORAGE_SCHEMA_H_
#define CDPD_STORAGE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace cdpd {

/// Index of a column within its table's schema.
using ColumnId = int32_t;

/// Row identifier within a table (position in the heap).
using RowId = int64_t;

/// Column values. The paper's test database uses four integer columns;
/// the engine supports any number of int64 columns.
using Value = int64_t;

/// A table schema: a named table with a list of named int64 columns.
/// Schemas are immutable value objects.
class Schema {
 public:
  Schema() = default;
  Schema(std::string table_name, std::vector<std::string> column_names);

  const std::string& table_name() const { return table_name_; }
  int32_t num_columns() const {
    return static_cast<int32_t>(column_names_.size());
  }
  const std::string& column_name(ColumnId id) const {
    return column_names_[static_cast<size_t>(id)];
  }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }

  /// The id of the column named `name` (case-insensitive), or -1.
  ColumnId ColumnIndex(std::string_view name) const;

  /// Looks up a column by (case-insensitive) name; NotFound names the
  /// column and the table.
  Result<ColumnId> FindColumn(std::string_view name) const;

  /// Bytes one row occupies in the heap: 8 bytes per column plus a fixed
  /// per-row header. This drives the page math of the cost model.
  int64_t RowBytes() const;

  /// "table(col1,col2,...)" — for debugging and catalogs.
  std::string ToString() const;

  bool operator==(const Schema& other) const = default;

 private:
  std::string table_name_;
  std::vector<std::string> column_names_;
};

/// The schema used throughout the paper's experiments: a single table
/// with four integer columns a, b, c, d.
Schema MakePaperSchema(std::string table_name = "t");

}  // namespace cdpd

#endif  // CDPD_STORAGE_SCHEMA_H_
