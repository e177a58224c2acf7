#include "storage/schema.h"

#include "common/string_util.h"
#include "storage/page.h"

namespace cdpd {

Schema::Schema(std::string table_name, std::vector<std::string> column_names)
    : table_name_(std::move(table_name)),
      column_names_(std::move(column_names)) {}

ColumnId Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (EqualsIgnoreCase(column_names_[i], name)) {
      return static_cast<ColumnId>(i);
    }
  }
  return -1;
}

Result<ColumnId> Schema::FindColumn(std::string_view name) const {
  const ColumnId id = ColumnIndex(name);
  if (id >= 0) return id;
  return Status::NotFound("no column '" + std::string(name) + "' in table '" +
                          table_name_ + "'");
}

int64_t Schema::RowBytes() const {
  return kValueBytes * num_columns() + kRowHeaderBytes;
}

std::string Schema::ToString() const {
  return table_name_ + "(" + Join(column_names_, ",") + ")";
}

Schema MakePaperSchema(std::string table_name) {
  return Schema(std::move(table_name), {"a", "b", "c", "d"});
}

}  // namespace cdpd
