// Tabular query results returned by the AIQL engine.
#ifndef AIQL_SRC_CORE_RESULT_TABLE_H_
#define AIQL_SRC_CORE_RESULT_TABLE_H_

#include <string>
#include <vector>

#include "src/core/exec_session.h"
#include "src/util/value.h"

namespace aiql {

class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<Value>>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  void AddRow(std::vector<Value> row) { rows_.push_back(std::move(row)); }
  std::vector<std::vector<Value>>* mutable_rows() { return &rows_; }

  // Column index by name; -1 if absent.
  int ColumnIndex(const std::string& name) const;

  // Sorts rows lexicographically (used for deterministic comparisons when the
  // query has no sort clause). Stable: of rows that compare equal, such as
  // 1 and 1.0, the earlier stays first, so `distinct` keeps the first row of
  // each equal run in input order.
  void SortRowsLexicographically();

  // Renders an aligned ASCII table (examples and the interactive shell).
  std::string ToString(size_t max_rows = 50) const;

  bool SameRowsAs(const ResultTable& other) const;

  // Statistics of the execution that produced this table. Each result owns
  // its stats, so concurrent executions against one engine never share
  // mutable state.
  const ExecStats& exec_stats() const { return exec_stats_; }
  void set_exec_stats(ExecStats stats) { exec_stats_ = std::move(stats); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<Value>> rows_;
  ExecStats exec_stats_;
};

}  // namespace aiql

#endif  // AIQL_SRC_CORE_RESULT_TABLE_H_
