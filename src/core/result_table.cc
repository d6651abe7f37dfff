#include "src/core/result_table.h"

#include <algorithm>

namespace aiql {
namespace {

bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) {
      return true;
    }
    if (b[i] < a[i]) {
      return false;
    }
  }
  return a.size() < b.size();
}

}  // namespace

int ResultTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void ResultTable::SortRowsLexicographically() {
  std::stable_sort(rows_.begin(), rows_.end(), RowLess);
}

std::string ResultTable::ToString(size_t max_rows) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  size_t shown = std::min(max_rows, rows_.size());
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns_.size() && c < rows_[r].size(); ++c) {
      widths[c] = std::max(widths[c], rows_[r][c].ToString().size());
    }
  }
  auto pad = [](const std::string& s, size_t w) {
    std::string out = s;
    out.resize(w, ' ');
    return out;
  };
  std::string out;
  for (size_t c = 0; c < columns_.size(); ++c) {
    out += (c != 0 ? " | " : "") + pad(columns_[c], widths[c]);
  }
  out += "\n";
  for (size_t c = 0; c < columns_.size(); ++c) {
    out += (c != 0 ? "-+-" : "") + std::string(widths[c], '-');
  }
  out += "\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      std::string cell = c < rows_[r].size() ? rows_[r][c].ToString() : "";
      out += (c != 0 ? " | " : "") + pad(cell, widths[c]);
    }
    out += "\n";
  }
  if (shown < rows_.size()) {
    out += "... (" + std::to_string(rows_.size() - shown) + " more rows)\n";
  }
  return out;
}

bool ResultTable::SameRowsAs(const ResultTable& other) const {
  if (rows_.size() != other.rows_.size()) {
    return false;
  }
  auto a = rows_;
  auto b = other.rows_;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j] != b[i][j]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace aiql
