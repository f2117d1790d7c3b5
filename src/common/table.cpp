#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"

namespace quartz {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  QUARTZ_REQUIRE(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  QUARTZ_REQUIRE(row.size() == header_.size(), "row width must match header");
  rows_.push_back(std::move(row));
}

std::string Table::format_cell(double v) {
  char buf[64];
  if (std::fabs(v - std::round(v)) < 1e-9 && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c] << std::string(widths[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) os << "  ";
    }
    os << "\n";
  };
  emit(header_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << std::string(rule, '-') << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace quartz
