#include "util/csv.hpp"

#include <cstdio>
#include <sstream>

#include "obs/json_escape.hpp"

namespace solsched::util {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void CsvWriter::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void CsvWriter::add_row(const std::vector<double>& row) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (double v : row) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    cells.emplace_back(buf);
  }
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::str() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      out << obs::csv_cell(row[c]);
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace solsched::util
