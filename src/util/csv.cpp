#include "util/csv.hpp"

#include <cstdio>
#include <sstream>

namespace solsched::util {
namespace {

/// RFC-4180 cell: quoted (inner quotes doubled) only when the cell contains
/// a separator, quote or line break (\r or \n), so ordinary cells keep the
/// bare spelling.
std::string csv_cell(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

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
      out << csv_cell(row[c]);
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace solsched::util
