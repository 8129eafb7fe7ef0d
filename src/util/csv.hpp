// Minimal CSV writing, used to dump experiment series for offline plotting.
#pragma once

#include <string>
#include <vector>

namespace solsched::util {

/// Accumulates rows and serializes them as RFC-4180-ish CSV.
class CsvWriter {
 public:
  /// Sets the header row.
  explicit CsvWriter(std::vector<std::string> header);

  /// Appends a row of string cells (quoted if they contain separators).
  void add_row(std::vector<std::string> row);

  /// Appends a row of numeric cells formatted with 6 significant digits.
  void add_row(const std::vector<double>& row);

  /// Serializes all rows.
  std::string str() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace solsched::util
