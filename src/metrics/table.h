// Fixed-width console tables and CSV emission for benchmark output.

#ifndef SRC_METRICS_TABLE_H_
#define SRC_METRICS_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace scio {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  // Convenience: formats doubles with the given precision.
  void AddRow(const std::vector<double>& values, int precision = 1);
  void AddRow(std::vector<std::string> cells);

  // Render as an aligned console table.
  void Print(std::ostream& out) const;

  // Render as CSV (headers + rows).
  void WriteCsv(std::ostream& out) const;

  // Write CSV to a file; returns false on I/O failure.
  bool WriteCsvFile(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace scio

#endif  // SRC_METRICS_TABLE_H_
