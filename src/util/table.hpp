// Fixed-width console table printer for the benchmark harness, so every
// bench binary reports its experiment in the same readable format.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace colex::util {

/// Collects rows of string cells and prints them with aligned columns.
/// Usage:
///   Table t({"n", "IDmax", "pulses", "formula"});
///   t.add_row({"8", "20", "328", "328"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

  /// Formatting helpers for cells.
  static std::string num(std::uint64_t v);
  static std::string fixed(double v, int digits = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace colex::util
