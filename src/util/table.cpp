#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/contracts.hpp"

namespace colex::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  COLEX_EXPECTS(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  COLEX_EXPECTS(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << " |\n";
  };
  print_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(width[c], '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) print_row(row);
}

std::string Table::num(std::uint64_t v) { return std::to_string(v); }

std::string Table::fixed(double v, int digits) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(digits) << v;
  return ss.str();
}

}  // namespace colex::util
