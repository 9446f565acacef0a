// Table rendering for sweep results and examples: a GitHub-markdown table
// for terminal output, and CSV for plotting.
#ifndef XDRS_STATS_TABLE_HPP
#define XDRS_STATS_TABLE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace xdrs::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent cell() calls fill it left to right.
  Table& row();

  Table& cell(const std::string& v);
  Table& cell(const char* v);
  Table& cell(std::int64_t v);
  Table& cell(std::uint64_t v);
  Table& cell(double v, int precision = 3);

  [[nodiscard]] std::size_t rows() const noexcept { return cells_.size(); }

  /// Markdown rendering with aligned columns.
  [[nodiscard]] std::string markdown() const;
  [[nodiscard]] std::string csv() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

}  // namespace xdrs::stats

#endif  // XDRS_STATS_TABLE_HPP
