#include "support/strings.h"

#include <algorithm>

namespace bolt::support {

std::string with_commas(std::int64_t value) {
  const bool negative = value < 0;
  std::uint64_t magnitude =
      negative ? 0ULL - static_cast<std::uint64_t>(value)
               : static_cast<std::uint64_t>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string render_table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return {};
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c != 0) out += "  ";
      out += pad_right(rows[r][c], widths[c]);
    }
    out += '\n';
    if (r == 0) {
      for (std::size_t c = 0; c < widths.size(); ++c) {
        if (c != 0) out += "  ";
        out += std::string(widths[c], '-');
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace bolt::support
