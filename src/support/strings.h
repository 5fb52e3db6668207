// Small string/formatting helpers shared by contract printing and reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bolt::support {

/// Formats an integer with thousands separators: 1234567 -> "1,234,567".
std::string with_commas(std::int64_t value);

/// Joins the elements with the given separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Left-pads (or passes through) to the given width.
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pads (or passes through) to the given width.
std::string pad_right(const std::string& s, std::size_t width);

/// Renders a simple aligned text table (first row is the header).
std::string render_table(const std::vector<std::vector<std::string>>& rows);

}  // namespace bolt::support
