// Plain-text tables for the experiment reports.
//
// Every figure/table experiment prints a human-readable fixed-width table
// that mirrors the paper's presentation; the JSON payload carries the
// machine-readable numbers.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace alps::util {

/// Fixed-width text table with a header row.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> headers);

    /// Appends one row; must have exactly as many cells as there are headers.
    void add_row(std::vector<std::string> cells);

    /// Renders with columns padded to their widest cell.
    [[nodiscard]] std::string render() const;

    void print(std::ostream& os) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimal places.
[[nodiscard]] std::string fmt(double value, int decimals = 2);

}  // namespace alps::util
