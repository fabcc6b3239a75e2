#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/assert.h"

namespace alps::util {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
    ALPS_EXPECT(!headers_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
    ALPS_EXPECT(cells.size() == headers_.size());
    for (const auto& c : cells) {
        ALPS_EXPECT(c.find(',') == std::string::npos);
        ALPS_EXPECT(c.find('\n') == std::string::npos);
    }
    rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << "| " << row[c] << std::string(widths[c] - row[c].size() + 1, ' ');
        }
        out << "|\n";
    };
    emit_row(headers_);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        out << "|" << std::string(widths[c] + 2, '-');
    }
    out << "|\n";
    for (const auto& row : rows_) emit_row(row);
    return out.str();
}

void TextTable::print(std::ostream& os) const { os << render(); }

std::string fmt(double value, int decimals) {
    ALPS_EXPECT(decimals >= 0 && decimals <= 12);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
}

}  // namespace alps::util
