/**
 * @file
 * Text table implementation.
 */

#include "report/table.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ahq::report
{

std::string
oneLine(std::string text)
{
    if (text.find_first_of("\n\r") == std::string::npos)
        return text;
    std::string out;
    for (char ch : text) {
        if (ch == '\n')
            out += "\\n";
        else if (ch == '\r')
            out += "\\r";
        else
            out += ch;
    }
    return out;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    for (auto &h : headers_)
        h = oneLine(std::move(h));
}

void
TextTable::addRow(std::vector<std::string> row)
{
    row.resize(headers_.size());
    for (auto &cell : row)
        cell = oneLine(std::move(cell));
    rows.push_back(std::move(row));
}

std::string
TextTable::num(double v, int precision)
{
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    if (std::isnan(v))
        return "nan";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string &cell =
                c < row.size() ? row[c] : std::string();
            os << "  " << cell
               << std::string(widths[c] - cell.size(), ' ');
        }
        os << "\n";
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows)
        print_row(row);
}

void
heading(std::ostream &os, const std::string &title)
{
    os << "\n== " << title << " ==\n";
}

} // namespace ahq::report
