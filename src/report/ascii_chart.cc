/**
 * @file
 * ASCII chart implementations.
 */

#include "report/ascii_chart.hh"
#include "report/table.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

namespace ahq::report
{

namespace
{

constexpr const char *kGlyphs = "*o+x#@%&";

struct Range
{
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();

    void
    expand(double v)
    {
        if (!std::isfinite(v))
            return;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }

    bool valid() const { return lo <= hi; }

    double
    span() const
    {
        return hi > lo ? hi - lo : 1.0;
    }
};

} // namespace

void
lineChart(std::ostream &os, const std::vector<Series> &series,
          int width, int height, const std::string &title)
{
    assert(width > 8 && height > 2);
    Range xr, yr;
    for (const auto &s : series) {
        assert(s.xs.size() == s.ys.size());
        for (double x : s.xs)
            xr.expand(x);
        for (double y : s.ys)
            yr.expand(y);
    }
    if (!xr.valid() || !yr.valid()) {
        os << "(no finite data)\n";
        return;
    }

    std::vector<std::string> grid(
        static_cast<std::size_t>(height),
        std::string(static_cast<std::size_t>(width), ' '));

    for (std::size_t si = 0; si < series.size(); ++si) {
        const char glyph = kGlyphs[si % 8];
        const auto &s = series[si];
        for (std::size_t i = 0; i < s.xs.size(); ++i) {
            if (!std::isfinite(s.xs[i]) || !std::isfinite(s.ys[i]))
                continue;
            const int col = static_cast<int>(std::lround(
                (s.xs[i] - xr.lo) / xr.span() * (width - 1)));
            const int row = static_cast<int>(std::lround(
                (s.ys[i] - yr.lo) / yr.span() * (height - 1)));
            const int r = height - 1 - row;
            grid[static_cast<std::size_t>(r)]
                [static_cast<std::size_t>(col)] = glyph;
        }
    }

    if (!title.empty())
        os << title << "\n";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%10.3g", yr.hi);
    os << buf << " +" << grid.front() << "\n";
    for (int r = 1; r + 1 < height; ++r) {
        os << std::string(10, ' ') << " |"
           << grid[static_cast<std::size_t>(r)] << "\n";
    }
    std::snprintf(buf, sizeof(buf), "%10.3g", yr.lo);
    os << buf << " +" << grid.back() << "\n";
    std::snprintf(buf, sizeof(buf), "%.3g", xr.lo);
    std::string footer = std::string(12, ' ') + buf;
    std::snprintf(buf, sizeof(buf), "%.3g", xr.hi);
    const std::string hi_label = buf;
    const std::size_t pad_to =
        12 + static_cast<std::size_t>(width) - hi_label.size();
    if (footer.size() < pad_to)
        footer += std::string(pad_to - footer.size(), ' ');
    footer += hi_label;
    os << footer << "\n";
    for (std::size_t si = 0; si < series.size(); ++si) {
        os << "  [" << kGlyphs[si % 8] << "] "
           << oneLine(series[si].name) << "\n";
    }
}

void
heatmap(std::ostream &os, const std::vector<std::vector<double>> &rows,
        const std::vector<std::string> &row_labels,
        const std::string &title)
{
    assert(rows.size() == row_labels.size());
    static const char *kShades = " .:-=+*#%@";
    Range vr;
    for (const auto &row : rows) {
        for (double v : row)
            vr.expand(v);
    }
    if (!vr.valid()) {
        os << "(no finite data)\n";
        return;
    }
    std::size_t label_w = 0;
    for (const auto &l : row_labels)
        label_w = std::max(label_w, l.size());

    if (!title.empty()) {
        os << title << "  [scale " << kShades[0] << "="
           << vr.lo << " .. " << kShades[9] << "=" << vr.hi << "]\n";
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
        os << row_labels[r]
           << std::string(label_w - row_labels[r].size(), ' ')
           << " |";
        for (double v : rows[r]) {
            int shade = 0;
            if (std::isfinite(v)) {
                shade = static_cast<int>(
                    std::lround((v - vr.lo) / vr.span() * 9.0));
                shade = std::clamp(shade, 0, 9);
            }
            os << kShades[shade] << kShades[shade];
        }
        os << "|\n";
    }
}

} // namespace ahq::report
