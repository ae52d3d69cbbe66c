/**
 * @file
 * Plain-text table rendering for the benchmark harness, so every
 * bench binary can print the paper's tables/figure series in a
 * readable aligned form.
 */

#ifndef AHQ_REPORT_TABLE_HH
#define AHQ_REPORT_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace ahq::report
{

/**
 * Text as printed on one line: a line break in a table cell or a
 * legend entry would split it, so \n and \r are written as the two
 * characters `\n` / `\r`.
 */
std::string oneLine(std::string text);

/**
 * A simple column-aligned text table.
 */
class TextTable
{
  public:
    /** @param headers Column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /**
     * Append a row; it is padded/truncated to the column count. A
     * line break in a cell (or header) prints as the two characters
     * `\n` (`\r`), so every row stays on one line.
     */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with the given precision. */
    static std::string num(double v, int precision = 3);

    /** Render with aligned columns to the stream. */
    void print(std::ostream &os) const;

    /** Number of data rows. */
    std::size_t numRows() const { return rows.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows;
};

/** Print a section heading ("== title ==") to the stream. */
void heading(std::ostream &os, const std::string &title);

} // namespace ahq::report

#endif // AHQ_REPORT_TABLE_HH
