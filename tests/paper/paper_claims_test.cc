/**
 * @file
 * The paper's qualitative claims, asserted on the figure CSVs that
 * the `paper_csvs` fixture has just regenerated. The byte gate next
 * to it pins every digit; these checks state what must survive an
 * intended numeric change that re-records the CSVs:
 *  - ARQ has the lowest mean E_S and the highest mean yield over
 *    the Fig. 8/9 sweeps (headline.csv);
 *  - ARQ needs the fewest cores on every Fig. 3(b) isentropic line
 *    (fig03b.csv);
 *  - the model's Table IV max loads keep the published order, each
 *    within 0.1% of the published value (table4.csv).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace
{

/** One CSV as rows of named cells (the header names the columns). */
std::vector<std::map<std::string, std::string>>
readCsv(const std::string &name)
{
    const std::string path = std::string(AHQ_PAPER_OUT) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << "cannot read " << path;
    auto split = [](const std::string &line) {
        std::vector<std::string> cells;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, ','))
            cells.push_back(cell);
        return cells;
    };
    std::string line;
    std::getline(in, line);
    const auto header = split(line);
    std::vector<std::map<std::string, std::string>> rows;
    while (std::getline(in, line)) {
        const auto cells = split(line);
        EXPECT_EQ(cells.size(), header.size()) << name << ": " << line;
        std::map<std::string, std::string> row;
        for (std::size_t c = 0; c < header.size() && c < cells.size();
             ++c)
            row[header[c]] = cells[c];
        rows.push_back(std::move(row));
    }
    return rows;
}

double
number(const std::map<std::string, std::string> &row,
       const std::string &column)
{
    const auto it = row.find(column);
    if (it == row.end() || it->second.empty() || it->second == "-")
        return NAN;
    return std::strtod(it->second.c_str(), nullptr);
}

TEST(PaperClaims, ArqHasTheLowestEntropyAndHighestYield)
{
    const auto rows = readCsv("headline.csv");
    ASSERT_EQ(rows.size(), 3u);
    const auto arq = std::find_if(rows.begin(), rows.end(),
                                  [](const auto &r) {
                                      return r.at("strategy") == "ARQ";
                                  });
    ASSERT_NE(arq, rows.end());
    for (const auto &r : rows) {
        if (&r == &*arq)
            continue;
        EXPECT_LT(number(*arq, "mean_es"), number(r, "mean_es"))
            << r.at("strategy");
        EXPECT_GT(number(*arq, "mean_yield"), number(r, "mean_yield"))
            << r.at("strategy");
    }
}

TEST(PaperClaims, ArqNeedsTheFewestCoresOnEveryIsentropicLine)
{
    const auto rows = readCsv("fig03b.csv");
    ASSERT_FALSE(rows.empty());
    for (const auto &r : rows) {
        const double arq = number(r, "arq_cores");
        ASSERT_FALSE(std::isnan(arq)) << "ways " << r.at("ways");
        for (const char *other :
             {"unmanaged_cores", "parties_cores", "clite_cores"}) {
            // An unreachable target ("-") needs more than any core
            // count the sweep offers.
            const double v = number(r, other);
            if (!std::isnan(v)) {
                EXPECT_LT(arq, v) << "ways " << r.at("ways") << ", "
                                  << other;
            }
        }
    }
}

TEST(PaperClaims, TableFourMaxLoadsKeepThePublishedOrder)
{
    const auto rows = readCsv("table4.csv");
    ASSERT_FALSE(rows.empty());
    for (const auto &r : rows) {
        const double paper = number(r, "paper_max_qps");
        EXPECT_LE(std::abs(number(r, "model_max_qps") - paper),
                  1e-3 * paper)
            << r.at("app");
    }
    for (const auto &a : rows) {
        for (const auto &b : rows) {
            if (number(a, "paper_max_qps") < number(b, "paper_max_qps")) {
                EXPECT_LT(number(a, "model_max_qps"),
                          number(b, "model_max_qps"))
                    << a.at("app") << " vs " << b.at("app");
            }
        }
    }
}

} // namespace
