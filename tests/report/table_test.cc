/**
 * @file
 * Tests for the text table renderer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "report/table.hh"

namespace
{

using ahq::report::heading;
using ahq::report::TextTable;

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
    // Separator line present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded)
{
    TextTable t({"a", "b", "c"});
    t.addRow({"only"});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(TextTable, LineBreakInACellStaysOnItsRow)
{
    TextTable t({"scenario", "n"});
    t.addRow({"A\nB", "1"});
    t.addRow({"C\rD", "22"});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(os.str(), "  scenario  n \n"
                        "--------------\n"
                        "  A\\nB      1 \n"
                        "  C\\rD      22\n");
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(0.5), "0.500");
    EXPECT_EQ(TextTable::num(
                  std::numeric_limits<double>::infinity()),
              "inf");
    EXPECT_EQ(TextTable::num(std::nan("")), "nan");
}

TEST(Heading, Renders)
{
    std::ostringstream os;
    heading(os, "Table II");
    EXPECT_EQ(os.str(), "\n== Table II ==\n");
}

} // namespace
