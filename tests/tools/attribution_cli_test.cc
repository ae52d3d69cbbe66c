/**
 * @file
 * CLI tests for the interference-attribution tooling: the
 * --attribute / --slo simulate flags, `ahq why` (blame ledger from
 * a trace, text/csv/json), `ahq alerts` (burn-rate transitions and
 * totals), and the `ahq trace` reader footer with its
 * blank/unknown-line accounting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli.hh"

namespace
{

using namespace ahq::cli;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "ahq_attr_cli_" + name;
}

struct CliResult
{
    int code;
    std::string out;
    std::string err;
};

CliResult
run(const std::vector<std::string> &argv)
{
    std::ostringstream out, err;
    const int code = dispatch(argv, out, err);
    return {code, out.str(), err.str()};
}

/** One traced, attributed, alerted reference run. */
std::string
attributedTrace(const std::string &name)
{
    const std::string trace = tmpPath(name);
    const auto sim = run({"simulate", "--strategy", "Unmanaged",
                          "--duration", "20", "--warmup", "4",
                          "--attribute", "--slo", "--trace", trace,
                          "xapian=0.5", "stream"});
    EXPECT_EQ(sim.code, 0) << sim.err;
    return trace;
}

TEST(CliParse, AttributeAndSloFlags)
{
    EXPECT_FALSE(
        parseSimulateArgs({"xapian=0.5", "stream"}).attribute);
    EXPECT_FALSE(parseSimulateArgs({"xapian=0.5", "stream"}).slo);
    const auto opt = parseSimulateArgs(
        {"--attribute", "--slo", "xapian=0.5", "stream"});
    EXPECT_TRUE(opt.attribute);
    EXPECT_TRUE(opt.slo);
    // Boolean flags take no value.
    EXPECT_THROW(
        (void)parseSimulateArgs({"--attribute=yes", "xapian=0.5"}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)parseSimulateArgs({"--slo=on", "xapian=0.5"}),
        std::invalid_argument);
}

TEST(Simulate, AttributePrintsBlameTableAndSloSummary)
{
    const std::string trace = attributedTrace("sim.jsonl");
    const auto sim = run({"simulate", "--strategy", "Unmanaged",
                          "--duration", "20", "--warmup", "4",
                          "--attribute", "--slo", "xapian=0.5",
                          "stream"});
    ASSERT_EQ(sim.code, 0) << sim.err;
    EXPECT_NE(sim.out.find("interference attribution"),
              std::string::npos);
    EXPECT_NE(sim.out.find("stream"), std::string::npos);
    EXPECT_NE(sim.out.find("slo: raises ="), std::string::npos);
    std::remove(trace.c_str());
}

TEST(Why, NamesTheBandwidthHogInEveryFormat)
{
    const std::string trace = attributedTrace("why.jsonl");

    const auto text = run({"why", trace});
    ASSERT_EQ(text.code, 0) << text.err;
    EXPECT_NE(text.out.find("xapian"), std::string::npos);
    EXPECT_NE(text.out.find("stream"), std::string::npos);
    EXPECT_NE(text.out.find("bandwidth"), std::string::npos);
    EXPECT_NE(text.out.find("per-victim summed R_i:"),
              std::string::npos);

    const auto csv = run({"why", "--format=csv", trace});
    ASSERT_EQ(csv.code, 0) << csv.err;
    EXPECT_EQ(csv.out.rfind("victim,culprit,resource,share,epochs",
                            0),
              0u);
    EXPECT_NE(csv.out.find("xapian,stream,"), std::string::npos);

    // --top=1 keeps the single largest row after the header.
    const auto top = run({"why", "--format=csv", "--top=1", trace});
    ASSERT_EQ(top.code, 0) << top.err;
    int lines = 0;
    for (const char c : top.out)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 2);

    const auto json = run({"why", "--format=json", trace});
    ASSERT_EQ(json.code, 0) << json.err;
    EXPECT_NE(json.out.find("\"tool\":\"ahq why\""),
              std::string::npos);
    EXPECT_NE(json.out.find("\"victim\":\"xapian\""),
              std::string::npos);

    // Filters that match nothing fail loudly.
    const auto none = run({"why", "--app=masstree", trace});
    EXPECT_EQ(none.code, 1);
    EXPECT_NE(none.err.find("no matching attribution events"),
              std::string::npos);
    std::remove(trace.c_str());
}

TEST(Why, UsageAndMissingFileErrors)
{
    const auto usage = run({"why", "--bogus", "x.jsonl"});
    EXPECT_EQ(usage.code, 2);
    EXPECT_NE(usage.err.find("usage: ahq why"), std::string::npos);
    EXPECT_EQ(run({"why"}).code, 2);
    EXPECT_EQ(run({"why", tmpPath("nonexistent.jsonl")}).code, 1);

    // --top is a whole integer: no trailing garbage, no words.
    const std::string trace = attributedTrace("why_top.jsonl");
    const auto trailing = run({"why", "--top=3x", trace});
    EXPECT_EQ(trailing.code, 2);
    EXPECT_EQ(trailing.out, "");
    const auto word = run({"why", "--top", "abc", trace});
    EXPECT_EQ(word.code, 2);
    EXPECT_NE(word.err.find("bad --top: 'abc' (expected an integer)"),
              std::string::npos)
        << word.err;
    std::remove(trace.c_str());
}

TEST(Alerts, ListsTransitionsAndTotalsInEveryFormat)
{
    const std::string trace = attributedTrace("alerts.jsonl");

    const auto text = run({"alerts", trace});
    ASSERT_EQ(text.code, 0) << text.err;
    EXPECT_NE(text.out.find("RAISE"), std::string::npos);
    EXPECT_NE(text.out.find("totals:"), std::string::npos);
    EXPECT_NE(text.out.find("xapian"), std::string::npos);

    const auto csv = run({"alerts", "--format=csv", trace});
    ASSERT_EQ(csv.code, 0) << csv.err;
    EXPECT_EQ(csv.out.rfind(
                  "scenario,app,event,epoch,burn_fast,burn_slow",
                  0),
              0u);

    const auto json = run({"alerts", "--format=json",
                           "--scenario=Unmanaged", trace});
    ASSERT_EQ(json.code, 0) << json.err;
    EXPECT_NE(json.out.find("\"tool\":\"ahq alerts\""),
              std::string::npos);
    EXPECT_NE(json.out.find("\"raises\":"), std::string::npos);

    // Filters that match nothing fail loudly.
    const auto none = run({"alerts", "--scenario=absent", trace});
    EXPECT_EQ(none.code, 1);
    EXPECT_NE(none.err.find("no matching alert events"),
              std::string::npos);

    const auto usage = run({"alerts", "--format=yaml", trace});
    EXPECT_EQ(usage.code, 2);
    std::remove(trace.c_str());
}

TEST(Trace, FooterReportsReaderStats)
{
    const std::string trace = attributedTrace("footer.jsonl");
    // A mixed tail: blank lines and a foreign (future-schema)
    // event type the reader must count, not drop.
    {
        std::ofstream f(trace, std::ios::app);
        f << "\n"
          << "{\"v\":1,\"type\":\"from_the_future\",\"x\":1}\n"
          << "\n";
    }
    const auto res = run({"trace", trace});
    ASSERT_EQ(res.code, 0) << res.err;
    EXPECT_NE(res.out.find("2 blank line(s) skipped"),
              std::string::npos)
        << res.out;
    EXPECT_NE(res.out.find("1 outside the schema taxonomy"),
              std::string::npos);
    EXPECT_NE(res.out.find("from_the_future x1"),
              std::string::npos);
    std::remove(trace.c_str());
}

TEST(Trace, MalformedMixStopsWithLineNumberAndNoPartialOutput)
{
    const std::string trace = tmpPath("malformed.jsonl");
    {
        std::ofstream f(trace);
        f << "{\"v\":1,\"type\":\"run_start\",\"scenario\":\"s\","
             "\"scheduler\":\"ARQ\",\"epochs\":1}\n"
          << "\n"
          << "{\"v\":1,\"type\":\"epoch\",\"trunc\n";
    }
    const auto res = run({"trace", trace});
    EXPECT_EQ(res.code, 1);
    EXPECT_NE(res.err.find("line 3"), std::string::npos) << res.err;
    EXPECT_TRUE(res.out.empty()) << res.out;
    std::remove(trace.c_str());
}

} // namespace
