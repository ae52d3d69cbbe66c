/**
 * @file
 * Streaming TraceReader (forEachTrace / forEachTraceFile): a
 * multi-MB synthetic trace is delivered event by event with
 * correct 1-based line numbers, malformed lines stop the stream
 * with a line-numbered error, and the file variant prefixes the
 * path. The event forEachTrace reuses across lines always equals a
 * fresh parseTraceLine of the same line, and every malformed line
 * keeps its exact message.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_reader.hh"

namespace
{

using ahq::obs::forEachTrace;
using ahq::obs::forEachTraceFile;
using ahq::obs::parseTraceLine;
using ahq::obs::TraceEvent;
using ahq::obs::TraceValue;

/** A synthetic JSONL trace of n events, ~130 bytes per line. */
std::string
syntheticTrace(int n)
{
    std::string out;
    out.reserve(static_cast<std::size_t>(n) * 140);
    for (int i = 0; i < n; ++i) {
        out += "{\"v\":1,\"type\":\"epoch\",\"scenario\":\"synth\","
               "\"epoch\":" +
            std::to_string(i) + ",\"e_s\":0." +
            std::to_string(100000 + i % 899999) +
            ",\"apps\":[1,2,3],\"note\":"
            "\"padding-padding-padding-padding\"}\n";
    }
    return out;
}

TEST(TraceStream, StreamsAMultiMegabyteTraceEventByEvent)
{
    constexpr int kEvents = 40000;
    const std::string text = syntheticTrace(kEvents);
    ASSERT_GT(text.size(), 4u * 1024 * 1024) << "not multi-MB";

    std::istringstream in(text);
    long long seen = 0;
    int last_line = 0;
    forEachTrace(in, [&](const TraceEvent &ev, int line) {
        EXPECT_EQ(ev.num("epoch"), static_cast<double>(seen));
        ++seen;
        last_line = line;
    });
    EXPECT_EQ(seen, kEvents);
    EXPECT_EQ(last_line, kEvents); // 1-based, no blank lines
}

TEST(TraceStream, LineNumbersSkipNothingAndCountBlanks)
{
    std::istringstream in(
        "{\"a\":1}\n\n{\"a\":2}\n\n\n{\"a\":3}\n");
    std::vector<int> lines;
    forEachTrace(in, [&](const TraceEvent &, int line) {
        lines.push_back(line);
    });
    EXPECT_EQ(lines, (std::vector<int>{1, 3, 6}));
}

TEST(TraceStream, MalformedMidFileStopsWithLineNumber)
{
    std::istringstream in(
        "{\"a\":1}\n{\"a\":2}\ngarbage here\n{\"a\":4}\n");
    int delivered = 0;
    try {
        forEachTrace(in, [&](const TraceEvent &, int) {
            ++delivered;
        });
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
    // Everything before the bad line was delivered, nothing after.
    EXPECT_EQ(delivered, 2);
}

TEST(TraceStream, CallbackErrorsCarryTheLineNumber)
{
    std::istringstream in("{\"a\":1}\n{\"a\":2}\n");
    try {
        forEachTrace(in, [&](const TraceEvent &ev, int) {
            if (ev.num("a") == 2.0)
                throw std::runtime_error("rejected by callback");
        });
        FAIL() << "expected callback error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("rejected by callback"),
                  std::string::npos)
            << what;
    }
}

TEST(TraceStream, FileVariantPrefixesThePath)
{
    const std::string path =
        testing::TempDir() + "ahq_stream_test.jsonl";
    {
        std::ofstream out(path);
        out << "{\"a\":1}\nbroken\n";
    }
    try {
        forEachTraceFile(path, [](const TraceEvent &, int) {});
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
    std::remove(path.c_str());

    EXPECT_THROW(
        forEachTraceFile("/nonexistent/trace.jsonl",
                         [](const TraceEvent &, int) {}),
        std::runtime_error);
}

TEST(TraceStream, CollectingReadersMatchTheStreamingOnes)
{
    const std::string text = syntheticTrace(100);
    std::istringstream a(text), b(text);
    const auto collected = ahq::obs::readTrace(a);
    std::size_t streamed = 0;
    forEachTrace(b, [&](const TraceEvent &ev, int) {
        ASSERT_LT(streamed, collected.size());
        EXPECT_EQ(ev.num("epoch"),
                  collected[streamed].num("epoch"));
        ++streamed;
    });
    EXPECT_EQ(streamed, collected.size());
}

// ---- the reused event ------------------------------------------------

/** JSON-escape s the way a foreign writer might: \uXXXX for all
    control bytes, and the two mandatory escapes. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/**
 * Seeded random JSONL: each line a random subset of a small key pool
 * (so fields come and go between lines, sometimes twice on a line)
 * with values of every kind the reader accepts.
 */
std::vector<std::string>
randomLines(int count)
{
    std::mt19937_64 rng(20231);
    const auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    const char *const keys[] = {"type", "app", "shares", "culprits",
                                "r_i", "note", "a-key-longer-than-sso"};
    const std::string alphabet =
        std::string("abcXYZ09 -_/\"\\\n\t\x01\x1f\xe9", 19);
    const auto word = [&] {
        std::string w;
        for (int k = pick(24); k > 0; --k)
            w += alphabet[static_cast<std::size_t>(
                pick(static_cast<int>(alphabet.size())))];
        return w;
    };
    const auto number = [&] {
        const double mag[] = {0.0, 1.0, 1e-7, 3.5e12, 0.1};
        const double v = mag[pick(5)] * (pick(2) ? -1.0 : 1.0) +
            static_cast<double>(pick(1000)) / 7.0;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };
    const auto value = [&]() -> std::string {
        std::string v;
        switch (pick(8)) {
          case 0:
            return number();
          case 1:
            return jsonString(word());
          case 2:
            return "null";
          case 3:
            return pick(2) ? "true" : "false";
          case 4:
            return "[]";
          case 5:
            for (int k = pick(6); k >= 0; --k)
                v += (v.empty() ? "" : ",") +
                    (pick(4) == 0 ? std::string("null") : number());
            return "[" + v + "]";
          default:
            for (int k = pick(6); k >= 0; --k)
                v += (v.empty() ? "" : ",") + jsonString(word());
            return "[" + v + "]";
        }
    };
    std::vector<std::string> lines;
    for (int l = 0; l < count; ++l) {
        std::string line = "{";
        for (int f = pick(9); f > 0; --f) {
            if (line.size() > 1)
                line += pick(3) ? "," : " , ";
            line += jsonString(keys[pick(7)]) + ":" + value();
        }
        lines.push_back(line + "}");
    }
    return lines;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Same field set, kinds and value bits. */
void
expectSameEvent(const TraceEvent &got, const TraceEvent &want,
                const std::string &line)
{
    ASSERT_EQ(got.fields.size(), want.fields.size()) << line;
    auto g = got.fields.begin();
    for (const auto &[key, w] : want.fields) {
        const TraceValue &v = g->second;
        EXPECT_EQ(g->first, key) << line;
        EXPECT_EQ(v.kind, w.kind) << line;
        EXPECT_EQ(bitsOf(v.number), bitsOf(w.number)) << line;
        EXPECT_EQ(v.string, w.string) << line;
        EXPECT_EQ(v.strings, w.strings) << line;
        ASSERT_EQ(v.numbers.size(), w.numbers.size()) << line;
        for (std::size_t k = 0; k < v.numbers.size(); ++k)
            EXPECT_EQ(bitsOf(v.numbers[k]), bitsOf(w.numbers[k]))
                << line;
        ++g;
    }
}

TEST(TraceStream, ReusedEventEqualsAFreshParseOfEveryLine)
{
    std::vector<std::string> lines = {
        // A field present on one line, absent on the next.
        R"({"type":"epoch","a":1,"gone":"x"})",
        R"({"type":"epoch","a":2})",
        // String arrays that shrink, down to [].
        R"({"s":["alpha","beta","gamma","a-string-longer-than-sso"]})",
        R"({"s":["b"]})",
        R"({"s":[]})",
        R"({"s":["x","y"]})",
        // null inside number arrays.
        R"({"n":[1,null,-2.5e-3,null]})",
        R"({"n":[null]})",
        // Escapes, in values and keys.
        R"({"e":"q\"b\\s\/n\nr\rt\tb\bf\fu\u0001\u00ff","k\"\\":1})",
        // Duplicate keys: the last occurrence wins, kind included.
        R"({"d":[1,2],"d":"last"})",
        R"({"d":"first","d":[3]})",
        // One key through every kind.
        R"({"k":"str"})", R"({"k":7})", R"({"k":null})",
        R"({"k":true})", R"({"k":["a"]})", R"({"k":[1]})",
        R"({"k":false})", R"({"k":[]})",
        " { \"w\" : [ 1 , 2 ] , \"t\" : \"v\" } ",
        "{}",
    };
    for (const std::string &l : randomLines(2000))
        lines.push_back(l);

    std::string text;
    for (const std::string &l : lines)
        text += l + "\n";
    std::istringstream in(text);
    std::size_t seen = 0;
    forEachTrace(in, [&](const TraceEvent &ev, int line) {
        const std::string &src =
            lines[static_cast<std::size_t>(line - 1)];
        expectSameEvent(ev, parseTraceLine(src), src);
        ++seen;
    });
    EXPECT_EQ(seen, lines.size());

    // The fresh parse itself reads these lines right.
    EXPECT_EQ(parseTraceLine(lines[8]).str("e"),
              std::string("q\"b\\s/n\nr\rt\tb\bf\fu\x01\xff"));
    EXPECT_TRUE(parseTraceLine(lines[8]).has("k\"\\"));
    EXPECT_EQ(parseTraceLine(lines[9]).str("d"), "last");
    EXPECT_EQ(parseTraceLine(lines[10]).nums("d"),
              std::vector<double>{3.0});
    EXPECT_EQ(parseTraceLine(lines[6]).nums("n"),
              (std::vector<double>{1.0, 0.0, -2.5e-3, 0.0}));
    EXPECT_FALSE(parseTraceLine(lines[1]).has("gone"));
}

TEST(TraceStream, MalformedLinesKeepTheirMessages)
{
    const std::pair<const char *, const char *> cases[] = {
        {R"({"a":"unterminated)", "column 19: unterminated string"},
        {R"({"a":"dangling\)", "column 16: dangling escape"},
        {R"({"a":"\u00)", "column 9: short \\u escape"},
        {R"({"a":"\uzzzz"})", "column 9: bad \\u escape"},
        {R"({"a":"\u0100"})",
         "column 13: unsupported \\u escape > 0xff"},
        {R"({"a":"\q"})", "column 9: unknown escape"},
        {R"({"a":1.2.3})", "column 11: bad number"},
        {R"({"a":{"b":1}})",
         "column 6: nested objects are not part of the trace schema"},
        {R"({"a":1} x)", "column 9: trailing characters"},
        {R"({"a" 1})", "column 6: expected ':'"},
        {R"(["a"])", "column 1: expected '{'"},
        {R"({"a":[1,2})", "column 10: expected ','"},
        {R"({"a":-})", "column 7: bad number"},
        {R"({"a":[1,"x"]})", "column 9: bad number"},
        {R"({"a":["x",1]})", "column 11: expected '\"'"},
        {R"({"a":tru})", "column 6: bad number"},
        {R"({a:1})", "column 2: expected '\"'"},
        {R"({"a":1,})", "column 8: expected '\"'"},
        {R"({"a":)", "column 6: bad number"},
        {R"(   {"a":nul})", "column 9: bad number"},
    };
    for (const auto &[line, what] : cases) {
        // A good line first, so the reused event is warm.
        std::istringstream in(std::string("{\"a\":[\"x\"]}\n") + line +
                              "\n");
        try {
            forEachTrace(in, [](const TraceEvent &, int) {});
            ADD_FAILURE() << "expected parse error: " << line;
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("line 2: bad trace line at ") + what);
        }
    }
}

} // namespace
