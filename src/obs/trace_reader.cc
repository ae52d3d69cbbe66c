/**
 * @file
 * JSONL trace parser implementation.
 */

#include "obs/trace_reader.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/metrics.hh"

namespace ahq::obs
{

namespace
{

/** Cursor over one line with parse helpers. */
struct Cursor
{
    std::string_view s;
    std::size_t i = 0;

    [[noreturn]] void fail(const std::string &what) const
    {
        throw std::runtime_error("bad trace line at column " +
                                 std::to_string(i + 1) + ": " +
                                 what);
    }

    /** The "C"-locale std::isspace set, without the call. */
    static bool isSpace(char c)
    {
        return c == ' ' || (c >= '\t' && c <= '\r');
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    void skipWs()
    {
        while (i < s.size() && isSpace(s[i]))
            ++i;
    }

    char peek() const { return i < s.size() ? s[i] : '\0'; }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++i;
    }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++i;
        return true;
    }

    /** Parse a JSON string into @p out, reusing its capacity. */
    void parseString(std::string &out)
    {
        expect('"');
        out.clear();
        while (true) {
            // Bytes up to the next quote or escape go in one copy.
            std::size_t end = i;
            while (end < s.size() && s[end] != '"' && s[end] != '\\')
                ++end;
            out.append(s.data() + i, end - i);
            i = end;
            if (i >= s.size())
                fail("unterminated string");
            if (s[i++] == '"')
                return;
            if (i >= s.size())
                fail("dangling escape");
            const char e = s[i++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out.push_back(e);
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'u': {
                if (i + 4 > s.size())
                    fail("short \\u escape");
                unsigned code = 0;
                const auto res = std::from_chars(
                    s.data() + i, s.data() + i + 4, code, 16);
                if (res.ptr != s.data() + i + 4)
                    fail("bad \\u escape");
                i += 4;
                // The writer only escapes control bytes, so a
                // one-byte reconstruction is exact for our traces.
                if (code > 0xff)
                    fail("unsupported \\u escape > 0xff");
                out.push_back(static_cast<char>(code));
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    double parseNumber()
    {
        const std::size_t start = i;
        if (peek() == '-')
            ++i;
        while (i < s.size() &&
               (isDigit(s[i]) || s[i] == '.' || s[i] == 'e' ||
                s[i] == 'E' || s[i] == '+' || s[i] == '-'))
            ++i;
        double v = 0.0;
        const auto res =
            std::from_chars(s.data() + start, s.data() + i, v);
        if (res.ec != std::errc() || res.ptr != s.data() + i)
            fail("bad number");
        return v;
    }

    bool consumeWord(std::string_view w)
    {
        if (s.substr(i, w.size()) != w)
            return false;
        i += w.size();
        return true;
    }

    /**
     * Parse one value into @p v, overwriting whatever an earlier
     * line left there (so @p v ends up equal to a freshly parsed
     * value) while keeping its buffers' capacity.
     */
    void parseValue(TraceValue &v)
    {
        skipWs();
        v.kind = TraceValue::Kind::Number;
        v.number = 0.0;
        v.numbers.clear();
        std::size_t strings = 0;
        bool string = false;
        const char c = peek();
        if (c == '"') {
            v.kind = TraceValue::Kind::String;
            parseString(v.string);
            string = true;
        } else if (c == '[') {
            strings = parseArray(v);
        } else if (consumeWord("null")) {
            v.kind = TraceValue::Kind::Null;
        } else if (consumeWord("true")) {
            v.number = 1.0;
        } else if (consumeWord("false")) {
            v.number = 0.0;
        } else if (c == '{') {
            fail("nested objects are not part of the trace schema");
        } else {
            v.number = parseNumber();
        }
        if (!string)
            v.string.clear();
        v.strings.resize(strings);
    }

    /** Parse an array into @p v; returns its string count. */
    std::size_t parseArray(TraceValue &v)
    {
        ++i;
        skipWs();
        v.kind = TraceValue::Kind::NumberArray;
        if (consume(']'))
            return 0;
        const bool strings = peek() == '"';
        if (strings)
            v.kind = TraceValue::Kind::StringArray;
        std::size_t n = 0;
        while (true) {
            skipWs();
            if (strings) {
                if (n == v.strings.size())
                    v.strings.emplace_back();
                parseString(v.strings[n++]);
            } else if (consumeWord("null")) {
                v.numbers.push_back(0.0);
            } else {
                v.numbers.push_back(parseNumber());
            }
            skipWs();
            if (consume(']'))
                return n;
            expect(',');
        }
    }
};

/**
 * Parses lines into one reused TraceEvent: a field the line repeats
 * keeps its map node and buffers; a field it lacks is taken out of
 * the map and its node kept for the next new key, so lines of
 * alternating types allocate nothing either.
 */
class LineParser
{
    using Fields = decltype(TraceEvent::fields);

  public:
    void parse(std::string_view line, TraceEvent &ev)
    {
        Cursor c{line};
        c.skipWs();
        c.expect('{');
        seen_.clear();
        c.skipWs();
        if (!c.consume('}')) {
            while (true) {
                c.skipWs();
                c.parseString(key_);
                c.skipWs();
                c.expect(':');
                auto it = ev.fields.lower_bound(key_);
                if (it == ev.fields.end() || it->first != key_)
                    it = insert(ev.fields, it);
                // A duplicate key parses into the same node: the
                // last occurrence wins.
                c.parseValue(it->second);
                if (!wasSeen(&it->second))
                    seen_.push_back(&it->second);
                c.skipWs();
                if (c.consume('}'))
                    break;
                c.expect(',');
            }
        }
        c.skipWs();
        if (c.i != line.size())
            c.fail("trailing characters");
        if (seen_.size() == ev.fields.size())
            return;
        for (auto it = ev.fields.begin(); it != ev.fields.end();) {
            if (wasSeen(&it->second))
                ++it;
            else
                spare_.push_back(ev.fields.extract(it++));
        }
    }

  private:
    /** A node for key_ before @p hint, recycled when one is spare. */
    Fields::iterator insert(Fields &fields, Fields::iterator hint)
    {
        if (spare_.empty())
            return fields.emplace_hint(hint, key_, TraceValue{});
        Fields::node_type node = std::move(spare_.back());
        spare_.pop_back();
        node.key() = key_;
        return fields.insert(hint, std::move(node));
    }

    bool wasSeen(const TraceValue *v) const
    {
        return std::find(seen_.begin(), seen_.end(), v) != seen_.end();
    }

    std::string key_;
    /** Fields this line carried (a line has a handful). */
    std::vector<const TraceValue *> seen_;
    std::vector<Fields::node_type> spare_;
};

/** The "type" field, without a copy ("" when missing). */
std::string_view
typeOf(const TraceEvent &ev)
{
    const auto it = ev.fields.find(std::string_view("type"));
    return it != ev.fields.end() &&
            it->second.kind == TraceValue::Kind::String ?
        std::string_view(it->second.string) : std::string_view();
}

} // namespace

double
TraceEvent::num(std::string_view key, double def) const
{
    const auto it = fields.find(key);
    return it != fields.end() &&
            it->second.kind == TraceValue::Kind::Number ?
        it->second.number : def;
}

std::string
TraceEvent::str(std::string_view key, const std::string &def) const
{
    const auto it = fields.find(key);
    return it != fields.end() &&
            it->second.kind == TraceValue::Kind::String ?
        it->second.string : def;
}

std::vector<double>
TraceEvent::nums(std::string_view key) const
{
    const auto it = fields.find(key);
    return it != fields.end() &&
            it->second.kind == TraceValue::Kind::NumberArray ?
        it->second.numbers : std::vector<double>{};
}

std::vector<std::string>
TraceEvent::strs(std::string_view key) const
{
    const auto it = fields.find(key);
    return it != fields.end() &&
            it->second.kind == TraceValue::Kind::StringArray ?
        it->second.strings : std::vector<std::string>{};
}

bool
TraceEvent::has(std::string_view key) const
{
    return fields.find(key) != fields.end();
}

TraceEvent
parseTraceLine(const std::string &line)
{
    TraceEvent ev;
    LineParser().parse(line, ev);
    return ev;
}

bool
isKnownTraceType(std::string_view type)
{
    // The schema-v1 taxonomy (docs/TRACE_SCHEMA.md). Sorted so the
    // lookup is a binary search; update alongside the doc table.
    static constexpr std::string_view kKnown[] = {
        "alert_clear",      "alert_raise",
        "arq_decision",     "attribution",
        "bench",            "clite_decision",
        "cluster_end",      "cluster_migrate",
        "cluster_round",    "cluster_start",
        "epoch",            "experiment_block",
        "experiment_end",   "experiment_start",
        "fault",            "fleet_end",
        "fleet_node",       "fleet_start",
        "parties_decision", "policy_swap",
        "recovery",         "run_end",
        "run_start",        "scenario_end",
        "scenario_start",   "series",
        "span",             "violation",
    };
    return std::binary_search(std::begin(kKnown),
                              std::end(kKnown), type);
}

void
forEachTrace(std::istream &in, const TraceEventFn &fn,
             TraceReadStats *stats)
{
    std::string line;
    TraceEvent ev;
    LineParser parser;
    int n = 0;
    std::uint64_t unknown = 0;
    while (std::getline(in, line)) {
        ++n;
        if (line.empty()) {
            if (stats != nullptr)
                ++stats->skippedLines;
            continue;
        }
        try {
            parser.parse(line, ev);
            if (stats != nullptr) {
                ++stats->events;
                const std::string_view type = typeOf(ev);
                if (!isKnownTraceType(type)) {
                    ++stats->unknownEvents;
                    ++stats->unknownTypes[std::string(type)];
                    ++unknown;
                }
            }
            fn(ev, n);
        } catch (const std::exception &e) {
            throw std::runtime_error("line " + std::to_string(n) +
                                     ": " + e.what());
        }
    }
    // Unknown types must leave a trace even when the caller drops
    // the stats struct on the floor.
    if (unknown > 0)
        globalMetrics().add("reader.unknown_events",
                            static_cast<double>(unknown));
}

void
forEachTraceFile(const std::string &path, const TraceEventFn &fn,
                 TraceReadStats *stats)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open trace: " + path);
    try {
        forEachTrace(in, fn, stats);
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

std::vector<TraceEvent>
readTrace(std::istream &in)
{
    std::vector<TraceEvent> events;
    forEachTrace(in, [&events](const TraceEvent &ev, int) {
        events.push_back(ev);
    });
    return events;
}

std::vector<TraceEvent>
readTraceFile(const std::string &path)
{
    std::vector<TraceEvent> events;
    forEachTraceFile(path,
                     [&events](const TraceEvent &ev, int) {
                         events.push_back(ev);
                     });
    return events;
}

} // namespace ahq::obs
