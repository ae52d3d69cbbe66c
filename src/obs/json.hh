/**
 * @file
 * Minimal JSON serialisation helpers for the telemetry layer.
 *
 * Only what JSONL trace events need: escaped strings and
 * deterministic number formatting (shortest round-trip via
 * std::to_chars, so the same double always renders as the same
 * bytes — the property the serial==parallel trace-identity test
 * relies on). Non-finite doubles render as null, which keeps every
 * emitted line valid JSON.
 *
 * The helpers are templated over the output buffer so the hot
 * trace-assembly path can write into an arena-backed obs::ArenaString
 * while offline tools keep using std::string; both expose the same
 * push_back / operator+= / append(first, last) slice of the string
 * interface.
 */

#ifndef AHQ_OBS_JSON_HH
#define AHQ_OBS_JSON_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace ahq::obs::json
{

/** Append s as a quoted, escaped JSON string. */
template <class Out>
void
appendString(Out &out, std::string_view s)
{
    out.push_back('"');
    const char *run = s.data();
    const char *const last = s.data() + s.size();
    for (const char *p = run; p != last; ++p) {
        const char c = *p;
        // Bytes that need no escaping are appended a run at a time.
        if (c != '"' && c != '\\' &&
            static_cast<unsigned char>(c) >= 0x20)
            continue;
        if (p != run)
            out.append(run, p);
        run = p + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
          }
        }
    }
    if (last != run)
        out.append(run, last);
    out.push_back('"');
}

/** Append a double (shortest round-trip; null when non-finite). */
template <class Out>
void
appendNumber(Out &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** Append an integer. */
template <class Out>
void
appendNumber(Out &out, long long v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** Quoted, escaped JSON string (convenience). */
std::string quoted(std::string_view s);

} // namespace ahq::obs::json

#endif // AHQ_OBS_JSON_HH
