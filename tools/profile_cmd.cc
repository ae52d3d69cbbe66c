/**
 * @file
 * `ahq profile` — aggregate the `span` events of a profiled trace
 * (--profile --trace) into a flame-style indented tree per
 * scenario, plus the shared tree renderer that simulate / sweep /
 * chaos --profile use for their console summary.
 */

#include "cli.hh"
#include "front_end.hh"

#include <algorithm>
#include <cstdint>
#include <map>

#include "obs/span.hh"
#include "report/table.hh"

namespace ahq::cli
{

namespace
{

/** One span path's aggregates, from either source (live profiler
 *  snapshot or `span` trace events). */
struct SpanRow
{
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double maxMs = 0.0;
    double p99Ms = 0.0;
};

/** Depth of a path = number of '/' separators. */
int
pathDepth(const std::string &path)
{
    return static_cast<int>(
        std::count(path.begin(), path.end(), '/'));
}

/**
 * Render one path-keyed row set as an indented tree. std::map's
 * lexicographic order is a depth-first pre-order for '/'-joined
 * paths (every letter sorts above '/'), so children always follow
 * their parent directly.
 */
void
printTree(std::ostream &out,
          const std::map<std::string, SpanRow> &rows,
          bool wall_times)
{
    std::vector<std::string> headers{"span", "count"};
    if (wall_times) {
        headers.insert(headers.end(),
                       {"total (ms)", "mean (ms)", "p99 (ms)",
                        "max (ms)", "% parent"});
    }
    report::TextTable t(std::move(headers));
    for (const auto &[path, row] : rows) {
        const auto slash = path.rfind('/');
        const std::string name = slash == std::string::npos
                                     ? path
                                     : path.substr(slash + 1);
        std::string label(
            static_cast<std::size_t>(2 * pathDepth(path)), ' ');
        label += name;
        std::vector<std::string> cells{
            label, std::to_string(row.count)};
        if (wall_times) {
            cells.push_back(report::TextTable::num(row.totalMs));
            cells.push_back(report::TextTable::num(
                row.count > 0 ? row.totalMs / row.count : 0.0));
            cells.push_back(report::TextTable::num(row.p99Ms));
            cells.push_back(report::TextTable::num(row.maxMs));
            std::string share = "-";
            if (slash != std::string::npos) {
                const auto parent =
                    rows.find(path.substr(0, slash));
                if (parent != rows.end() &&
                    parent->second.totalMs > 0.0) {
                    share = report::TextTable::num(
                        100.0 * row.totalMs /
                            parent->second.totalMs,
                        1);
                }
            }
            cells.push_back(share);
        }
        t.addRow(std::move(cells));
    }
    t.print(out);
}

} // namespace

void
printSpanProfile(std::ostream &out, const obs::SpanProfiler &prof,
                 bool wall_times)
{
    std::map<std::string, SpanRow> rows;
    for (const auto &[path, st] : prof.snapshot()) {
        SpanRow row;
        row.count = st.count;
        row.totalMs = static_cast<double>(st.totalNs) / 1e6;
        row.maxMs = static_cast<double>(st.maxNs) / 1e6;
        row.p99Ms =
            static_cast<double>(st.quantileNs(0.99)) / 1e6;
        rows.emplace(path, row);
    }
    printTree(out, rows, wall_times);
}

int
runProfile(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    if (args.size() != 1) {
        err << "usage: ahq profile <file.jsonl>\n";
        return 2;
    }

    // Everything is aggregated before a single byte is printed, so
    // a malformed line can never leave a partial table behind.
    std::vector<std::string> order; // scenarios, first-seen
    std::map<std::string, std::map<std::string, SpanRow>> scen;
    std::map<std::string, bool> timed;
    long long span_events = 0;
    const bool read = foldTrace(
        args[0], err, [&](const obs::TraceEvent &ev, int) {
            if (ev.type() != "span")
                return;
            ++span_events;
            const std::string tag = ev.str("scenario");
            if (scen.find(tag) == scen.end())
                order.push_back(tag);
            auto &row = scen[tag][ev.str("path")];
            row.count +=
                static_cast<std::uint64_t>(ev.num("count"));
            if (ev.has("total_ms")) {
                timed[tag] = true;
                row.totalMs += ev.num("total_ms");
                row.maxMs =
                    std::max(row.maxMs, ev.num("max_ms"));
                // Merged events lose exact quantiles; the max
                // of the per-flush p99s is a sound upper bound.
                row.p99Ms =
                    std::max(row.p99Ms, ev.num("p99_ms"));
            }
        });
    if (!read)
        return 1;
    if (span_events == 0) {
        err << "error: " << args[0]
            << ": no span events (produce one with "
               "--profile --trace)\n";
        return 1;
    }

    out << args[0] << ": " << span_events << " span event(s), "
        << scen.size() << " scenario(s)\n";
    for (const auto &tag : order) {
        out << "scenario "
            << scenarioLabel(tag) << ":\n";
        printTree(out, scen[tag], timed[tag]);
    }
    return 0;
}

} // namespace ahq::cli
