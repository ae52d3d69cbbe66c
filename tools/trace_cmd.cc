/**
 * @file
 * `ahq trace` — summarise a JSONL decision trace produced with
 * --trace / AHQ_TRACE: per-scenario epoch counts and E_S timeline,
 * scheduler decision totals (adjustments, rollbacks, bans) and the
 * per-app remaining-tolerance summary from ARQ decision events.
 */

#include "cli.hh"
#include "front_end.hh"

#include <algorithm>
#include <map>

#include "obs/scope.hh"
#include "report/ascii_chart.hh"

namespace ahq::cli
{

namespace
{

/** Per-app ReT statistics from arq_decision events. */
struct AppRet
{
    int samples = 0;
    double sumRet = 0.0;
    double minRet = 2.0;
    double sumQ = 0.0;
};

/** What `trace` keeps per run beyond the shared RunSummary. */
struct RunDetail
{
    /** The E_S chart's points, one per epoch event. */
    std::vector<double> ts, es;
    std::map<int, AppRet> retByApp;
};

} // namespace

int
runTrace(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    if (args.size() != 1) {
        err << "usage: ahq trace <file.jsonl>\n";
        return 2;
    }

    // Streamed: one line at a time (multi-GB traces read in
    // constant memory), everything aggregated before anything is
    // printed so a malformed line never leaves partial output.
    RunFold fold;
    std::vector<RunDetail> detail;
    std::size_t num_events = 0;
    obs::TraceReadStats stats;
    const bool read = foldTrace(
        args[0], err,
        [&](const obs::TraceEvent &ev, int) {
            ++num_events;
            const std::size_t run = fold.add(ev);
            detail.resize(fold.runs().size());
            const std::string type = ev.type();
            if (type == "epoch") {
                detail[run].ts.push_back(ev.num("t"));
                detail[run].es.push_back(ev.num("e_s"));
            } else if (type == "arq_decision") {
                const auto apps = ev.nums("apps");
                const auto ret = ev.nums("ret");
                const auto q = ev.nums("q");
                for (std::size_t i = 0;
                     i < apps.size() && i < ret.size(); ++i) {
                    auto &r = detail[run]
                                  .retByApp[static_cast<int>(apps[i])];
                    ++r.samples;
                    r.sumRet += ret[i];
                    r.minRet = std::min(r.minRet, ret[i]);
                    if (i < q.size())
                        r.sumQ += q[i];
                }
            }
        },
        &stats);
    if (!read)
        return 1;
    if (num_events == 0) {
        err << "error: " << args[0] << ": empty trace\n";
        return 1;
    }

    // The runs this summary covers: tags seen only on events it
    // does not fold (an experiment's own start/block/end) stay out.
    std::vector<std::size_t> order;
    long long total_epochs = 0;
    for (std::size_t i = 0; i < fold.runs().size(); ++i) {
        if (fold.runs()[i].folded > 0)
            order.push_back(i);
        total_epochs += fold.runs()[i].epochs;
    }
    out << args[0] << ": " << num_events << " events, "
        << order.size() << " scenario(s), " << total_epochs
        << " epochs (schema v" << obs::kSchemaVersion << ")\n";
    if (stats.unknownEvents > 0) {
        // Foreign / future-schema event types must never vanish
        // silently — name them (the reader also bumps the
        // reader.unknown_events metric).
        out << "unknown event types (" << stats.unknownEvents
            << " event(s) outside the schema taxonomy):";
        for (const auto &[type, count] : stats.unknownTypes)
            out << " " << type << " x" << count;
        out << "\n";
    }

    // Per-scenario run summary and decision totals.
    OutputTable t({"scenario", "scheduler", "epochs", "mean E_S",
                   "final E_S", "adjustments", "rollbacks", "bans"});
    // Telemetry events beyond the decision stream.
    OutputTable tt({"scenario", "faults", "recoveries", "violations",
                    "spans", "series"});
    bool any_telemetry = false;
    for (const std::size_t i : order) {
        const RunSummary &s = fold.runs()[i];
        const Cell tag = scenarioCell(s.scenario);
        t.addRow({tag, orDash(s.scheduler), s.epochs,
                  s.epochs > 0 ? Cell(s.sumEs / s.epochs) : Cell(),
                  s.epochs > 0 ? Cell(s.finalEs) : Cell(),
                  s.adjustments, s.rollbacks, s.bans});
        tt.addRow({tag, s.faults, s.recoveries, s.violations,
                   s.spanEvents, s.seriesEvents});
        any_telemetry = any_telemetry || s.faults > 0 ||
            s.recoveries > 0 || s.violations > 0 ||
            s.spanEvents > 0 || s.seriesEvents > 0;
    }
    t.printText(out);
    if (any_telemetry) {
        out << "telemetry events:\n";
        tt.printText(out);
    }

    // E_S timeline (the first few scenarios with epoch events keep
    // the chart readable; the table above covers the rest).
    std::vector<report::Series> series;
    for (const std::size_t i : order) {
        const std::string &tag = fold.runs()[i].scenario;
        if (detail[i].ts.empty() || series.size() >= 6)
            continue;
        series.push_back(
            {tag.empty() ? "E_S" : tag, detail[i].ts, detail[i].es});
    }
    if (!series.empty()) {
        report::lineChart(out, series, 72, 16,
                          "E_S per epoch (x = time s)");
    }

    // Per-app remaining tolerance, from ARQ decision events.
    OutputTable rt(
        {"scenario", "app", "mean ReT", "min ReT", "mean Q"});
    for (const std::size_t i : order) {
        const std::string &tag = fold.runs()[i].scenario;
        for (const auto &[app, r] : detail[i].retByApp) {
            rt.addRow({scenarioCell(tag),
                       "app" + std::to_string(app),
                       r.sumRet / r.samples, r.minRet,
                       r.sumQ / r.samples});
        }
    }
    if (!rt.empty()) {
        out << "remaining tolerance (ARQ decisions):\n";
        rt.printText(out);
    }

    // Read-stats footer: what the streaming reader actually saw,
    // including lines that produced no event at all.
    out << "reader: " << stats.events << " event(s) parsed, "
        << stats.skippedLines << " blank line(s) skipped, "
        << stats.unknownEvents << " outside the schema taxonomy\n";
    return 0;
}

} // namespace ahq::cli
