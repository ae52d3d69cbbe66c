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
#include "report/table.hh"

namespace ahq::cli
{

namespace
{

/** Aggregates for one scenario (one run within the trace). */
struct ScenarioSummary
{
    std::string scheduler;
    int epochs = 0;
    double lastEs = 0.0;
    double sumEs = 0.0;
    std::vector<double> ts, es;

    // Decision totals across arq/parties/clite events.
    int adjustments = 0;
    int rollbacks = 0;
    int bans = 0;
    int holds = 0;

    // Event families the summary previously skipped silently.
    int faults = 0;
    int recoveries = 0;
    int violations = 0;
    int spans = 0;
    int series = 0;

    /** Per-app ReT statistics from arq_decision events. */
    struct AppRet
    {
        int samples = 0;
        double sumRet = 0.0;
        double minRet = 2.0;
        double sumQ = 0.0;
    };
    std::map<int, AppRet> retByApp;
};

bool
isAdjustAction(const std::string &action)
{
    return action == "move" || action == "upsize" ||
        action == "downsize_trial" || action == "sample" ||
        action == "exploit";
}

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
    std::vector<std::string> order; // scenario tags, first-seen
    std::map<std::string, ScenarioSummary> scenarios;
    auto summary = [&](const obs::TraceEvent &ev)
        -> ScenarioSummary & {
        const std::string tag = ev.str("scenario");
        if (scenarios.find(tag) == scenarios.end())
            order.push_back(tag);
        return scenarios[tag];
    };

    std::size_t num_events = 0;
    obs::TraceReadStats stats;
    const bool read = foldTrace(
        args[0], err,
        [&](const obs::TraceEvent &ev, int) {
            ++num_events;
            const std::string type = ev.type();
            if (type == "run_start") {
                summary(ev).scheduler = ev.str("scheduler");
            } else if (type == "epoch") {
                auto &s = summary(ev);
                ++s.epochs;
                s.lastEs = ev.num("e_s");
                s.sumEs += s.lastEs;
                s.ts.push_back(ev.num("t"));
                s.es.push_back(s.lastEs);
            } else if (type == "arq_decision") {
                auto &s = summary(ev);
                const std::string action = ev.str("action");
                if (action == "move")
                    ++s.adjustments;
                else if (action == "rollback")
                    ++s.rollbacks;
                else if (action == "hold")
                    ++s.holds;
                if (ev.has("ban_region"))
                    ++s.bans;
                const auto apps = ev.nums("apps");
                const auto ret = ev.nums("ret");
                const auto q = ev.nums("q");
                for (std::size_t i = 0;
                     i < apps.size() && i < ret.size(); ++i) {
                    auto &r =
                        s.retByApp[static_cast<int>(apps[i])];
                    ++r.samples;
                    r.sumRet += ret[i];
                    r.minRet = std::min(r.minRet, ret[i]);
                    if (i < q.size())
                        r.sumQ += q[i];
                }
            } else if (type == "parties_decision" ||
                       type == "clite_decision") {
                auto &s = summary(ev);
                const std::string action = ev.str("action");
                if (isAdjustAction(action))
                    ++s.adjustments;
                else if (action == "revert" ||
                         action == "re_explore")
                    ++s.rollbacks;
            } else if (type == "fault") {
                ++summary(ev).faults;
            } else if (type == "recovery") {
                ++summary(ev).recoveries;
            } else if (type == "violation") {
                ++summary(ev).violations;
            } else if (type == "span") {
                ++summary(ev).spans;
            } else if (type == "series") {
                ++summary(ev).series;
            }
        },
        &stats);
    if (!read)
        return 1;
    if (num_events == 0) {
        err << "error: " << args[0] << ": empty trace\n";
        return 1;
    }

    int total_epochs = 0;
    for (const auto &[tag, s] : scenarios)
        total_epochs += s.epochs;
    out << args[0] << ": " << num_events << " events, "
        << scenarios.size() << " scenario(s), " << total_epochs
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
    report::TextTable t({"scenario", "scheduler", "epochs",
                         "mean E_S", "final E_S", "adjustments",
                         "rollbacks", "bans"});
    for (const auto &tag : order) {
        const auto &s = scenarios[tag];
        t.addRow({scenarioLabel(tag),
                  s.scheduler.empty() ? "-" : s.scheduler,
                  std::to_string(s.epochs),
                  s.epochs > 0 ?
                      report::TextTable::num(s.sumEs / s.epochs) :
                      "-",
                  s.epochs > 0 ?
                      report::TextTable::num(s.lastEs) : "-",
                  std::to_string(s.adjustments),
                  std::to_string(s.rollbacks),
                  std::to_string(s.bans)});
    }
    t.print(out);

    // Telemetry events beyond the decision stream (previously
    // read but never surfaced).
    bool any_telemetry = false;
    for (const auto &[tag, s] : scenarios) {
        any_telemetry = any_telemetry || s.faults > 0 ||
            s.recoveries > 0 || s.violations > 0 || s.spans > 0 ||
            s.series > 0;
    }
    if (any_telemetry) {
        report::TextTable tt({"scenario", "faults", "recoveries",
                              "violations", "spans", "series"});
        for (const auto &tag : order) {
            const auto &s = scenarios[tag];
            tt.addRow({scenarioLabel(tag),
                       std::to_string(s.faults),
                       std::to_string(s.recoveries),
                       std::to_string(s.violations),
                       std::to_string(s.spans),
                       std::to_string(s.series)});
        }
        out << "telemetry events:\n";
        tt.print(out);
    }

    // E_S timeline (the first few scenarios with epoch events keep
    // the chart readable; the table above covers the rest).
    std::vector<report::Series> series;
    for (const auto &tag : order) {
        const auto &s = scenarios[tag];
        if (s.ts.empty() || series.size() >= 6)
            continue;
        series.push_back(
            {tag.empty() ? "E_S" : tag, s.ts, s.es});
    }
    if (!series.empty()) {
        report::lineChart(out, series, 72, 16,
                          "E_S per epoch (x = time s)");
    }

    // Per-app remaining tolerance, from ARQ decision events.
    bool any_ret = false;
    for (const auto &[tag, s] : scenarios)
        any_ret = any_ret || !s.retByApp.empty();
    if (any_ret) {
        report::TextTable rt({"scenario", "app", "mean ReT",
                              "min ReT", "mean Q"});
        for (const auto &tag : order) {
            const auto &s = scenarios[tag];
            for (const auto &[app, r] : s.retByApp) {
                rt.addRow({scenarioLabel(tag),
                           "app" + std::to_string(app),
                           report::TextTable::num(
                               r.sumRet / r.samples),
                           report::TextTable::num(r.minRet),
                           report::TextTable::num(
                               r.sumQ / r.samples)});
            }
        }
        out << "remaining tolerance (ARQ decisions):\n";
        rt.print(out);
    }

    // Read-stats footer: what the streaming reader actually saw,
    // including lines that produced no event at all.
    out << "reader: " << stats.events << " event(s) parsed, "
        << stats.skippedLines << " blank line(s) skipped, "
        << stats.unknownEvents << " outside the schema taxonomy\n";
    return 0;
}

} // namespace ahq::cli
