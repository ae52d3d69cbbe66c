/**
 * @file
 * `ahq alerts` — list the SLO burn-rate alert transitions of a
 * JSONL trace produced with --trace --slo: the `alert_raise` /
 * `alert_clear` timeline in trace order plus per-(scenario, app)
 * totals. Alert events are never trace-sampled (the same contract
 * as `violation`), so the timeline here is complete whatever
 * --trace-sample produced the file.
 */

#include "cli.hh"
#include "front_end.hh"

#include <algorithm>
#include <map>

#include "obs/scope.hh"

namespace ahq::cli
{

namespace
{

/** Per-(scenario, app) totals. */
struct AlertTotals
{
    long long raises = 0;
    long long clears = 0;
    double worstBurn = 0.0;
};

} // namespace

int
runAlerts(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    const auto opt = parseTraceArgs(
        args, err,
        "usage: ahq alerts [--scenario=TAG] [--app=NAME] "
        "[--format=text|csv|json] <file.jsonl>",
        /*with_app=*/true);
    if (!opt)
        return 2;

    OutputTable rows({"scenario", "app", "event", "epoch",
                      {"burn_fast", "burn fast"},
                      {"burn_slow", "burn slow"}, "duration"});
    std::map<std::pair<std::string, std::string>, AlertTotals>
        totals;
    long long transitions = 0;
    const bool read = foldTrace(
        opt->path, err, [&](const obs::TraceEvent &ev, int) {
            const std::string type = ev.type();
            const bool raise = type == "alert_raise";
            if ((!raise && type != "alert_clear") || !opt->matches(ev))
                return;
            const std::string scenario = ev.str("scenario");
            const std::string app = ev.str("app");
            const double burn_fast = ev.num("burn_fast");
            auto &t = totals[{scenario, app}];
            Cell duration;
            if (raise) {
                ++t.raises;
            } else {
                ++t.clears;
                duration = static_cast<int>(ev.num("duration"));
            }
            t.worstBurn = std::max(t.worstBurn, burn_fast);
            rows.addRow({scenarioCell(scenario), app,
                         Cell(raise ? "raise" : "clear")
                             .shown(raise ? "RAISE" : "clear"),
                         static_cast<int>(ev.num("epoch")), burn_fast,
                         ev.num("burn_slow"), std::move(duration)});
            ++transitions;
        });
    if (!read)
        return 1;
    if (transitions == 0) {
        err << "error: " << opt->path
            << ": no matching alert events (produce them with "
               "--trace --slo)\n";
        return 1;
    }

    OutputTable tt({"scenario", "app", "raises", "clears",
                    {"active_at_end", "active at end"},
                    {"worst_burn_fast", "worst burn"}});
    for (const auto &[key, agg] : totals) {
        tt.addRow({scenarioCell(key.first), key.second, agg.raises,
                   agg.clears, agg.raises - agg.clears, agg.worstBurn});
    }
    if (printMachine(out, opt->format, &rows,
                     {{{"v", 1}, {"tool", "ahq alerts"}},
                      {{"alerts", &rows}, {"totals", &tt}}}))
        return 0;

    out << opt->path << ": " << transitions
        << " alert transition(s) (schema v" << obs::kSchemaVersion
        << ")\n";
    rows.printText(out);
    out << "totals:\n";
    tt.printText(out);
    return 0;
}

} // namespace ahq::cli
