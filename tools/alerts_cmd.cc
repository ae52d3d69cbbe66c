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

#include <map>
#include <vector>

#include "obs/json.hh"
#include "obs/scope.hh"
#include "report/table.hh"

namespace ahq::cli
{

namespace
{

/** One alert transition, in trace order. */
struct AlertRow
{
    std::string scenario;
    std::string app;
    bool raise = false;
    int epoch = 0;
    double burnFast = 0.0;
    double burnSlow = 0.0;
    int duration = 0; // clear events only
};

/** Per-(scenario, app) totals. */
struct AlertTotals
{
    long long raises = 0;
    long long clears = 0;
    long long alertEpochs = 0;
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

    std::vector<AlertRow> rows;
    std::map<std::pair<std::string, std::string>, AlertTotals>
        totals;
    const bool read = foldTrace(
        opt->path, err, [&](const obs::TraceEvent &ev, int) {
            const std::string type = ev.type();
            const bool raise = type == "alert_raise";
            if ((!raise && type != "alert_clear") || !opt->matches(ev))
                return;
            AlertRow r;
            r.scenario = ev.str("scenario");
            r.app = ev.str("app");
            r.raise = raise;
            r.epoch = static_cast<int>(ev.num("epoch"));
            r.burnFast = ev.num("burn_fast");
            r.burnSlow = ev.num("burn_slow");
            auto &t = totals[{r.scenario, r.app}];
            if (raise) {
                ++t.raises;
            } else {
                ++t.clears;
                r.duration = static_cast<int>(ev.num("duration"));
                t.alertEpochs += r.duration;
            }
            t.worstBurn = std::max(t.worstBurn, r.burnFast);
            rows.push_back(std::move(r));
        });
    if (!read)
        return 1;
    if (rows.empty()) {
        err << "error: " << opt->path
            << ": no matching alert events (produce them with "
               "--trace --slo)\n";
        return 1;
    }

    if (opt->format == "csv") {
        out << "scenario,app,event,epoch,burn_fast,burn_slow,"
               "duration\n";
        for (const auto &r : rows) {
            std::string line = r.scenario + "," + r.app + "," +
                (r.raise ? "raise" : "clear") + "," +
                std::to_string(r.epoch) + ",";
            obs::json::appendNumber(line, r.burnFast);
            line.push_back(',');
            obs::json::appendNumber(line, r.burnSlow);
            line.push_back(',');
            if (!r.raise)
                line += std::to_string(r.duration);
            out << line << "\n";
        }
        return 0;
    }

    if (opt->format == "json") {
        std::string b;
        b += "{\"v\":1,\"tool\":\"ahq alerts\",\"alerts\":[";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto &r = rows[i];
            if (i > 0)
                b.push_back(',');
            b += "{\"scenario\":";
            obs::json::appendString(b, r.scenario);
            b += ",\"app\":";
            obs::json::appendString(b, r.app);
            b += ",\"event\":";
            obs::json::appendString(b,
                                    r.raise ? "raise" : "clear");
            b += ",\"epoch\":";
            obs::json::appendNumber(
                b, static_cast<long long>(r.epoch));
            b += ",\"burn_fast\":";
            obs::json::appendNumber(b, r.burnFast);
            b += ",\"burn_slow\":";
            obs::json::appendNumber(b, r.burnSlow);
            if (!r.raise) {
                b += ",\"duration\":";
                obs::json::appendNumber(
                    b, static_cast<long long>(r.duration));
            }
            b.push_back('}');
        }
        b += "],\"totals\":[";
        bool first = true;
        for (const auto &[key, t] : totals) {
            if (!first)
                b.push_back(',');
            first = false;
            b += "{\"scenario\":";
            obs::json::appendString(b, key.first);
            b += ",\"app\":";
            obs::json::appendString(b, key.second);
            b += ",\"raises\":";
            obs::json::appendNumber(b, t.raises);
            b += ",\"clears\":";
            obs::json::appendNumber(b, t.clears);
            b += ",\"active_at_end\":";
            obs::json::appendNumber(b, t.raises - t.clears);
            b += ",\"worst_burn_fast\":";
            obs::json::appendNumber(b, t.worstBurn);
            b.push_back('}');
        }
        b += "]}";
        out << b << "\n";
        return 0;
    }

    out << opt->path << ": " << rows.size()
        << " alert transition(s) (schema v" << obs::kSchemaVersion
        << ")\n";
    report::TextTable t({"scenario", "app", "event", "epoch",
                         "burn fast", "burn slow", "duration"});
    for (const auto &r : rows) {
        t.addRow({scenarioLabel(r.scenario),
                  r.app, r.raise ? "RAISE" : "clear",
                  std::to_string(r.epoch),
                  report::TextTable::num(r.burnFast),
                  report::TextTable::num(r.burnSlow),
                  r.raise ? "-" : std::to_string(r.duration)});
    }
    t.print(out);
    report::TextTable tt({"scenario", "app", "raises", "clears",
                          "active at end", "worst burn"});
    for (const auto &[key, agg] : totals) {
        tt.addRow({scenarioLabel(key.first),
                   key.second, std::to_string(agg.raises),
                   std::to_string(agg.clears),
                   std::to_string(agg.raises - agg.clears),
                   report::TextTable::num(agg.worstBurn)});
    }
    out << "totals:\n";
    tt.print(out);
    return 0;
}

} // namespace ahq::cli
