/**
 * @file
 * `ahq why` — answer "who is hurting my LC app, and through which
 * resource" from a JSONL trace produced with --trace --attribute:
 * fold the per-epoch `attribution` events back into the
 * per-(victim, culprit, resource) blame ledger and print it sorted
 * by attributed interference share. Because every share is a slice
 * of the victim's per-epoch R_i (they sum to it exactly), the
 * table's units are "summed entropy interference" — directly
 * comparable across victims and culprits.
 */

#include "cli.hh"
#include "front_end.hh"

#include <algorithm>

#include "obs/attribution.hh"
#include "obs/scope.hh"
#include "report/table.hh"

namespace ahq::cli
{

int
runWhy(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    std::size_t top = 0; // 0 = every row
    const auto opt = parseTraceArgs(
        args, err,
        "usage: ahq why [--scenario=TAG] [--app=NAME] [--top=N] "
        "[--format=text|csv|json] <file.jsonl>",
        /*with_app=*/true, [&](FlagScanner &s) {
            if (s.name() != "--top")
                return false;
            top = static_cast<std::size_t>(s.integer(1));
            return true;
        });
    if (!opt)
        return 2;

    // Everything aggregates before anything prints, so a malformed
    // line never leaves partial output.
    obs::AttributionLedger ledger;
    long long events = 0;
    const bool read = foldTrace(
        opt->path, err, [&](const obs::TraceEvent &ev, int) {
            if (ev.type() != "attribution" || !opt->matches(ev))
                return;
            const std::string victim = ev.str("app");
            const auto culprits = ev.strs("culprits");
            const auto resources = ev.strs("resources");
            const auto shares = ev.nums("shares");
            const std::size_t len = std::min(
                {culprits.size(), resources.size(), shares.size()});
            for (std::size_t i = 0; i < len; ++i)
                ledger.add(victim, culprits[i], resources[i],
                           shares[i]);
            ++events;
        });
    if (!read)
        return 1;
    if (events == 0) {
        err << "error: " << opt->path
            << ": no matching attribution events (produce them "
               "with --trace --attribute)\n";
        return 1;
    }

    const OutputTable table = blameTable(ledger, top);
    if (printMachine(out, opt->format, &table,
                     {{{"v", 1}, {"tool", "ahq why"}},
                      {{"rows", &table}}}))
        return 0;

    out << opt->path << ": " << events
        << " attribution event(s) (schema v" << obs::kSchemaVersion
        << ")\n";
    table.printText(out);
    // Per-victim totals: each victim's row sums its per-epoch R_i
    // over the attributed epochs — the conservation the ledger
    // carries by construction.
    std::vector<std::string> victims;
    for (const auto &r : ledger.rows()) {
        if (std::find(victims.begin(), victims.end(), r.victim) ==
            victims.end())
            victims.push_back(r.victim);
    }
    std::sort(victims.begin(), victims.end());
    out << "per-victim summed R_i:";
    for (const auto &v : victims) {
        out << "  " << v << " = "
            << report::TextTable::num(ledger.victimTotal(v))
            << " (top blame: " << ledger.topBlame(v) << ")";
    }
    out << "\n";
    return 0;
}

} // namespace ahq::cli
