/**
 * @file
 * Trace I/O throughput: how fast the attributed trace of one node
 * is written and read back. One fixed run — ARQ on the Fig. 12
 * 6 LC + 2 BE node, 3600 epochs, attribution + SLO alerting + time
 * series, every epoch traced — is emitted into a memory sink and
 * then folded the way `ahq why` folds it (every `attribution` event
 * into a blame ledger, every other event counted by type).
 *
 * Emit MB/s is the trace bytes over the extra wall time of the
 * traced run against the same run untraced; fold MB/s is the trace
 * bytes over the fold's wall time. Both are best of interleaved
 * reps. The exact byte, line and event counts are printed too: they
 * are deterministic, so a change to them is a change to the trace.
 * The folded ledger must equal the run's own, bit for bit, or the
 * bench fails. Report-only: no gate reads these numbers.
 */

#include <cstring>
#include <iostream>
#include <istream>
#include <map>
#include <streambuf>

#include "common.hh"
#include "obs/attribution.hh"
#include "obs/timeseries.hh"
#include "obs/trace_reader.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

/** Read-only istream buffer over a string's bytes (no copy). */
class StringBuf : public std::streambuf
{
  public:
    explicit StringBuf(const std::string &s)
    {
        char *p = const_cast<char *>(s.data());
        setg(p, p, p + s.size());
    }
};

/** What the read side recovers. */
struct Folded
{
    obs::AttributionLedger ledger;
    std::map<std::string, long long> byType;
    std::uint64_t events = 0;
};

Folded
fold(const std::string &trace)
{
    Folded f;
    StringBuf buf(trace);
    std::istream in(&buf);
    obs::TraceReadStats stats;
    obs::forEachTrace(
        in,
        [&](const obs::TraceEvent &ev, int) {
            const std::string type = ev.type();
            ++f.byType[type];
            if (type != "attribution")
                return;
            const std::string victim = ev.str("app");
            const auto culprits = ev.strs("culprits");
            const auto resources = ev.strs("resources");
            const auto shares = ev.nums("shares");
            for (std::size_t i = 0; i < shares.size(); ++i)
                f.ledger.add(victim, culprits.at(i), resources.at(i),
                             shares[i]);
        },
        &stats);
    f.events = stats.events;
    return f;
}

bool
sameLedger(const obs::AttributionLedger &a,
           const obs::AttributionLedger &b)
{
    const auto ra = a.rows();
    const auto rb = b.rows();
    if (ra.size() != rb.size() || ra.empty())
        return false;
    for (std::size_t k = 0; k < ra.size(); ++k) {
        if (ra[k].victim != rb[k].victim ||
            ra[k].culprit != rb[k].culprit ||
            ra[k].resource != rb[k].resource ||
            ra[k].epochs != rb[k].epochs ||
            std::memcmp(&ra[k].share, &rb[k].share, sizeof(double)) !=
                0)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv, "trace_io");
    BenchJsonWriter json("trace_io", args);

    report::heading(std::cout,
                    "Trace I/O: emit and fold one attributed trace "
                    "(ARQ, Fig. 12 node, 3600 epochs)");

    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1800.0; // 3600 epochs of 500 ms
    cfg.warmupEpochs = 5;
    cfg.keepEpochs = false;
    cfg.attribute = true;
    cfg.slo = true;
    cfg.obs.scenario = "trace_io";
    obs::TimeSeriesRegistry series;
    cfg.obs.series = &series;
    obs::BufferTraceSink sink;
    cluster::SimulationConfig traced_cfg = cfg;
    traced_cfg.obs.sink = &sink;

    const cluster::Node node = eightAppNode();
    const auto arq = sched::makeScheduler("ARQ");
    const cluster::EpochSimulator plain(node, cfg);
    const cluster::EpochSimulator traced(node, traced_cfg);

    // Interleaved so both variants sample the same host conditions.
    const int reps = 5;
    double plain_s = 1e300, traced_s = 1e300, fold_s = 1e300;
    cluster::SimulationResult res;
    std::string trace;
    Folded folded;
    for (int rep = 0; rep < reps; ++rep) {
        plain_s = std::min(plain_s, secondsOnce([&] {
            series.clear();
            plain.run(*arq);
        }));
        sink.clear();
        traced_s = std::min(traced_s, secondsOnce([&] {
            series.clear();
            res = traced.run(*arq);
            series.flush(traced_cfg.obs);
        }));
        trace = sink.str();
        fold_s = std::min(fold_s,
                          secondsOnce([&] { folded = fold(trace); }));
    }

    if (!sameLedger(folded.ledger, res.attribution)) {
        std::cerr << "FAIL: the folded ledger differs from the run's\n";
        return 1;
    }

    const double bytes = static_cast<double>(trace.size());
    const double mb = bytes / 1e6;
    const double emit_s = traced_s - plain_s;
    report::TextTable t({"workload", "wall (ms)", "MB/s"});
    t.addRow({"run_untraced", num(plain_s * 1e3), "-"});
    t.addRow({"run_traced", num(traced_s * 1e3), "-"});
    t.addRow({"emit (traced - untraced)", num(emit_s * 1e3),
              emit_s > 0.0 ? num(mb / emit_s, 1) : "n/a"});
    t.addRow({"fold", num(fold_s * 1e3), num(mb / fold_s, 1)});
    t.print(std::cout);

    report::TextTable c({"event type", "lines"});
    for (const auto &[type, n] : folded.byType)
        c.addRow({type, std::to_string(n)});
    c.print(std::cout);
    std::cout << "trace bytes: " << trace.size() << "\n"
              << "trace lines: " << sink.lineCount() << "\n"
              << "events folded: " << folded.events << "\n";

    const std::string note = "epochs=3600 ARQ 8apps attribute+slo+"
                             "series bytes=" +
        std::to_string(trace.size());
    if (emit_s > 0.0)
        json.add("trace_emit", emit_s * 1e3, mb / emit_s, "MB/s", note);
    json.add("trace_fold", fold_s * 1e3, mb / fold_s, "MB/s", note);
    return 0;
}
