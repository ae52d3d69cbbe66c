/**
 * @file
 * `ahq timeline` — render the `series` events of a JSONL trace as
 * per-(scenario, series) timelines: aligned text sparklines with
 * fault / recovery / violation markers (default), CSV rows, or
 * JSON. The series events carry the deterministic folded buckets
 * of the TimeSeriesRegistry (docs/TRACE_SCHEMA.md), so the output
 * here is byte-identical whatever --jobs produced the trace — this
 * is the command-line Fig. 13.
 */

#include "cli.hh"
#include "front_end.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/scope.hh"
#include "report/table.hh"

namespace ahq::cli
{

namespace
{

/** One series event's folded buckets, as read back from a trace. */
struct SeriesData
{
    long long stride = 1;
    long long epochs = 0;
    long long points = 0;
    std::vector<double> n, min, max, sum;

    /** Buckets actually carried (arrays are truncated to this). */
    std::size_t buckets() const { return n.size(); }
};

/** Epoch markers for one scenario, from fault-family events. */
struct Markers
{
    std::set<int> faults, recoveries, violations;

    /** alert_raise epochs (--slo runs), rendered on their own row. */
    std::set<int> alerts;

    bool empty() const
    {
        return faults.empty() && recoveries.empty() &&
            violations.empty();
    }
};

/**
 * Pairwise-fold the bucket arrays in place until at most `width`
 * buckets remain — the same halving the registry itself applies on
 * overflow, so rendering at any width stays consistent with the
 * recorded resolution. Returns the display stride.
 */
long long
foldToWidth(SeriesData &d, int width)
{
    long long stride = d.stride;
    while (d.buckets() > static_cast<std::size_t>(width)) {
        const std::size_t half = (d.buckets() + 1) / 2;
        for (std::size_t i = 0; i < half; ++i) {
            const std::size_t a = 2 * i, b = 2 * i + 1;
            double cnt = d.n[a], mn = d.min[a], mx = d.max[a],
                   sm = d.sum[a];
            if (b < d.buckets() && d.n[b] > 0) {
                if (cnt > 0) {
                    mn = std::min(mn, d.min[b]);
                    mx = std::max(mx, d.max[b]);
                } else {
                    mn = d.min[b];
                    mx = d.max[b];
                }
                cnt += d.n[b];
                sm += d.sum[b];
            }
            d.n[i] = cnt;
            d.min[i] = mn;
            d.max[i] = mx;
            d.sum[i] = sm;
        }
        d.n.resize(half);
        d.min.resize(half);
        d.max.resize(half);
        d.sum.resize(half);
        stride *= 2;
    }
    return stride;
}

/** ASCII intensity ramp, low to high (space = empty bucket). */
constexpr std::string_view kRamp = ".:-=+*#%@";

char
rampChar(double value, double lo, double hi)
{
    if (!(hi > lo))
        return kRamp[kRamp.size() / 2];
    double t = (value - lo) / (hi - lo);
    t = std::min(1.0, std::max(0.0, t));
    const auto idx = std::min(
        kRamp.size() - 1,
        static_cast<std::size_t>(
            t * static_cast<double>(kRamp.size())));
    return kRamp[idx];
}

/**
 * One marker char per display bucket: '!' violation beats 'x'
 * fault beats 'r' recovery when several land in the same bucket.
 */
std::string
markerRow(const Markers &m, std::size_t buckets,
          long long display_stride)
{
    std::string row(buckets, ' ');
    auto place = [&](const std::set<int> &epochs, char c) {
        for (int e : epochs) {
            const auto b = static_cast<std::size_t>(
                e / display_stride);
            if (b >= buckets)
                continue;
            // Priority: '!' > 'x' > 'r'.
            if (row[b] == '!' || (row[b] == 'x' && c == 'r'))
                continue;
            row[b] = c;
        }
    };
    place(m.recoveries, 'r');
    place(m.faults, 'x');
    place(m.violations, '!');
    return row;
}

} // namespace

int
runTimeline(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    std::set<std::string> wanted; // --series; empty = all
    int width = 64;
    const auto opt = parseTraceArgs(
        args, err,
        "usage: ahq timeline [--series=a,b] [--scenario=TAG] "
        "[--format=text|csv|json] [--width=N] <file.jsonl>",
        /*with_app=*/false, [&](FlagScanner &s) {
            if (s.name() == "--series") {
                std::stringstream ss(s.value());
                std::string name;
                while (std::getline(ss, name, ','))
                    if (!name.empty())
                        wanted.insert(name);
            } else if (s.name() == "--width") {
                width = static_cast<int>(s.integer());
                if (width < 8 || width > 4096) {
                    throw std::invalid_argument(
                        "--width must be within [8, 4096]");
                }
            } else {
                return false;
            }
            return true;
        });
    if (!opt)
        return 2;

    // First (and only) pass: collect series events and fault-family
    // markers, everything aggregated before anything is printed.
    std::map<std::pair<std::string, std::string>, SeriesData> data;
    std::map<std::string, Markers> markers;
    obs::TraceReadStats stats;
    const bool read = foldTrace(
        opt->path, err,
        [&](const obs::TraceEvent &ev, int) {
            if (!opt->matches(ev))
                return;
            const std::string scenario = ev.str("scenario");
            const std::string type = ev.type();
            if (type == "series") {
                const std::string name = ev.str("series");
                if (!wanted.empty() &&
                    wanted.find(name) == wanted.end())
                    return;
                SeriesData d;
                d.stride = static_cast<long long>(
                    ev.num("stride", 1.0));
                d.epochs = static_cast<long long>(ev.num("epochs"));
                d.points = static_cast<long long>(ev.num("points"));
                d.n = ev.nums("n");
                d.min = ev.nums("min");
                d.max = ev.nums("max");
                d.sum = ev.nums("sum");
                if (d.stride < 1)
                    d.stride = 1;
                // Tolerate short arrays (foreign writers): clip to
                // the common length.
                const std::size_t len =
                    std::min({d.n.size(), d.min.size(),
                              d.max.size(), d.sum.size()});
                d.n.resize(len);
                d.min.resize(len);
                d.max.resize(len);
                d.sum.resize(len);
                data[{scenario, name}] = std::move(d);
            } else if (type == "fault" || type == "recovery" ||
                       type == "violation" ||
                       type == "alert_raise") {
                const int epoch =
                    static_cast<int>(ev.num("epoch", -1.0));
                if (epoch < 0)
                    return;
                auto &m = markers[scenario];
                if (type == "fault")
                    m.faults.insert(epoch);
                else if (type == "recovery")
                    m.recoveries.insert(epoch);
                else if (type == "alert_raise")
                    m.alerts.insert(epoch);
                else
                    m.violations.insert(epoch);
            }
        },
        &stats);
    if (!read)
        return 1;
    if (data.empty()) {
        err << "error: " << opt->path
            << ": no matching series events (produce them with "
               "--trace; series land at the end of the trace)\n";
        return 1;
    }

    OutputTable buckets({"scenario", "series", "bucket", "epoch_lo",
                         "stride", "count", "min", "max", "mean"});
    OutputTable series({"scenario", "series", "stride", "epochs",
                        "points", "n", "min", "max", "sum"});
    for (const auto &[key, d] : data) {
        for (std::size_t i = 0; i < d.buckets(); ++i) {
            const bool any = d.n[i] > 0;
            buckets.addRow(
                {key.first, key.second, i,
                 static_cast<long long>(i) * d.stride, d.stride,
                 static_cast<long long>(d.n[i]),
                 any ? Cell(d.min[i]) : Cell(),
                 any ? Cell(d.max[i]) : Cell(),
                 any ? Cell(d.sum[i] / d.n[i]) : Cell()});
        }
        series.addRow({key.first, key.second, d.stride, d.epochs,
                       d.points, d.n, d.min, d.max, d.sum});
    }
    OutputTable marks({"scenario", "type", "epoch"});
    for (const auto &[scenario, m] : markers) {
        const std::pair<const std::set<int> *, const char *> kinds[] = {
            {&m.faults, "fault"},
            {&m.recoveries, "recovery"},
            {&m.violations, "violation"},
            {&m.alerts, "alert_raise"}};
        for (const auto &[epochs, kind] : kinds) {
            for (int e : *epochs)
                marks.addRow({scenario, kind, e});
        }
    }
    if (printMachine(out, opt->format, &buckets,
                     {{{"v", 1}},
                      {{"series", &series}, {"markers", &marks}}})) {
        if (stats.unknownEvents > 0) {
            err << "note: " << stats.unknownEvents
                << " unknown event(s) ignored\n";
        }
        return 0;
    }

    // Text mode: aligned sparklines, one block per
    // (scenario, series), sorted — deterministic whatever order
    // the events appeared in.
    out << opt->path << ": " << data.size() << " series (schema v"
        << obs::kSchemaVersion << ")\n";
    for (const auto &[key, original] : data) {
        const SeriesSummary s = summarizeSeries(
            original.n, original.min, original.max, original.sum);
        SeriesData d = original;
        const long long display_stride = foldToWidth(d, width);

        out << "\n"
            << scenarioLabel(key.first)
            << " :: " << key.second << "  (epochs=" << d.epochs
            << ", stride=" << original.stride
            << ", points=" << original.points << ")\n";
        if (s.count == 0) {
            out << "  (empty)\n";
            continue;
        }
        out << "  min=" << report::TextTable::num(s.min)
            << "  mean=" << report::TextTable::num(s.mean)
            << "  max=" << report::TextTable::num(s.max)
            << "  p99=" << report::TextTable::num(s.p99) << "\n";

        // Sparkline over bucket means, scaled to this series'
        // own [min, max] so shape survives unit differences.
        std::string line;
        line.reserve(d.buckets());
        for (std::size_t i = 0; i < d.buckets(); ++i) {
            line.push_back(
                d.n[i] > 0
                    ? rampChar(d.sum[i] / d.n[i], s.min, s.max)
                    : ' ');
        }
        out << "  |" << line << "|\n";

        const auto mit = markers.find(key.first);
        if (mit != markers.end() && !mit->second.empty()) {
            const std::string row = markerRow(
                mit->second, d.buckets(), display_stride);
            out << "  |" << row << "|  x=fault r=recovery "
                << "!=violation\n";
        }
        // SLO alerts get their own aligned row so a raise is
        // never masked by a violation in the same bucket.
        if (mit != markers.end() && !mit->second.alerts.empty()) {
            std::string row(d.buckets(), ' ');
            for (int e : mit->second.alerts) {
                const auto b = static_cast<std::size_t>(
                    e / display_stride);
                if (b < row.size())
                    row[b] = 'A';
            }
            out << "  |" << row << "|  A=alert_raise\n";
        }
    }
    if (stats.unknownEvents > 0) {
        out << "\n(" << stats.unknownEvents
            << " unknown event(s) ignored";
        for (const auto &[type, count] : stats.unknownTypes)
            out << "; " << type << " x" << count;
        out << ")\n";
    }
    return 0;
}

} // namespace ahq::cli
