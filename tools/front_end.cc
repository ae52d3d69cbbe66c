/**
 * @file
 * The shared `ahq` front end: flag scanner, typed value readers,
 * trace front end, output tables, the per-run fold, the
 * options-to-run-inputs mapping and the run telemetry.
 */

#include "front_end.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "apps/catalog.hh"
#include "exec/jobs.hh"
#include "obs/json.hh"
#include "obs/scope.hh"
#include "report/csv.hh"
#include "report/table.hh"

namespace ahq::cli
{

double
parseDouble(const std::string &s, const std::string &what)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(s, &used);
        if (used != s.size())
            throw std::invalid_argument("trailing characters");
        if (!std::isfinite(v))
            throw std::invalid_argument("not finite");
        return v;
    } catch (const std::exception &) {
        throw std::invalid_argument(
            "bad " + what + ": '" + s +
            "' (expected a finite number)");
    }
}

bool
FlagScanner::next()
{
    if (next_ >= args_.size())
        return false;
    cur_ = next_++;
    name_ = args_[cur_];
    hasInline_ = false;
    if (name_.rfind("--", 0) == 0) {
        const auto eq = name_.find('=');
        if (eq != std::string::npos) {
            inline_ = name_.substr(eq + 1);
            name_.resize(eq);
            hasInline_ = true;
        }
    }
    return true;
}

std::string
FlagScanner::value()
{
    if (hasInline_)
        return inline_;
    if (next_ >= args_.size())
        throw std::invalid_argument(name_ + " needs a value");
    return args_[next_++];
}

double
FlagScanner::number()
{
    return parseDouble(value(), name_);
}

double
FlagScanner::numberAtLeast(double min_v)
{
    const double v = number();
    if (v < min_v) {
        std::ostringstream msg;
        msg << name_ << " must be >= " << min_v << " (got "
            << std::to_string(v) << ")";
        throw std::invalid_argument(msg.str());
    }
    return v;
}

long long
FlagScanner::integer(long long min_v)
{
    const std::string s = value();
    long long v = 0;
    try {
        std::size_t used = 0;
        v = std::stoll(s, &used);
        if (used != s.size())
            throw std::invalid_argument("trailing characters");
    } catch (const std::exception &) {
        throw std::invalid_argument(
            "bad " + name_ + ": '" + s + "' (expected an integer)");
    }
    if (v < min_v) {
        throw std::invalid_argument(
            name_ + " must be >= " + std::to_string(min_v) +
            " (got " + s + ")");
    }
    return v;
}

std::string
FlagScanner::oneOf(std::initializer_list<const char *> choices)
{
    const std::string v = value();
    std::string names;
    for (std::size_t i = 0; i < choices.size(); ++i) {
        const char *c = choices.begin()[i];
        if (v == c)
            return v;
        if (i > 0)
            names += i + 1 == choices.size() ? " or " : ", ";
        names += c;
    }
    throw std::invalid_argument(name_ + " must be " + names +
                                " (got " + v + ")");
}

void
FlagScanner::noValue() const
{
    if (hasInline_)
        throw std::invalid_argument(name_ + " does not take a value");
}

bool
scanLoadShape(FlagScanner &s, trace::FleetLoadConfig &load)
{
    const std::string &a = s.name();
    if (a == "--lc")
        load.lcPerNode = static_cast<int>(s.integer(1));
    else if (a == "--be")
        load.bePerNode = static_cast<int>(s.integer(0));
    else if (a == "--tenants")
        load.numTenants = static_cast<int>(s.integer(1));
    else if (a == "--zipf")
        load.zipfSkew = s.numberAtLeast(0.0);
    else
        return false;
    return true;
}

void
applyJobs(const SimulateOptions &opt)
{
    if (opt.jobs > 0)
        exec::setDefaultJobs(opt.jobs);
}

std::string
scenarioLabel(const std::string &tag)
{
    return tag.empty() ? "(untagged)" : tag;
}

bool
foldTrace(const std::string &path, std::ostream &err,
          const obs::TraceEventFn &fn, obs::TraceReadStats *stats,
          bool bench_rows)
{
    try {
        obs::forEachTraceFile(
            path,
            [&](const obs::TraceEvent &ev, int line) {
                // The one schema-version check of the CLI.
                const int v = static_cast<int>(ev.num("v", -1.0));
                if (v != obs::kSchemaVersion &&
                    !(bench_rows && ev.type() == "bench")) {
                    throw std::runtime_error(
                        "unsupported schema version " +
                        std::to_string(v) + " (this build reads v" +
                        std::to_string(obs::kSchemaVersion) + ")");
                }
                fn(ev, line);
            },
            stats);
        return true;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return false;
    }
}

SeriesSummary
summarizeSeries(const std::vector<double> &n,
                const std::vector<double> &min,
                const std::vector<double> &max,
                const std::vector<double> &sum)
{
    SeriesSummary s;
    double total_sum = 0.0;
    // (bucket max, bucket count) pairs for the p99.
    std::vector<std::pair<double, std::uint64_t>> maxima;
    const std::size_t len = std::min({n.size(), min.size(), max.size()});
    for (std::size_t i = 0; i < len; ++i) {
        if (n[i] <= 0)
            continue;
        const auto cnt = static_cast<std::uint64_t>(n[i]);
        if (s.buckets++ == 0) {
            s.min = min[i];
            s.max = max[i];
        } else {
            s.min = std::min(s.min, min[i]);
            s.max = std::max(s.max, max[i]);
        }
        if (i < sum.size())
            total_sum += sum[i];
        s.count += cnt;
        maxima.emplace_back(max[i], cnt);
    }
    if (s.buckets == 0)
        return s;
    s.mean = total_sum / static_cast<double>(s.count);
    std::sort(maxima.begin(), maxima.end());
    const double target = 0.99 * static_cast<double>(s.count);
    std::uint64_t seen = 0;
    s.p99 = maxima.back().first;
    for (const auto &[mx, cnt] : maxima) {
        seen += cnt;
        if (static_cast<double>(seen) >= target) {
            s.p99 = mx;
            break;
        }
    }
    return s;
}

bool
TraceArgs::matches(const obs::TraceEvent &ev) const
{
    return (scenario.empty() || ev.str("scenario") == scenario) &&
        (app.empty() || ev.str("app") == app);
}

std::optional<TraceArgs>
parseTraceArgs(const std::vector<std::string> &args, std::ostream &err,
               const char *usage, bool with_app,
               const std::function<bool(FlagScanner &)> &extra)
{
    TraceArgs opt;
    try {
        FlagScanner s(args);
        while (s.next()) {
            const std::string &a = s.name();
            if (a == "--scenario") {
                opt.scenario = s.value();
            } else if (a == "--app" && with_app) {
                opt.app = s.value();
            } else if (a == "--format") {
                opt.format = s.oneOf({"text", "csv", "json"});
            } else if (s.isFlag()) {
                if (!extra || !extra(s))
                    throw std::invalid_argument("unknown option: " + a);
            } else if (opt.path.empty()) {
                opt.path = a;
            } else {
                throw std::invalid_argument("unexpected argument: " +
                                            a);
            }
        }
        if (opt.path.empty())
            throw std::invalid_argument("no trace file given");
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n" << usage << "\n";
        return std::nullopt;
    }
    return opt;
}

std::string
Cell::spell(bool human) const
{
    if (human && shown_)
        return *shown_;
    if (const auto *s = std::get_if<std::string>(&value_))
        return *s;
    if (absent())
        return human ? "-" : "";
    if (const auto *v = std::get_if<double>(&value_); v && human)
        return report::TextTable::num(*v);
    // Integers, and numbers and lists outside text, as in JSON.
    std::string out;
    appendJson(out);
    return out;
}

void
Cell::appendJson(std::string &out) const
{
    if (const auto *s = std::get_if<std::string>(&value_)) {
        obs::json::appendString(out, *s);
    } else if (const auto *v = std::get_if<long long>(&value_)) {
        obs::json::appendNumber(out, *v);
    } else if (const auto *v = std::get_if<double>(&value_)) {
        obs::json::appendNumber(out, *v);
    } else {
        const auto &list = std::get<std::vector<double>>(value_);
        out.push_back('[');
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            obs::json::appendNumber(out, list[i]);
        }
        out.push_back(']');
    }
}

Cell
scenarioCell(const std::string &tag)
{
    return Cell(tag).shown(scenarioLabel(tag));
}

Cell
orDash(const std::string &s)
{
    return Cell(s).shown(s.empty() ? "-" : s);
}

void
OutputTable::printText(std::ostream &out) const
{
    std::vector<std::string> titles;
    for (const auto &c : columns_)
        titles.push_back(c.title);
    report::TextTable t(std::move(titles));
    for (const auto &row : rows_) {
        std::vector<std::string> cells;
        for (const auto &c : row)
            cells.push_back(c.spell(true));
        t.addRow(std::move(cells));
    }
    t.print(out);
}

void
OutputTable::printCsv(std::ostream &out) const
{
    auto line = [&](const auto &cells, auto spell) {
        std::string l;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (i > 0)
                l.push_back(',');
            l += report::CsvWriter::escape(spell(cells[i]));
        }
        out << l << "\n";
    };
    line(columns_, [](const Column &c) { return c.key; });
    for (const auto &row : rows_)
        line(row, [](const Cell &c) { return c.spell(false); });
}

void
OutputTable::printMarkdown(std::ostream &out) const
{
    auto line = [&](const auto &cells, auto spell) {
        std::string l = "|";
        for (const auto &cell : cells) {
            l += ' ';
            for (const char ch : spell(cell)) {
                if (ch == '\n')
                    l += "<br>";
                else if (ch == '|')
                    l += "\\|";
                else
                    l += ch;
            }
            l += " |";
        }
        out << l << "\n";
    };
    line(columns_, [](const Column &c) { return c.title; });
    std::string rule = "|";
    for (std::size_t i = 0; i < columns_.size(); ++i)
        rule += "---|";
    out << rule << "\n";
    for (const auto &row : rows_)
        line(row, [](const Cell &c) { return c.spell(true); });
}

void
OutputTable::appendJson(std::string &out) const
{
    out.push_back('[');
    for (const auto &row : rows_) {
        if (out.back() != '[')
            out.push_back(',');
        out.push_back('{');
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (row[i].absent())
                continue;
            if (out.back() != '{')
                out.push_back(',');
            obs::json::appendString(out, columns_[i].key);
            out.push_back(':');
            row[i].appendJson(out);
        }
        out.push_back('}');
    }
    out.push_back(']');
}

bool
printMachine(std::ostream &out, const std::string &format,
             const OutputTable *csv, const JsonDocument &json)
{
    if (format == "csv" && csv != nullptr) {
        csv->printCsv(out);
        return true;
    }
    if (format != "json")
        return false;
    std::string b = "{";
    auto member = [&](const std::string &key) {
        if (b.size() > 1)
            b.push_back(',');
        obs::json::appendString(b, key);
        b.push_back(':');
    };
    for (const auto &[key, cell] : json.header) {
        member(key);
        cell.appendJson(b);
    }
    for (const auto &[key, table] : json.tables) {
        member(key);
        table->appendJson(b);
    }
    b.push_back('}');
    out << b << "\n";
    return true;
}

namespace
{

bool
isDecisionType(const std::string &type)
{
    return type.size() > 9 &&
        type.compare(type.size() - 9, 9, "_decision") == 0;
}

bool
isAdjustAction(const std::string &action)
{
    return action == "move" || action == "upsize" ||
        action == "downsize_trial" || action == "sample" ||
        action == "exploit";
}

} // namespace

std::size_t
RunFold::add(const obs::TraceEvent &ev)
{
    const std::string tag = ev.str("scenario");
    auto it = index_.find(tag);
    if (it == index_.end()) {
        it = index_.emplace(tag, runs_.size()).first;
        runs_.emplace_back().scenario = tag;
    }
    RunSummary &s = runs_[it->second];
    const std::string type = ev.type();
    if (type == "run_start") {
        s.scheduler = ev.str("scheduler");
    } else if (type == "epoch") {
        ++s.epochs;
        s.finalEs = ev.num("e_s");
        s.sumEs += s.finalEs;
    } else if (isDecisionType(type)) {
        ++s.decisions;
        const std::string action = ev.str("action");
        if (type == "arq_decision") {
            s.adjustments += action == "move";
            s.rollbacks += action == "rollback";
            s.bans += ev.has("ban_region");
        } else if (type == "parties_decision" ||
                   type == "clite_decision") {
            s.adjustments += isAdjustAction(action);
            s.rollbacks +=
                action == "revert" || action == "re_explore";
        }
    } else if (type == "fault") {
        ++s.faults;
    } else if (type == "recovery") {
        ++s.recoveries;
    } else if (type == "violation") {
        ++s.violations;
    } else if (type == "span") {
        ++s.spanEvents;
        s.spanCalls += static_cast<long long>(ev.num("count"));
    } else if (type == "alert_raise" || type == "alert_clear") {
        if (type == "alert_raise")
            ++s.alertRaises;
        else
            ++s.alertClears;
        s.worstBurn = std::max(s.worstBurn, ev.num("burn_fast"));
    } else if (type == "series") {
        ++s.seriesEvents;
        if (ev.str("series") == "e_s") {
            const auto es =
                summarizeSeries(ev.nums("n"), ev.nums("min"),
                                ev.nums("max"), ev.nums("sum"));
            if (es.buckets > 0)
                s.es = es;
        }
    } else {
        return it->second;
    }
    ++s.folded;
    return it->second;
}

machine::MachineConfig
machineFor(const SimulateOptions &opt)
{
    return machine::MachineConfig::xeonE52630v4().withAvailable(
        opt.cores, opt.ways, opt.bwUnits);
}

cluster::Node
nodeFor(const SimulateOptions &opt)
{
    std::vector<cluster::ColocatedApp> colocated;
    for (const auto &[name, load] : opt.lcApps)
        colocated.push_back(cluster::lcAt(apps::byName(name), load));
    for (const auto &name : opt.beApps)
        colocated.push_back(cluster::be(apps::byName(name)));
    return cluster::Node(machineFor(opt), std::move(colocated));
}

cluster::SimulationConfig
simulationConfigFor(const SimulateOptions &opt)
{
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = opt.durationSeconds;
    cfg.warmupEpochs = opt.warmupEpochs;
    cfg.seed = opt.seed;
    cfg.tailPercentile = opt.percentile;
    cfg.ri = opt.ri;
    cfg.checkMode = opt.checkMode;
    cfg.traceSampleRate = opt.traceSampleRate;
    cfg.attribute = opt.attribute;
    cfg.slo = opt.slo;
    return cfg;
}

RunTelemetry::RunTelemetry(const SimulateOptions &opt, Shape shape)
    : dumpMetrics_(opt.dumpMetrics),
      flushSpans_(shape.spans != Shape::Spans::Jobs)
{
    scope.scenario = std::move(shape.scenario);
    if (!opt.tracePath.empty()) {
        sink_ = std::make_unique<obs::FileTraceSink>(opt.tracePath);
        scope.sink = sink_.get();
        // Series record every epoch regardless of --trace-sample, so
        // `ahq timeline` sees the whole run even from a sampled
        // trace. Fan-outs tag every node or job, so concurrent
        // recordings stay disjoint and the sorted flush is
        // byte-identical at any --jobs.
        if (shape.series)
            scope.series = &series_;
    }
    if (shape.metrics || opt.dumpMetrics || sink_ || opt.profile)
        scope.metrics = &metrics;
    if (opt.profile) {
        scope.prof = &prof_;
        scope.wallClock = shape.spans == Shape::Spans::WallClock;
    }
}

void
RunTelemetry::finish(std::ostream &out, const char *profile_title)
{
    if (scope.profiling()) {
        if (flushSpans_)
            prof_.flush(scope);
        out << profile_title << "\n";
        // stdout is not the trace: the tree always shows wall times.
        printSpanProfile(out, prof_, /*wall_times=*/true);
    }
    if (sink_) {
        // Series events come last: the folded per-run summaries
        // close the trace deterministically.
        series_.flush(scope);
        sink_->flush();
        out << "trace written to " << sink_->path() << "\n";
    }
    if (dumpMetrics_)
        metrics.print(out);
}

} // namespace ahq::cli
