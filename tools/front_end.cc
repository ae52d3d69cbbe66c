/**
 * @file
 * The shared `ahq` front end: flag scanner, typed value readers,
 * trace front end and the options-to-run-inputs mapping.
 */

#include "front_end.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "apps/catalog.hh"
#include "exec/jobs.hh"
#include "obs/scope.hh"

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
                opt.format = s.value();
                if (opt.format != "text" && opt.format != "csv" &&
                    opt.format != "json") {
                    throw std::invalid_argument(
                        "--format must be text, csv or json (got " +
                        opt.format + ")");
                }
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

} // namespace ahq::cli
