/**
 * @file
 * Bench plumbing implementation.
 */

#include "common.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <sys/stat.h>

#include "obs/json.hh"

namespace ahq::bench
{

std::string
outputDir()
{
    // Magic-static init makes the mkdir race-free when pool
    // threads hit the first call concurrently.
    static const std::string dir = [] {
        const char *env = std::getenv("AHQ_BENCH_OUT");
        std::string d =
            env != nullptr && *env != '\0' ? env : "bench_out";
        ::mkdir(d.c_str(), 0755); // best effort; may already exist
        return d;
    }();
    return dir;
}

std::unique_ptr<report::CsvWriter>
openCsv(const std::string &filename,
        const std::vector<std::string> &header)
{
    return std::make_unique<report::CsvWriter>(
        outputDir() + "/" + filename, header);
}

obs::Scope
benchScope()
{
    // Magic static: the sink and registry are process-wide and live
    // until exit, so pool workers can hold copies of this scope.
    static const obs::Scope scope = [] {
        obs::Scope s;
        const char *trace = std::getenv("AHQ_TRACE");
        if (trace != nullptr && *trace != '\0') {
            static obs::FileTraceSink sink{std::string(trace)};
            s.sink = &sink;
        }
        const char *metrics = std::getenv("AHQ_METRICS");
        if (metrics != nullptr && *metrics != '\0') {
            s.metrics = &obs::globalMetrics();
            std::atexit(
                [] { obs::globalMetrics().print(std::cerr); });
        }
        return s;
    }();
    return scope;
}

const std::vector<std::string> &
allStrategies()
{
    static const std::vector<std::string> v{
        "Unmanaged", "LC-first", "PARTIES", "CLITE", "ARQ"};
    return v;
}

cluster::SimulationConfig
standardConfig()
{
    cluster::SimulationConfig c;
    c.epochSeconds = 0.5;
    c.durationSeconds = 120.0;
    c.warmupEpochs = 120;
    c.seed = 42;
    return c;
}

std::vector<cluster::SimulationResult>
runScenarios(const std::vector<exec::ScenarioJob> &jobs)
{
    exec::ScenarioRunner runner;
    runner.setObsScope(benchScope());
    return runner.run(jobs);
}

std::vector<cluster::SimulationResult>
runStrategies(const std::vector<std::string> &strategies,
              const cluster::Node &node,
              const cluster::SimulationConfig &cfg,
              const std::string &tag_prefix)
{
    std::vector<exec::ScenarioJob> jobs;
    for (const auto &s : strategies)
        jobs.push_back({s, node, cfg, tag_prefix + s});
    return runScenarios(jobs);
}

cluster::Node
canonicalNode(double xapian_load, double moses_load,
              double imgdnn_load, const apps::AppProfile &be_app,
              const machine::MachineConfig &mc)
{
    return cluster::Node(
        mc, {cluster::lcAt(apps::xapian(), xapian_load),
             cluster::lcAt(apps::moses(), moses_load),
             cluster::lcAt(apps::imgDnn(), imgdnn_load),
             cluster::be(be_app)});
}

cluster::Node
eightAppNode(const machine::MachineConfig &mc)
{
    return cluster::Node(
        mc,
        {cluster::lcAt(apps::moses(), 0.2),
         cluster::lcAt(apps::xapian(), 0.2),
         cluster::lcAt(apps::imgDnn(), 0.2),
         cluster::lcAt(apps::sphinx(), 0.2),
         cluster::lcAt(apps::masstree(), 0.2),
         cluster::lcAt(apps::silo(), 0.2),
         cluster::be(apps::fluidanimate()),
         cluster::be(apps::streamcluster())});
}

exec::ScenarioJob
resourceJob(const std::string &strategy, int cores, int ways)
{
    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(cores, ways, 10);
    return {strategy,
            canonicalNode(0.2, 0.2, 0.2, apps::fluidanimate(), mc),
            standardConfig(),
            strategy + "@" + std::to_string(cores) + "c" +
                std::to_string(ways) + "w"};
}

double
secondsOnce(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

double
secondsOfN(const std::function<void()> &fn, int reps)
{
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep)
        best = std::min(best, secondsOnce(fn));
    return best;
}

double
medianPairedRatio(const std::function<void()> &off,
                  const std::function<void()> &on)
{
    std::vector<double> ratios;
    double elapsed = 0.0;
    while (elapsed < 3.0 || ratios.size() < 9) {
        double t_off = 0.0, t_on = 0.0;
        if (ratios.size() % 2 == 0) {
            t_off = secondsOnce(off);
            t_on = secondsOnce(on);
        } else {
            t_on = secondsOnce(on);
            t_off = secondsOnce(off);
        }
        ratios.push_back(t_on / t_off);
        elapsed += t_off + t_on;
    }
    std::sort(ratios.begin(), ratios.end());
    const std::size_t mid = ratios.size() / 2;
    return ratios.size() % 2 == 1
        ? ratios[mid]
        : 0.5 * (ratios[mid - 1] + ratios[mid]);
}

std::string
num(double v, int precision)
{
    return report::TextTable::num(v, precision);
}

BenchArgs
parseBenchArgs(int argc, char **argv, const std::string &name)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json") {
            args.json = true;
        } else if (a.rfind("--json=", 0) == 0) {
            args.json = true;
            args.jsonPath = a.substr(std::strlen("--json="));
        } else {
            std::cerr << "usage: " << name
                      << " [--json[=FILE]]   (default FILE: "
                      << outputDir() << "/BENCH_" << name
                      << ".json)\n";
            std::exit(2);
        }
    }
    if (args.json && args.jsonPath.empty())
        args.jsonPath = outputDir() + "/BENCH_" + name + ".json";
    return args;
}

BenchJsonWriter::BenchJsonWriter(const std::string &name,
                                 const BenchArgs &args)
    : enabled_(args.json), path_(args.jsonPath)
{
    (void)name;
}

void
BenchJsonWriter::add(const std::string &benchmark, double wall_ms,
                     double throughput, const std::string &unit,
                     const std::string &config)
{
    if (!enabled_)
        return;
    std::string b = "{\"type\":\"bench\",\"benchmark\":";
    obs::json::appendString(b, benchmark);
    b += ",\"wall_ms\":";
    obs::json::appendNumber(b, wall_ms);
    b += ",\"throughput\":";
    obs::json::appendNumber(b, throughput);
    b += ",\"unit\":";
    obs::json::appendString(b, unit);
    b += ",\"config\":";
    obs::json::appendString(b, config);
    b += ",\"git_rev\":";
    // The revision CMake configured from ("unknown" outside a
    // checkout), so bench_diff can name what regressed.
    obs::json::appendString(b, AHQ_GIT_REV);
    b += '}';
    lines_.push_back(std::move(b));
}

BenchJsonWriter::~BenchJsonWriter()
{
    if (!enabled_ || lines_.empty())
        return;
    std::ofstream out(path_);
    if (!out.is_open()) {
        std::cerr << "cannot write " << path_ << "\n";
        return;
    }
    for (const auto &line : lines_)
        out << line << "\n";
    std::cout << "perf trajectory written to " << path_ << "\n";
}

const cluster::SimulationResult &
LoadSweep::at(double fixed, double load,
              const std::string &strategy) const
{
    const auto index = [](const auto &v, const auto &x) {
        const auto it = std::find(v.begin(), v.end(), x);
        assert(it != v.end());
        return static_cast<std::size_t>(it - v.begin());
    };
    const auto &strategies = allStrategies();
    return results[(index(fixedLoads, fixed) * loads.size() +
                    index(loads, load)) * strategies.size() +
                   index(strategies, strategy)];
}

LoadSweep
loadSweepFigure(const std::string &fig_name,
                const apps::AppProfile &primary,
                const apps::AppProfile &secondary_a,
                const apps::AppProfile &secondary_b,
                const apps::AppProfile &be_app)
{
    auto csv = openCsv(fig_name + ".csv",
                       {"secondary_load", "primary_load",
                        "strategy", "e_lc", "e_be", "e_s", "yield",
                        "p95_primary", "p95_a", "p95_b", "be_ipc"});

    LoadSweep grid{{0.2, 0.4}, {0.1, 0.3, 0.5, 0.7, 0.9}, {}};
    const std::vector<double> &fixed_loads = grid.fixedLoads;
    const std::vector<double> &sweep = grid.loads;

    // Simulate the whole (fixed, load, strategy) grid as one batch
    // across the pool, then render in the original order.
    std::vector<exec::ScenarioJob> jobs;
    for (double fixed : fixed_loads) {
        for (double load : sweep) {
            cluster::Node node(
                machine::MachineConfig::xeonE52630v4(),
                {cluster::lcAt(primary, load),
                 cluster::lcAt(secondary_a, fixed),
                 cluster::lcAt(secondary_b, fixed),
                 cluster::be(be_app)});
            for (const auto &s : allStrategies()) {
                jobs.push_back({s, node, standardConfig(),
                                fig_name + "/" + s + "@" +
                                    num(fixed * 100, 0) + "-" +
                                    num(load * 100, 0)});
            }
        }
    }
    grid.results = runScenarios(jobs);
    const auto &results = grid.results;

    std::size_t ji = 0;
    for (double fixed : fixed_loads) {
        report::heading(std::cout,
                        fig_name + " — " + secondary_a.name + "/" +
                            secondary_b.name + " at " +
                            num(fixed * 100, 0) + "%, " +
                            primary.name + " sweeping, BE = " +
                            be_app.name);
        report::TextTable t({primary.name + " load", "strategy",
                             "E_LC", "E_BE", "E_S", "yield",
                             "p95 " + primary.name,
                             "p95 " + secondary_a.name,
                             "p95 " + secondary_b.name,
                             be_app.name + " IPC"});
        std::vector<report::Series> es_series;
        for (const auto &s : allStrategies())
            es_series.push_back({s, {}, {}});

        for (double load : sweep) {
            std::size_t si = 0;
            for (const auto &s : allStrategies()) {
                const auto &res = results[ji++];
                t.addRow({num(load * 100, 0) + "%", s,
                          num(res.meanELc), num(res.meanEBe),
                          num(res.meanES), num(res.yieldValue, 2),
                          num(res.meanP95Ms[0], 2),
                          num(res.meanP95Ms[1], 2),
                          num(res.meanP95Ms[2], 2),
                          num(res.meanIpc[3], 2)});
                csv->addRow({num(fixed, 2), num(load, 2), s,
                             num(res.meanELc), num(res.meanEBe),
                             num(res.meanES),
                             num(res.yieldValue, 3),
                             num(res.meanP95Ms[0], 3),
                             num(res.meanP95Ms[1], 3),
                             num(res.meanP95Ms[2], 3),
                             num(res.meanIpc[3], 3)});
                es_series[si].xs.push_back(load);
                es_series[si].ys.push_back(res.meanES);
                ++si;
            }
        }
        t.print(std::cout);
        report::lineChart(std::cout, es_series, 64, 14,
                          "E_S vs " + primary.name + " load (" +
                              secondary_a.name + "/" +
                              secondary_b.name + " at " +
                              num(fixed * 100, 0) + "%)");
    }
    return grid;
}

} // namespace ahq::bench
