/**
 * @file
 * Golden test pinning the four per-node fan-outs — Fleet (phase A,
 * crash failover through the PlacementAdvisor, phase B), the
 * ClusterScheduler's measurement rounds, the experiment harness and
 * a ScenarioRunner batch — at pools of 1 and 4 threads. Each run's
 * trace bytes, series block and result bits (E_S, per-node mean
 * E_S, violations, attribution ledger) fold into one FNV-1a hash;
 * the expected hashes were recorded before the fan-outs shared one
 * seed rule, one tag join and one traced parallel run, so a change
 * to any seed, tag, flush order or result bit shows up here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/catalog.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/fleet.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "experiment/harness.hh"
#include "fault/plan.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

/** FNV-1a over every byte folded in. */
class Hash
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void num(double v) { bytes(&v, sizeof v); }
    void integer(long long v) { bytes(&v, sizeof v); }
    void str(std::string_view s)
    {
        integer(static_cast<long long>(s.size()));
        bytes(s.data(), s.size());
    }
    void ledger(const obs::AttributionLedger &l)
    {
        for (const auto &row : l.rows()) {
            str(row.victim);
            str(row.culprit);
            str(row.resource);
            num(row.share);
            integer(row.epochs);
        }
    }
    void slo(const obs::SloSummary &s)
    {
        integer(s.raises);
        integer(s.clears);
        integer(s.activeAtEnd);
        integer(s.alertEpochs);
        num(s.worstBurn);
    }
    void node(const SimulationResult &r)
    {
        num(r.meanES);
        num(r.meanELc);
        num(r.meanEBe);
        num(r.yieldValue);
        integer(r.violations);
        integer(static_cast<long long>(r.epochs.size()));
        for (double v : r.meanP95Ms)
            num(v);
        for (double v : r.meanIpc)
            num(v);
        ledger(r.attribution);
        slo(r.slo);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The telemetry of one run: a trace buffer and a series registry. */
struct Sinks
{
    obs::BufferTraceSink trace;
    obs::TimeSeriesRegistry series;
    obs::MetricsRegistry metrics;

    obs::Scope scope(std::string scenario)
    {
        obs::Scope s;
        s.sink = &trace;
        s.series = &series;
        s.metrics = &metrics;
        s.scenario = std::move(scenario);
        return s;
    }

    /** Trace bytes followed by the flushed series block. */
    void hash(Hash &h) const
    {
        h.str(trace.str());
        obs::BufferTraceSink out;
        obs::Scope flush;
        flush.sink = &out;
        series.flush(flush);
        h.str(out.str());
    }
};

SimulationConfig
baseConfig(std::uint64_t seed)
{
    SimulationConfig c;
    c.durationSeconds = 20.0;
    c.warmupEpochs = 6;
    c.seed = seed;
    c.checkMode = check::Mode::Off;
    return c;
}

/** Four nodes, two of them crashing (the earlier crash wins). */
std::uint64_t
fleetHash(int threads)
{
    exec::ThreadPool pool(threads);
    fault::FaultPlan plan;
    plan.addCrash({3, 9.0});
    plan.addCrash({1, 6.0});

    const auto mc = machine::MachineConfig::xeonE52630v4();
    Fleet fleet;
    fleet.addNode(Node(mc, {lcAt(apps::xapian(), 0.5),
                            be(apps::fluidanimate())}),
                  sched::makeScheduler("ARQ"));
    fleet.addNode(Node(mc, {lcAt(apps::moses(), 0.4),
                            be(apps::stream())}),
                  sched::makeScheduler("ARQ"));
    fleet.addNode(Node(mc, {lcAt(apps::imgDnn(), 0.3),
                            lcAt(apps::sphinx(), 0.2)}),
                  sched::makeScheduler("ARQ"));
    fleet.addNode(Node(mc, {lcAt(apps::masstree(), 0.4),
                            be(apps::streamcluster())}),
                  sched::makeScheduler("ARQ"));

    Sinks s;
    SimulationConfig c = baseConfig(5);
    c.faults = &plan;
    c.attribute = true;
    c.slo = true;
    c.obs = s.scope("fleet");
    const auto res = fleet.run(c, &pool);

    EXPECT_EQ(res.crashedNodes, (std::vector<int>{1, 3}));
    EXPECT_EQ(res.failovers, 4);
    EXPECT_FALSE(res.attribution.empty());
    Hash h;
    h.num(res.eS);
    h.num(res.eLc);
    h.num(res.eBe);
    h.num(res.yieldValue);
    h.integer(res.violations);
    h.integer(res.failovers);
    for (const auto &n : res.nodes)
        h.node(n);
    h.ledger(res.attribution);
    h.slo(res.slo);
    s.hash(h);
    return h.value();
}

/** The cluster_sched_test imbalanced fleet, rebalancing. */
std::uint64_t
clusterHash(int threads)
{
    exec::ThreadPool pool(threads);
    ClusterConfig cc;
    cc.rounds = 3;
    cc.spreadThreshold = 0.01;
    ClusterScheduler cs(cc, "ARQ");
    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(6, 10, 6);
    cs.addNode(mc, {lcAt(apps::xapian(), 0.85),
                    lcAt(apps::moses(), 0.6), be(apps::stream()),
                    be(apps::fluidanimate())});
    cs.addNode(mc, {lcAt(apps::sphinx(), 0.15)});
    cs.addNode(mc, {lcAt(apps::imgDnn(), 0.15)});

    Sinks s;
    SimulationConfig c = baseConfig(9);
    c.attribute = true;
    c.obs = s.scope("");
    const auto res = cs.run(c, &pool);

    EXPECT_FALSE(res.migrations.empty());
    Hash h;
    for (double v : res.roundES)
        h.num(v);
    for (double v : res.roundSpread)
        h.num(v);
    h.num(res.eS);
    h.num(res.eLc);
    h.num(res.eBe);
    h.num(res.yieldValue);
    h.integer(res.violations);
    for (const auto &m : res.migrations) {
        h.integer(m.round);
        h.integer(m.fromNode);
        h.integer(m.toNode);
        h.str(m.app);
    }
    for (double v : res.finalNodeES)
        h.num(v);
    for (int v : res.finalAppsPerNode)
        h.integer(v);
    h.ledger(res.attribution);
    h.slo(res.slo);
    s.hash(h);
    return h.value();
}

/** A three-node switchback, ARQ vs Unmanaged. */
std::uint64_t
experimentHash(int threads)
{
    exec::ThreadPool pool(threads);
    experiment::ExperimentRunConfig cfg;
    cfg.design.kind = experiment::DesignKind::Switchback;
    cfg.design.armA = "ARQ";
    cfg.design.armB = "Unmanaged";
    cfg.design.numNodes = 3;
    cfg.design.blocksPerNode = 4;
    cfg.design.blockEpochs = 6;
    cfg.design.seed = 17;
    cfg.estimator.resamples = 100;
    cfg.estimator.seed = 17;
    cfg.base.seed = 17;
    cfg.base.checkMode = check::Mode::Off;
    cfg.load.lcPerNode = 2;
    cfg.load.bePerNode = 1;
    cfg.load.numTenants = 8;

    Sinks s;
    cfg.base.obs = s.scope("exp");
    const auto res = experiment::runExperiment(cfg, &pool);

    EXPECT_GT(res.policySwaps, 0);
    Hash h;
    for (const auto &b : res.blocks) {
        h.integer(b.node);
        h.integer(b.block);
        h.integer(b.arm);
        h.integer(b.epochs);
        h.num(b.meanES);
        h.num(b.meanP95Ms);
        h.num(b.meanQueue);
        h.num(b.meanArrivalRate);
        h.num(b.startQueue);
        h.num(b.violRate);
    }
    const auto &e = res.estimates;
    for (const auto *m : {&e.es, &e.p95Ms, &e.violations}) {
        for (const auto *ci : {&m->naive, &m->dq, &m->mixed}) {
            h.num(ci->estimate);
            h.num(ci->lo);
            h.num(ci->hi);
        }
        h.num(m->alpha);
    }
    h.integer(static_cast<long long>(res.verdict));
    h.integer(res.policySwaps);
    s.hash(h);
    return h.value();
}

/**
 * A ScenarioRunner batch; with telemetry it carries a trace, a
 * metrics registry and a span profiler (wallClock off).
 */
std::uint64_t
runnerHash(int threads, bool telemetry)
{
    std::vector<exec::ScenarioJob> jobs;
    const auto mc = machine::MachineConfig::xeonE52630v4();
    const char *strategies[] = {"ARQ", "PARTIES", "CLITE",
                                "Unmanaged"};
    for (int j = 0; j < 4; ++j) {
        SimulationConfig c = baseConfig(static_cast<std::uint64_t>(
            3 + j));
        jobs.push_back({strategies[j],
                        Node(mc, {lcAt(apps::xapian(), 0.2 + 0.2 * j),
                                  lcAt(apps::moses(), 0.3),
                                  be(apps::stream())}),
                        c, j == 1 ? "" : "job" + std::to_string(j)});
    }

    exec::ThreadPool pool(threads);
    exec::ScenarioRunner runner(&pool);
    Sinks s;
    obs::SpanProfiler prof;
    if (telemetry) {
        obs::Scope scope = s.scope("");
        scope.prof = &prof;
        runner.setObsScope(scope);
    }
    const auto results = runner.run(jobs);

    EXPECT_EQ(prof.empty(), !telemetry);
    Hash h;
    for (const auto &r : results)
        h.node(r);
    s.hash(h);
    return h.value();
}

TEST(FanOutGolden, FleetWithCrashFailover)
{
    for (int threads : {1, 4})
        EXPECT_EQ(fleetHash(threads), 0x099d9dd5a33642a3ULL)
            << threads;
}

TEST(FanOutGolden, ClusterSchedulerRounds)
{
    for (int threads : {1, 4})
        EXPECT_EQ(clusterHash(threads), 0x1df5f700e4e08781ULL)
            << threads;
}

TEST(FanOutGolden, SwitchbackExperiment)
{
    for (int threads : {1, 4})
        EXPECT_EQ(experimentHash(threads),
                  0x13a79c1e81da9e0aULL) << threads;
}

TEST(FanOutGolden, ScenarioRunnerBatch)
{
    for (int threads : {1, 4}) {
        EXPECT_EQ(runnerHash(threads, true), 0x712b7aa662b4d360ULL)
            << threads;
        EXPECT_EQ(runnerHash(threads, false), 0xe466677394ca4b6eULL)
            << threads;
    }
}

} // namespace
