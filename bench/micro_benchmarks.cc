/**
 * @file
 * Library micro-benchmarks (google-benchmark): the hot paths a
 * downstream controller would run online — entropy computation,
 * the contention model fixed point, GP fit/acquisition, M/M/c
 * percentiles and full epoch-simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <thread>

#include "apps/catalog.hh"
#include "check/check.hh"
#include "cluster/epoch_sim.hh"
#include "cluster/oracle.hh"
#include "core/entropy.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "fault/plan.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_sink.hh"
#include "perf/queueing.hh"
#include "sched/gp.hh"
#include "sched/registry.hh"
#include "stats/percentile.hh"
#include "stats/rng.hh"

namespace
{

using namespace ahq;

void
BM_ComputeEntropy(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<core::LcObservation> lc(n, {2.77, 5.0, 4.22});
    std::vector<core::BeObservation> be(2, {2.63, 1.5});
    for (auto _ : state) {
        auto rep = core::computeEntropy(lc, be);
        benchmark::DoNotOptimize(rep.eS);
    }
}
BENCHMARK(BM_ComputeEntropy)->Arg(3)->Arg(6)->Arg(32);

void
BM_MmcSojournPercentile(benchmark::State &state)
{
    double lambda = 3000.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            perf::mmcSojournPercentile(4.0, lambda, 1200.0, 0.95));
    }
}
BENCHMARK(BM_MmcSojournPercentile);

void
BM_SojournApprox(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            perf::sojournPercentileApprox(4.0, 3000.0, 1200.0,
                                          2.9));
    }
}
BENCHMARK(BM_SojournApprox);

void
BM_ContentionEvaluate(benchmark::State &state)
{
    const auto mc = machine::MachineConfig::xeonE52630v4();
    perf::ContentionModel model(mc);
    auto layout = machine::RegionLayout::arqInitial(
        mc.availableResources(), {0, 1, 2}, {3});
    std::vector<perf::AppDemand> demands{
        apps::xapian().toDemand(0.5), apps::moses().toDemand(0.2),
        apps::imgDnn().toDemand(0.2), apps::stream().toDemand(0.0)};
    for (auto _ : state) {
        auto out = model.evaluate(layout, demands,
                                  perf::CoreSharePolicy::LcPriority);
        benchmark::DoNotOptimize(out[0].serviceRate);
    }
}
BENCHMARK(BM_ContentionEvaluate);

void
BM_GpFitPredict(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    stats::Rng rng(1);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        ys.push_back(rng.normal(0.0, 1.0));
    }
    for (auto _ : state) {
        sched::GaussianProcess gp(0.35, 1.0, 0.01);
        gp.fit(xs, ys);
        benchmark::DoNotOptimize(
            gp.expectedImprovement({0.5, 0.5, 0.5}, 0.0));
    }
}
BENCHMARK(BM_GpFitPredict)->Arg(8)->Arg(24)->Arg(64);

void
BM_P2QuantileAdd(benchmark::State &state)
{
    stats::Rng rng(2);
    stats::P2Quantile q(0.95);
    for (auto _ : state)
        q.add(rng.exponential(1.0));
}
BENCHMARK(BM_P2QuantileAdd);

void
BM_EpochSimulationSecond(benchmark::State &state)
{
    // Cost of one simulated second (two 500 ms epochs) of the
    // canonical colocation under ARQ, measured end to end.
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::lcAt(apps::moses(), 0.2),
                        cluster::lcAt(apps::imgDnn(), 0.2),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1.0;
    cfg.warmupEpochs = 0;
    for (auto _ : state) {
        const auto sched = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        auto res = sim.run(*sched);
        benchmark::DoNotOptimize(res.meanES);
    }
}
BENCHMARK(BM_EpochSimulationSecond);

void
BM_EpochSimTracing(benchmark::State &state)
{
    // The obs-layer overhead contract: Arg(0) runs the epoch loop
    // with telemetry disabled (null sink and registry — the default
    // for every production run), Arg(1) with a live in-memory trace
    // sink and metrics registry. Arg(0) must stay within 2% of
    // BM_EpochSimulationSecond; the Arg(1) delta is the real cost
    // of tracing.
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::lcAt(apps::moses(), 0.2),
                        cluster::lcAt(apps::imgDnn(), 0.2),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1.0;
    cfg.warmupEpochs = 0;
    obs::BufferTraceSink sink;
    obs::MetricsRegistry metrics;
    if (state.range(0) == 1) {
        cfg.obs.sink = &sink;
        cfg.obs.metrics = &metrics;
        cfg.obs.scenario = "bench";
    }
    for (auto _ : state) {
        const auto sched = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        auto res = sim.run(*sched);
        benchmark::DoNotOptimize(res.meanES);
        sink.clear();
    }
}
BENCHMARK(BM_EpochSimTracing)->Arg(0)->Arg(1);

void
BM_EpochSimProfiling(benchmark::State &state)
{
    // The span-profiler overhead contract: Arg(0) runs the epoch
    // loop with no profiler attached (the default — every
    // obs::Span construction is one null-pointer branch, no clock
    // read), Arg(1) with a live SpanProfiler on every instrumented
    // phase. Arg(0) must stay within 2% of
    // BM_EpochSimulationSecond; the Arg(1) delta is the real cost
    // of span timing (two clock reads + one map update per span).
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::lcAt(apps::moses(), 0.2),
                        cluster::lcAt(apps::imgDnn(), 0.2),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1.0;
    cfg.warmupEpochs = 0;
    obs::SpanProfiler prof;
    if (state.range(0) == 1)
        cfg.obs.prof = &prof;
    for (auto _ : state) {
        const auto sched = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        auto res = sim.run(*sched);
        benchmark::DoNotOptimize(res.meanES);
        prof.clear();
    }
}
BENCHMARK(BM_EpochSimProfiling)->Arg(0)->Arg(1);

void
BM_EpochSimChecking(benchmark::State &state)
{
    // The invariant-audit overhead contract: Arg(0) runs with
    // auditing off (the default — one branch per hook, no layout
    // copies), Arg(1) with the full AHQ_CHECK=log audit of every
    // decision and epoch. Arg(0) must stay within 2% of
    // BM_EpochSimulationSecond; the Arg(1) delta is the real cost
    // of auditing.
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::lcAt(apps::moses(), 0.2),
                        cluster::lcAt(apps::imgDnn(), 0.2),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1.0;
    cfg.warmupEpochs = 0;
    cfg.checkMode = state.range(0) == 1 ? check::Mode::Log
                                        : check::Mode::Off;
    for (auto _ : state) {
        const auto sched = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        auto res = sim.run(*sched);
        benchmark::DoNotOptimize(res.meanES);
    }
}
BENCHMARK(BM_EpochSimChecking)->Arg(0)->Arg(1);

void
BM_EpochSimFaults(benchmark::State &state)
{
    // The fault-injection overhead contract: Arg(0) runs with no
    // fault plan attached (the default for every production run),
    // Arg(1) under the builtin chaos plan. Arg(0) must stay within
    // 2% of BM_EpochSimulationSecond; the Arg(1) delta is the real
    // cost of drawing and applying faults every epoch.
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::lcAt(apps::moses(), 0.2),
                        cluster::lcAt(apps::imgDnn(), 0.2),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1.0;
    cfg.warmupEpochs = 0;
    const auto plan = fault::FaultPlan::builtinChaos();
    if (state.range(0) == 1)
        cfg.faults = &plan;
    for (auto _ : state) {
        const auto sched = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        auto res = sim.run(*sched);
        benchmark::DoNotOptimize(res.meanES);
    }
}
BENCHMARK(BM_EpochSimFaults)->Arg(0)->Arg(1);

void
JobsArgs(benchmark::internal::Benchmark *b)
{
    b->Arg(1)->Arg(2);
    const int hw =
        static_cast<int>(std::thread::hardware_concurrency());
    if (hw > 2)
        b->Arg(hw);
}

void
BM_ScenarioRunnerBatch(benchmark::State &state)
{
    // Eight independent one-second scenarios fanned across the
    // pool — the batch shape every figure bench now uses.
    std::vector<exec::ScenarioJob> jobs;
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1.0;
    cfg.warmupEpochs = 0;
    for (int j = 0; j < 8; ++j) {
        cfg.seed = static_cast<std::uint64_t>(j + 1);
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(apps::xapian(), 0.1 * (j + 1)),
             cluster::lcAt(apps::moses(), 0.2),
             cluster::be(apps::stream())});
        jobs.push_back({"ARQ", node, cfg, ""});
    }
    exec::ThreadPool pool(static_cast<int>(state.range(0)));
    exec::ScenarioRunner runner(&pool);
    for (auto _ : state) {
        auto res = runner.run(jobs);
        benchmark::DoNotOptimize(res[0].meanES);
    }
}
BENCHMARK(BM_ScenarioRunnerBatch)
    ->Apply(JobsArgs)
    ->Unit(benchmark::kMillisecond);

void
BM_OracleSearchParallel(benchmark::State &state)
{
    // The oracle-bound workload: exhaustive hybrid search on the
    // canonical colocation, fanned over core splits.
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::lcAt(apps::moses(), 0.2),
                        cluster::lcAt(apps::imgDnn(), 0.2),
                        cluster::be(apps::stream())});
    exec::ThreadPool pool(static_cast<int>(state.range(0)));
    cluster::OracleConfig cfg;
    cfg.wayStep = 4;
    cfg.pool = &pool;
    for (auto _ : state) {
        auto res = cluster::bestHybridPartition(node, {}, cfg);
        benchmark::DoNotOptimize(res.report.eS);
    }
}
BENCHMARK(BM_OracleSearchParallel)
    ->Apply(JobsArgs)
    ->Unit(benchmark::kMillisecond);

} // namespace
