/**
 * @file
 * Fast perf-trajectory anchor (not a paper figure): epoch-loop
 * throughput of the canonical 4-app colocation under every
 * registered strategy, the span-profiler-on variant, larger-node
 * variants (8 and 32 colocated apps — where the GP window cap and
 * the O(n²) incremental Cholesky keep CLITE's decision cost flat),
 * and a small Fleet run. Finishes in a few seconds total. With
 * --json it writes BENCH_epoch_throughput.json — the file the repo
 * commits as the baseline tools/bench_diff compares future
 * revisions against (see EXPERIMENTS.md).
 */

#include <iostream>

#include "common.hh"
#include "cluster/fleet.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

/**
 * A deliberately over-colocated 32-app node (8 LC + 24 BE) on the
 * larger Gold 6248 so per-group resource minimums stay feasible.
 * Not a paper scenario — a stress row for the trajectory.
 */
cluster::Node
thirtyTwoAppNode()
{
    std::vector<cluster::ColocatedApp> colocated;
    const double load = 0.15;
    colocated.push_back(cluster::lcAt(apps::moses(), load));
    colocated.push_back(cluster::lcAt(apps::xapian(), load));
    colocated.push_back(cluster::lcAt(apps::imgDnn(), load));
    colocated.push_back(cluster::lcAt(apps::sphinx(), load));
    colocated.push_back(cluster::lcAt(apps::masstree(), load));
    colocated.push_back(cluster::lcAt(apps::silo(), load));
    colocated.push_back(cluster::lcAt(apps::moses(), 2 * load));
    colocated.push_back(cluster::lcAt(apps::xapian(), 2 * load));
    for (int i = 0; i < 8; ++i) {
        colocated.push_back(cluster::be(apps::fluidanimate()));
        colocated.push_back(cluster::be(apps::streamcluster()));
        colocated.push_back(cluster::be(apps::stream()));
    }
    return cluster::Node(machine::MachineConfig::xeonGold6248(),
                         std::move(colocated));
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "epoch_throughput");
    BenchJsonWriter json("epoch_throughput", args);

    report::heading(std::cout,
                    "Epoch-loop throughput (canonical 4-app node, "
                    "30 simulated seconds)");

    const auto node = canonicalNode(0.5, 0.2, 0.2, apps::stream());
    cluster::SimulationConfig cfg = standardConfig();
    cfg.durationSeconds = 30.0;
    cfg.warmupEpochs = 0;
    const double epochs = cfg.durationSeconds / cfg.epochSeconds;

    report::TextTable t({"workload", "wall (ms)", "epochs/s"});
    auto row = [&](const std::string &name,
                   const cluster::Node &n,
                   const cluster::SimulationConfig &c,
                   const std::string &strategy,
                   const std::string &config) {
        const double s = secondsOfN([&] {
            // The timed unit: a fresh scheduler and simulator, run on
            // this thread.
            const auto r = cluster::EpochSimulator(n, c).run(
                *sched::makeScheduler(strategy));
            if (r.epochs.empty())
                std::cerr << "empty run\n"; // keep r observable
        });
        t.addRow({name, num(s * 1e3), num(epochs / s, 0)});
        json.add(name, s * 1e3, epochs / s, "epochs/s", config);
    };

    // Every registered strategy (the registry's presentation
    // order), not just the headline five.
    for (const auto &strategy : sched::allStrategyNames())
        row(strategy, node, cfg, strategy,
            "epochs=60 " + strategy);

    // The profiler-on variant tracks the span-timing overhead on
    // the same workload (spans: epoch phases + scheduler steps).
    cluster::SimulationConfig prof_cfg = cfg;
    obs::SpanProfiler prof;
    prof_cfg.obs.prof = &prof;
    row("ARQ+profiler", node, prof_cfg, "ARQ",
        "epochs=60 ARQ profile=1");

    // Telemetry variants on a 600-epoch run (telemetry's per-run
    // costs — run_start, series handle setup, the final flush —
    // are fixed, so the overhead claim is about the steady state,
    // not the amortization of a short run):
    //   off-path  sink attached, sampling rejects every epoch, no
    //             series registry. This is the shape a fleet node
    //             is in when it loses the sampling draw, and the
    //             gated claim: <2% over plain ARQ.
    //   on-path   series registry recording every epoch plus
    //             head-based sampling keeping 5% of trace events —
    //             the production shape for sampled fleet runs. Its
    //             cost is real (~20 bucket updates per ~1.4 us
    //             simulated epoch) and reported, not gated; both
    //             rows land in the committed baseline so
    //             tools/bench_diff catches drift.
    {
        cluster::SimulationConfig long_cfg = cfg;
        long_cfg.durationSeconds = 300.0;
        const double long_epochs =
            long_cfg.durationSeconds / long_cfg.epochSeconds;
        obs::BufferTraceSink ts_sink;
        obs::TimeSeriesRegistry ts_registry;
        cluster::SimulationConfig ts_cfg = long_cfg;
        ts_cfg.obs.sink = &ts_sink;
        ts_cfg.obs.scenario = "ARQ";
        ts_cfg.obs.series = &ts_registry;
        ts_cfg.traceSampleRate = 0.05;

        obs::BufferTraceSink off_sink;
        cluster::SimulationConfig off_cfg = long_cfg;
        off_cfg.obs.sink = &off_sink;
        off_cfg.obs.scenario = "ARQ";
        off_cfg.traceSampleRate = 0.0;

        // A multi-sided comparison at ~1 ms per run drowns in
        // scheduling noise if each side is timed in its own block;
        // interleave the reps so every side samples the same
        // machine conditions, then take each side's minimum.
        double s_plain = 1e300, s_off = 1e300, s = 1e300;
        auto timeOne = [&](const cluster::SimulationConfig &c,
                           double &best) {
            best = std::min(best, secondsOnce([&] {
                const auto r = cluster::EpochSimulator(node, c).run(
                    *sched::makeScheduler("ARQ"));
                if (r.epochs.empty())
                    std::cerr << "empty run\n";
            }));
        };
        for (int rep = 0; rep < 20; ++rep) {
            timeOne(long_cfg, s_plain);
            off_sink.clear();
            timeOne(off_cfg, s_off);
            ts_sink.clear();
            ts_registry.clear();
            timeOne(ts_cfg, s);
        }
        t.addRow({"ARQ+trace-off", num(s_off * 1e3),
                  num(long_epochs / s_off, 0)});
        json.add("ARQ+trace-off", s_off * 1e3, long_epochs / s_off,
                 "epochs/s",
                 "epochs=600 ARQ trace_sample=0 series=0");
        t.addRow({"ARQ+timeseries", num(s * 1e3),
                  num(long_epochs / s, 0)});
        json.add("ARQ+timeseries", s * 1e3, long_epochs / s,
                 "epochs/s",
                 "epochs=600 ARQ trace_sample=0.05 series=1");
        const double off_pct = 100.0 * (s_off / s_plain - 1.0);
        std::cout << "off-path overhead (sampling rejects all) vs "
                     "plain ARQ @"
                  << static_cast<int>(long_epochs)
                  << " epochs: " << num(off_pct)
                  << "% (gate: <2%)\n";
        if (off_pct >= 2.0)
            std::cout << "WARNING: off-path overhead exceeds the "
                         "2% gate\n";
        std::cout << "on-path overhead (series + 5% sampling) vs "
                     "plain ARQ @"
                  << static_cast<int>(long_epochs) << " epochs: "
                  << num(100.0 * (s / s_plain - 1.0)) << "%\n";
    }

    // Larger colocations: the decision loops that scale with app
    // count (CLITE's GP over groups x kinds, ARQ's ReT array, the
    // contention fixed point) against 2x and 8x the canonical node.
    const auto node8 = eightAppNode();
    const auto node32 = thirtyTwoAppNode();
    for (const auto &strategy :
         {std::string("Unmanaged"), std::string("CLITE"),
          std::string("ARQ")}) {
        row(strategy + "@8apps", node8, cfg, strategy,
            "epochs=60 apps=8 " + strategy);
        row(strategy + "@32apps", node32, cfg, strategy,
            "epochs=60 apps=32 " + strategy);
    }

    // A small fleet: 4 canonical nodes under ARQ, epochs counted
    // across all nodes (runs on the global pool, byte-identical at
    // any thread count).
    {
        const double s = secondsOfN([&] {
            cluster::Fleet fleet;
            for (int i = 0; i < 4; ++i)
                fleet.addNode(node, sched::makeScheduler("ARQ"));
            const auto r = fleet.run(cfg);
            if (r.nodes.empty())
                std::cerr << "empty fleet run\n";
        });
        const double fleet_epochs = 4.0 * epochs;
        t.addRow({"Fleet/ARQ x4", num(s * 1e3),
                  num(fleet_epochs / s, 0)});
        json.add("Fleet/ARQ x4", s * 1e3, fleet_epochs / s,
                 "epochs/s", "epochs=60 nodes=4 ARQ");
    }

    t.print(std::cout);
    return 0;
}
