/**
 * @file
 * `ahq fleet`: simulate a datacenter-scale fleet under the global
 * load generator — N nodes x M tenants with diurnal curves, Zipf
 * tenant skew and flash crowds — through the streaming fleet
 * aggregation, optionally with the entropy-driven cluster scheduler
 * rebalancing between rounds.
 */

#include "cli.hh"
#include "front_end.hh"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "cluster/cluster_sched.hh"
#include "report/table.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

namespace ahq::cli
{

namespace
{

/** Fleet-only flags, peeled off before parseSimulateArgs. */
struct FleetFlags
{
    /** Workload shape (--nodes --lc --be --tenants --zipf). */
    trace::FleetLoadConfig load;

    /** Rebalance round length in epochs; 0 = plain Fleet::run. */
    int rebalanceEvery = 0;

    double spreadThreshold = 0.10;

    /** Retain per-epoch records (costs O(nodes x epochs) memory). */
    bool keepEpochs = false;
};

} // namespace

int
runFleet(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    FleetFlags ff;
    ff.load.numNodes = 8;
    // Fleet defaults are deliberately lighter than simulate's (a
    // fleet multiplies everything by N nodes); an explicit
    // --duration / --warmup later in the list overrides these.
    std::vector<std::string> rest{"--duration", "30", "--warmup",
                                  "10"};
    try {
        FlagScanner s(args);
        while (s.next()) {
            const std::string &a = s.name();
            if (scanLoadShape(s, ff.load))
                continue;
            if (a == "--nodes") {
                ff.load.numNodes = static_cast<int>(s.integer(1));
            } else if (a == "--rebalance-every") {
                ff.rebalanceEvery = static_cast<int>(s.integer(0));
            } else if (a == "--spread") {
                ff.spreadThreshold = s.numberAtLeast(0.0);
            } else if (a == "--keep-epochs") {
                s.noValue();
                ff.keepEpochs = true;
            } else {
                rest.push_back(s.raw());
            }
        }
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    SimulateOptions opt;
    try {
        opt = parseSimulateArgs(rest, /*require_apps=*/false);
        if (!opt.lcApps.empty() || !opt.beApps.empty()) {
            throw std::invalid_argument(
                "fleet synthesizes its workload from the global "
                "load generator; app specs are not accepted "
                "(shape it with --nodes/--lc/--be/--tenants)");
        }
        requireSteadyEpochs(opt);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        applyJobs(opt);
        trace::FleetLoadConfig lc = ff.load;
        lc.seed = opt.seed;
        const trace::FleetLoadGenerator gen(lc);
        const auto mc = machineFor(opt);

        cluster::SimulationConfig cfg = simulationConfigFor(opt);
        cfg.keepEpochs = ff.keepEpochs;

        RunTelemetry tel(
            opt, {.scenario = opt.strategy,
                  .spans = RunTelemetry::Shape::Spans::Merged});
        cfg.obs = tel.scope;

        // Peak offered demand: every LC slot's tenant at its
        // daytime peak, in the app's own QPS units.
        double peak_qps = 0.0;
        for (int n = 0; n < lc.numNodes; ++n) {
            const auto apps = cluster::fleetNodeApps(gen, n);
            for (int s = 0; s < lc.lcPerNode; ++s) {
                const auto rank = gen.tenant(n, s);
                peak_qps += gen.tenantPeakLoad(rank) *
                    apps[static_cast<std::size_t>(s)]
                        .profile.maxLoadQps;
            }
        }

        out << "fleet: " << lc.numNodes << " nodes x ("
            << lc.lcPerNode << " LC + " << lc.bePerNode
            << " BE), " << lc.numTenants << " tenants (zipf "
            << lc.zipfSkew << "), strategy " << opt.strategy
            << "\n";
        out << "peak demand ~ "
            << static_cast<long long>(std::llround(peak_qps))
            << " QPS (~"
            << static_cast<long long>(
                   std::llround(peak_qps * 60.0))
            << " users at 1 req/user/min)\n";

        const int total_epochs = static_cast<int>(std::round(
            cfg.durationSeconds / cfg.epochSeconds));
        const auto t0 = std::chrono::steady_clock::now();

        double e_lc = 0.0, e_be = 0.0, e_s = 0.0, yield = 1.0;
        long long violations = 0, migrations = 0;
        obs::AttributionLedger blame;
        obs::SloSummary slo_totals;
        if (ff.rebalanceEvery > 0) {
            cluster::ClusterConfig cc;
            cc.roundEpochs = ff.rebalanceEvery;
            cc.rounds =
                std::max(1, total_epochs / ff.rebalanceEvery);
            cc.roundWarmupEpochs = std::min(
                cfg.warmupEpochs, cc.roundEpochs - 1);
            cc.spreadThreshold = ff.spreadThreshold;
            cluster::ClusterScheduler cs(cc, opt.strategy);
            for (int n = 0; n < lc.numNodes; ++n)
                cs.addNode(mc, cluster::fleetNodeApps(gen, n));
            const auto res = cs.run(cfg);
            report::TextTable t(
                {"round", "E_S", "spread", "migrations"});
            for (std::size_t r = 0; r < res.roundES.size(); ++r) {
                long long moved = 0;
                for (const auto &m : res.migrations) {
                    if (m.round == static_cast<int>(r))
                        ++moved;
                }
                t.addRow({std::to_string(r),
                          report::TextTable::num(res.roundES[r]),
                          report::TextTable::num(
                              res.roundSpread[r]),
                          std::to_string(moved)});
            }
            t.print(out);
            for (const auto &m : res.migrations) {
                out << "migrated " << m.app << ": node"
                    << m.fromNode << " -> node" << m.toNode
                    << " (round " << m.round << ")\n";
            }
            e_lc = res.eLc;
            e_be = res.eBe;
            e_s = res.eS;
            yield = res.yieldValue;
            violations = res.violations;
            migrations =
                static_cast<long long>(res.migrations.size());
            blame = res.attribution;
            slo_totals = res.slo;
        } else {
            cluster::Fleet fleet;
            for (int n = 0; n < lc.numNodes; ++n) {
                fleet.addNode(
                    cluster::Node(mc,
                                  cluster::fleetNodeApps(gen, n)),
                    sched::makeScheduler(opt.strategy));
            }
            const auto res = fleet.run(cfg);
            e_lc = res.eLc;
            e_be = res.eBe;
            e_s = res.eS;
            yield = res.yieldValue;
            violations = res.violations;
            blame = res.attribution;
            slo_totals = res.slo;
        }

        if (opt.attribute && !blame.empty()) {
            out << "fleet blame ledger (top 12 by attributed "
                   "interference):\n";
            blameTable(blame, 12).printText(out);
        }
        if (opt.slo)
            printSloSummary(out, slo_totals);

        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        out << "E_LC = " << e_lc << ", E_BE = " << e_be
            << ", E_S = " << e_s << ", yield = " << yield
            << ", violations = " << violations;
        if (ff.rebalanceEvery > 0)
            out << ", migrations = " << migrations;
        out << "\n";
        out << "wall " << report::TextTable::num(wall_s, 2)
            << " s, "
            << report::TextTable::num(
                   wall_s > 0.0 ? lc.numNodes / wall_s : 0.0, 1)
            << " nodes/s\n";

        tel.finish(out, "profile (span tree, all nodes merged):");
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace ahq::cli
