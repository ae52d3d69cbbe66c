/**
 * @file
 * Fleet and placement advisor implementation.
 */

#include "cluster/fleet.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "cluster/fan_out.hh"
#include "exec/jobs.hh"
#include "exec/parallel.hh"
#include "obs/span.hh"
#include "sched/registry.hh"

namespace ahq::cluster
{

namespace
{

/** Seed salt decorrelating post-failover (phase B) RNG streams. */
constexpr std::uint64_t kRecoverySeedSalt = 0xb10c5;

} // namespace

void
Fleet::addNode(Node node, std::unique_ptr<sched::Scheduler> scheduler)
{
    assert(scheduler != nullptr);
    nodes_.push_back({std::move(node), std::move(scheduler)});
}

void
FleetAccumulator::add(const Node &node, const SimulationResult &res)
{
    assert(res.steadyMeanLoad.size() ==
           static_cast<std::size_t>(node.numApps()));
    violations += res.violations;
    for (machine::AppId i = 0; i < node.numApps(); ++i) {
        const auto &p = node.profile(i);
        const auto ui = static_cast<std::size_t>(i);
        if (p.latencyCritical) {
            // Pool against the app's *steady-state* mean load:
            // meanP95Ms is a post-warmup aggregate, so its solo
            // reference must be too (a trace still ramping during
            // warmup would otherwise drag the reference below the
            // regime the steady tail was measured in).
            lc.push_back({p.soloTailP95Ms(res.steadyMeanLoad[ui]),
                          res.meanP95Ms[ui], p.tailThresholdMs});
        } else {
            be.push_back({p.ipcSolo, res.meanIpc[ui]});
        }
    }
}

void
FleetAccumulator::merge(const FleetAccumulator &other)
{
    lc.insert(lc.end(), other.lc.begin(), other.lc.end());
    be.insert(be.end(), other.be.begin(), other.be.end());
    violations += other.violations;
}

core::EntropyReport
FleetAccumulator::entropy(double ri) const
{
    return core::computeEntropy(lc, be, ri);
}

Fleet::FleetResult
Fleet::run(const SimulationConfig &config, exec::ThreadPool *pool)
{
    FleetResult out;

    const obs::Scope &scope = config.obs;
    const bool tracing = scope.tracing();
    if (tracing) {
        obs::Event ev("fleet_start");
        ev.integer("nodes", numNodes())
            .integer("seed", static_cast<long long>(config.seed));
        scope.emit(ev);
    }
    exec::ThreadPool &p = pool ? *pool : exec::globalPool();

    // Fleet-level fault handling: node_crash directives coalesce to
    // the earliest crash epoch; every crashed node stops there and
    // its apps fail over to the survivors. Without valid crashes
    // (or without survivors to fail over to) the run is the single
    // phase A below, byte-identical to pre-fault builds.
    const int total_epochs = static_cast<int>(
        std::round(config.durationSeconds / config.epochSeconds));
    std::vector<int> crashed;
    int crash_epoch = 0;
    if (config.faults != nullptr && total_epochs >= 2) {
        double crash_at = config.durationSeconds;
        for (const auto &c : config.faults->crashes()) {
            if (c.node < 0 || c.node >= numNodes() ||
                c.atS >= config.durationSeconds)
                continue;
            crash_at = std::min(crash_at, c.atS);
            if (std::find(crashed.begin(), crashed.end(),
                          c.node) == crashed.end())
                crashed.push_back(c.node);
        }
        std::sort(crashed.begin(), crashed.end());
        crash_epoch = std::clamp(
            static_cast<int>(crash_at / config.epochSeconds), 1,
            total_epochs - 1);
    }
    const bool crashing = !crashed.empty() &&
        static_cast<int>(crashed.size()) < numNodes();

    // ---- phase A: every node runs to the end or the crash --------
    SimulationConfig cfg_a = config;
    if (crashing) {
        cfg_a.durationSeconds = crash_epoch * config.epochSeconds;
        out.crashedNodes = crashed;
        for (int n : crashed) {
            scope.count("fault.node_crash");
            if (tracing) {
                obs::Event ev("fault");
                ev.str("fault", "node_crash")
                    .integer("node", n)
                    .num("t", cfg_a.durationSeconds);
                scope.emit(ev);
            }
        }
    }
    // Each worker also folds its node's steady-state observations
    // into its own accumulator slot — the streaming half of the
    // aggregation; the slots merge in node order below. The trace
    // buffers flush in node order too, between fleet_node events.
    out.nodes.resize(nodes_.size());
    std::vector<FleetAccumulator> accums(nodes_.size());
    const auto buffers = tracedParallelFor(
        p, nodes_.size(), scope,
        [](std::size_t n) { return "node" + std::to_string(n); },
        [&](std::size_t n, const obs::Scope &node_scope) {
            SimulationConfig c = cfg_a;
            c.seed = nodeSeed(config.seed, n);
            c.obs = node_scope;
            out.nodes[n] = EpochSimulator(nodes_[n].node, c)
                               .run(*nodes_[n].scheduler);
            accums[n].add(nodes_[n].node, out.nodes[n]);
        });

    // ---- phase B: survivors finish the run with the refugees -----
    Recovery rec;
    if (crashing)
        rec = recover(config, crash_epoch, crashed, out, p);

    for (const auto &res : out.nodes) {
        out.violations += res.violations;
        out.attribution.merge(res.attribution);
        out.slo.merge(res.slo);
    }

    // Streaming reduce: the per-node accumulators built on the pool
    // merge in node order, so the pooled observation sequence — and
    // therefore the E_S bits — are identical at any thread count.
    // After a crash the datacenter entropy describes the recovered
    // fleet (the phase B accumulators).
    const auto rep = [&] {
        obs::Span span(scope, "fleet.entropy");
        FleetAccumulator pooled;
        for (const auto &acc : crashing ? rec.accums : accums)
            pooled.merge(acc);
        return pooled.entropy(config.ri);
    }();
    out.eLc = rep.eLc;
    out.eBe = rep.eBe;
    out.eS = rep.eS;
    out.yieldValue = rep.yieldValue;

    if (tracing) {
        std::size_t s = 0;
        for (std::size_t n = 0; n < nodes_.size(); ++n) {
            buffers[n].flushTo(*scope.sink);
            const bool recovered = crashing &&
                !std::binary_search(crashed.begin(), crashed.end(),
                                    static_cast<int>(n));
            const Entry &entry =
                recovered ? rec.entries[s] : nodes_[n];
            if (recovered)
                rec.buffers[s++].flushTo(*scope.sink);
            obs::Event ev("fleet_node");
            ev.integer("node", static_cast<long long>(n))
                .str("colocation", entry.node.describe())
                .str("scheduler", entry.scheduler->name())
                .num("mean_e_s", out.nodes[n].meanES)
                .integer("violations", out.nodes[n].violations);
            if (crashing)
                ev.str("status", recovered ? "recovered" : "crashed");
            scope.emit(ev);
        }
        obs::Event ev("fleet_end");
        ev.num("e_lc", out.eLc)
            .num("e_be", out.eBe)
            .num("e_s", out.eS)
            .num("yield", out.yieldValue)
            .integer("violations", out.violations);
        if (crashing)
            ev.integer("failovers", out.failovers);
        scope.emit(ev);
    }

    // Hand the survivors' schedulers back so the Fleet stays
    // reusable for another run.
    for (std::size_t s = 0; s < rec.survivors.size(); ++s) {
        nodes_[static_cast<std::size_t>(rec.survivors[s])].scheduler =
            std::move(rec.entries[s].scheduler);
    }
    scope.count("fleet.runs");
    return out;
}

Fleet::Recovery
Fleet::recover(const SimulationConfig &config, int crash_epoch,
               const std::vector<int> &crashed, FleetResult &out,
               exec::ThreadPool &p)
{
    const obs::Scope &scope = config.obs;
    const bool tracing = scope.tracing();
    const double ta = crash_epoch * config.epochSeconds;

    // ---- failover: re-place crashed apps onto the survivors ------
    Recovery rec;
    for (int n = 0; n < numNodes(); ++n) {
        if (!std::binary_search(crashed.begin(), crashed.end(), n))
            rec.survivors.push_back(n);
    }
    std::vector<ColocatedApp> refugees;
    for (int n : crashed) {
        for (const auto &a :
             nodes_[static_cast<std::size_t>(n)].node.apps())
            refugees.push_back(a);
    }
    std::vector<std::vector<ColocatedApp>> initial;
    for (int n : rec.survivors) {
        initial.push_back(
            nodes_[static_cast<std::size_t>(n)].node.apps());
    }

    // Short, unfaulted, unaudited trial runs drive the placement;
    // the advisor itself is deterministic per (apps, config).
    const SimulationConfig trial =
        trialConfig(config, 8.0 * config.epochSeconds, 2);

    const auto &first =
        nodes_[static_cast<std::size_t>(rec.survivors.front())];
    const std::string strategy = first.scheduler->name();
    PlacementAdvisor advisor(
        first.node.config(), static_cast<int>(rec.survivors.size()),
        [strategy] { return sched::makeScheduler(strategy); });
    // The trial scope is stripped (trial.obs = {}), so no trial
    // simulation records spans — the placement search appears as
    // one caller-side span and the node bodies stay span-free,
    // keeping paths independent of which thread ran which trial.
    const auto placement = [&] {
        obs::Span span(scope, "fleet.place");
        return advisor.place(refugees, trial, &p, &initial);
    }();

    for (std::size_t r = 0; r < refugees.size(); ++r)
        scope.count("recovery.failover");
    out.failovers = static_cast<int>(refugees.size());
    if (tracing) {
        obs::Event ev("recovery");
        ev.str("what", "failover")
            .integer("apps", out.failovers)
            .num("t", ta);
        scope.emit(ev);
    }

    for (std::size_t s = 0; s < rec.survivors.size(); ++s) {
        auto apps = initial[s];
        for (std::size_t r = 0; r < refugees.size(); ++r) {
            if (placement.assignment[r] == static_cast<int>(s))
                apps.push_back(refugees[r]);
        }
        auto &entry =
            nodes_[static_cast<std::size_t>(rec.survivors[s])];
        rec.entries.push_back({Node(entry.node.config(),
                                    std::move(apps)),
                               std::move(entry.scheduler)});
    }

    SimulationConfig cfg_b = config;
    cfg_b.durationSeconds = config.durationSeconds - ta;
    cfg_b.warmupEpochs =
        std::max(0, config.warmupEpochs - crash_epoch);
    // Survivor s keeps node id survivors[s] for its tag and seed;
    // the salt decorrelates its phase B stream from phase A.
    std::vector<SimulationResult> res_b(rec.entries.size());
    rec.accums.assign(rec.entries.size(), {});
    rec.buffers = tracedParallelFor(
        p, rec.entries.size(), scope,
        [&](std::size_t s) {
            return "node" + std::to_string(rec.survivors[s]) +
                "/recovered";
        },
        [&](std::size_t s, const obs::Scope &node_scope) {
            SimulationConfig c = cfg_b;
            c.seed = nodeSeed(
                config.seed,
                static_cast<std::size_t>(rec.survivors[s]),
                kRecoverySeedSalt);
            c.obs = node_scope;
            res_b[s] = EpochSimulator(rec.entries[s].node, c)
                           .run(*rec.entries[s].scheduler);
            rec.accums[s].add(rec.entries[s].node, res_b[s]);
        });

    // Crashed slots keep their phase A segment; survivors report
    // the recovered segment they finished with — but their QoS
    // violations, blame ledger and alert tallies cover the whole
    // run: what a survivor incurred *before* the crash happened and
    // must not vanish from the fleet totals.
    for (std::size_t s = 0; s < rec.survivors.size(); ++s) {
        auto &slot =
            out.nodes[static_cast<std::size_t>(rec.survivors[s])];
        const SimulationResult before = std::move(slot);
        slot = std::move(res_b[s]);
        slot.violations += before.violations;
        slot.attribution.merge(before.attribution);
        slot.slo.merge(before.slo);
    }
    return rec;
}

SimulationConfig
trialConfig(const SimulationConfig &base, double seconds,
            int warmup_epochs)
{
    SimulationConfig trial = base;
    trial.obs = {};
    trial.checkMode = check::Mode::Off;
    trial.faults = nullptr;
    trial.durationSeconds = seconds;
    trial.warmupEpochs = warmup_epochs;
    trial.keepEpochs = false;
    return trial;
}

double
trialEntropy(
    const machine::MachineConfig &machine,
    const std::vector<ColocatedApp> &apps, const SimulationConfig &trial,
    const std::function<std::unique_ptr<sched::Scheduler>()> &make)
{
    if (apps.empty())
        return 0.0;
    return EpochSimulator(Node(machine, apps), trial).run(*make()).meanES;
}

PlacementAdvisor::PlacementAdvisor(
    machine::MachineConfig node_config, int num_nodes,
    std::function<std::unique_ptr<sched::Scheduler>()> make_scheduler)
    : nodeConfig(std::move(node_config)), numNodes_(num_nodes),
      makeScheduler(std::move(make_scheduler))
{
    assert(num_nodes >= 1);
    assert(makeScheduler != nullptr);
}

PlacementAdvisor::Placement
PlacementAdvisor::place(
    const std::vector<ColocatedApp> &apps,
    const SimulationConfig &trial_config, exec::ThreadPool *pool,
    const std::vector<std::vector<ColocatedApp>> *initial) const
{
    // Hungriest first: LC apps by mean core demand at their initial
    // load, then BE apps by thread count.
    std::vector<std::size_t> order(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i)
        order[i] = i;
    auto hunger = [&](std::size_t i) {
        const auto &a = apps[i];
        if (a.profile.latencyCritical) {
            const double load = a.load ? a.load->at(0.0) : 0.0;
            return a.profile.arrivalRate(load) *
                a.profile.serviceTimeMs / 1000.0;
        }
        return static_cast<double>(a.profile.threads);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return hunger(a) > hunger(b);
                     });

    std::vector<std::vector<ColocatedApp>> per_node(
        static_cast<std::size_t>(numNodes_));
    if (initial != nullptr) {
        assert(static_cast<int>(initial->size()) == numNodes_);
        per_node = *initial;
    }
    Placement placement;
    placement.assignment.assign(apps.size(), -1);
    placement.nodeEntropy.assign(
        static_cast<std::size_t>(numNodes_), 0.0);

    exec::ThreadPool &p = pool ? *pool : exec::globalPool();
    std::vector<double> trial_es(
        static_cast<std::size_t>(numNodes_), 0.0);
    for (std::size_t oi : order) {
        // Trial-simulate the app on every candidate node in
        // parallel; the argmin below scans in node order with
        // strict <, matching the serial greedy choice exactly.
        exec::parallelFor(
            p, static_cast<std::size_t>(numNodes_),
            [&](std::size_t n) {
                auto trial = per_node[n];
                trial.push_back(apps[oi]);
                trial_es[n] = trialEntropy(nodeConfig, trial, trial_config,
                                           makeScheduler);
            });
        int best_node = 0;
        double best_es = std::numeric_limits<double>::infinity();
        for (int n = 0; n < numNodes_; ++n) {
            const double es =
                trial_es[static_cast<std::size_t>(n)];
            if (es < best_es) {
                best_es = es;
                best_node = n;
            }
        }
        per_node[static_cast<std::size_t>(best_node)].push_back(
            apps[oi]);
        placement.assignment[oi] = best_node;
    }

    // Report the entropy of the *final* colocation on every node —
    // including nodes that won no assignment but carry `initial`
    // apps, and winners whose mid-greedy trial value went stale as
    // later apps joined them. Empty nodes report 0.
    exec::parallelFor(
        p, static_cast<std::size_t>(numNodes_), [&](std::size_t n) {
            placement.nodeEntropy[n] = trialEntropy(
                nodeConfig, per_node[n], trial_config, makeScheduler);
        });

    double sum = 0.0;
    for (double e : placement.nodeEntropy)
        sum += e;
    placement.meanEntropy = sum / numNodes_;
    return placement;
}

} // namespace ahq::cluster
