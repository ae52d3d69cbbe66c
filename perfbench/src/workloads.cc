#include "workloads.hh"

#include <cmath>
#include <istream>
#include <map>
#include <memory>
#include <streambuf>

#include "apps/catalog.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/epoch_sim.hh"
#include "cluster/fleet.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "experiment/harness.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_reader.hh"
#include "probes.hh"
#include "sched/registry.hh"
#include "stats/rng.hh"
#include "trace/fleet_load.hh"

namespace ahq::perfbench
{

namespace
{

using cluster::be;
using cluster::lcAt;

/** Independent per-purpose value derived from the run seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream)
{
    return stats::Rng(seed).split(stream).nextU64();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

cluster::SimulationConfig
simConfig(std::uint64_t seed, int epochs)
{
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = epochs * cfg.epochSeconds;
    cfg.seed = seed;
    cfg.checkMode = check::Mode::Off;
    return cfg;
}

/** The self-check's deliberate corruption: one ulp, one op. */
void
maybeCorrupt(const Options &o, int round, std::size_t op, double &v)
{
    if (o.corrupt && round == 1 && op == 0)
        v = std::nextafter(v, 2.0);
}

bool
inUnit(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

/**
 * Op i of every round must reproduce the digest of its first run;
 * the first round's digests make up the workload digest.
 */
class Repeats
{
  public:
    bool same(std::size_t op, const Digest &d)
    {
        if (op >= first_.size()) {
            first_.resize(op + 1, 0);
            seen_.resize(op + 1, false);
        }
        if (!seen_[op]) {
            seen_[op] = true;
            first_[op] = d.value();
            return true;
        }
        return first_[op] == d.value();
    }

    Digest digest() const
    {
        Digest d;
        for (const auto v : first_)
            d.add(static_cast<long long>(v));
        return d;
    }

  private:
    std::vector<std::uint64_t> first_;
    std::vector<bool> seen_;
};

/** Time spent in one kind of round (plain or instrumented). */
struct Timed
{
    OpTimes ops;
    double wall = 0.0;
    double cpu = 0.0;
    int rounds = 0;

    /** Times one op and records it. */
    template <class F>
    void op(F &&fn)
    {
        ops.add(timeCall(fn));
    }
};

/**
 * Runs whole rounds for the requested seconds and returns the median
 * set-up time. setup() rebuilds the workload's inputs and returns
 * the seconds the build took (freeing the previous inputs outside
 * that time). An untraced run rebuilds `setup_reps` times before
 * every round, so set-up samples see the same host stretches as the
 * ops. A traced run builds once and instruments its odd rounds, so
 * plain and instrumented rounds interleave.
 */
template <class SetupFn, class RoundFn>
double
timeRounds(const Options &o, Timed &plain, Timed &traced,
           int setup_reps, SetupFn &&setup, RoundFn &&fn)
{
    std::vector<double> setup_s;
    if (o.traced)
        setup();
    runRounds(o.seconds, o.traced ? 4 : 2, [&](int r) {
        for (int k = 0; !o.traced && k < setup_reps; ++k)
            setup_s.push_back(setup());
        const bool inst = o.traced && r % 2 == 1;
        Timed &t = inst ? traced : plain;
        const double c0 = processCpuSeconds();
        const auto t0 = Clock::now();
        fn(r, inst, t);
        t.wall += secondsSince(t0);
        t.cpu += processCpuSeconds() - c0;
        ++t.rounds;
    });
    return quantile(std::move(setup_s), 0.5);
}

void
reportEndToEnd(Report &rep, double setup_s, const Timed &plain,
               double node_epochs_per_round)
{
    rep.metric("setup_s", setup_s, "s");
    rep.metric("node_epochs_per_s",
               ratio(node_epochs_per_round * plain.rounds, plain.wall),
               "node-epochs/s");
    rep.metric("peak_rss_mib", peakRssMiB(), "MiB");
    rep.info("ops", static_cast<double>(plain.ops.ms.size()), "count");
    rep.info("run_ms_p50", plain.ops.p50Ms(), "ms");
    if (plain.ops.ms.size() >= 100)
        rep.info("run_ms_p90", plain.ops.p90Ms(), "ms");
}

/** Per-layer metrics every workload has: the epoch split, CPU use
    and the cost of the benchmark's own instrumentation. */
void
reportCommonLayers(Report &rep, const obs::SpanProfiler &prof,
                   const Timed &plain, const Timed &traced,
                   int threads)
{
    const EpochSplit s = EpochSplit::of(prof);
    const double epoch_ns = static_cast<double>(s.epochNs);
    rep.metric("perf.model_evals",
               ratio(static_cast<double>(s.modelCount), traced.rounds),
               "count");
    rep.metric("perf.model_share", ratio(s.modelNs, epoch_ns), "ratio");
    rep.metric("cluster.epoch_ns",
               ratio(epoch_ns, static_cast<double>(s.epochs)), "ns");
    rep.metric("cluster.unattributed_share",
               ratio(epoch_ns - static_cast<double>(s.childNs),
                     epoch_ns),
               "ratio");
    rep.metric("cluster.measure_self_share",
               ratio(static_cast<double>(s.measureNs) -
                         static_cast<double>(s.modelNs),
                     epoch_ns),
               "ratio");
    rep.metric("cluster.allocs_per_epoch",
               ratio(static_cast<double>(s.epochAllocs),
                     static_cast<double>(s.epochs)),
               "count");
    rep.metric("exec.cpu_utilization",
               ratio(plain.cpu, plain.wall * threads), "ratio");
    rep.metric("obs.trace_overhead",
               ratio(traced.wall / traced.rounds,
                     plain.wall / plain.rounds) -
                   1.0,
               "ratio");
}

void
reportSched(Report &rep, const std::vector<TimedScheduler *> &scheds,
            const obs::SpanProfiler &prof, int rounds)
{
    double calls = 0.0, ns = 0.0, allocs = 0.0;
    double layout_calls = 0.0, layout_ns = 0.0;
    for (const auto *s : scheds) {
        calls += static_cast<double>(s->adjustCalls);
        ns += static_cast<double>(s->adjustNs);
        allocs += static_cast<double>(s->adjustAllocs);
        layout_calls += static_cast<double>(s->layoutCalls);
        layout_ns += static_cast<double>(s->layoutNs);
    }
    const EpochSplit split = EpochSplit::of(prof);
    const double epoch_ns = static_cast<double>(split.epochNs);
    rep.metric("sched.adjust_calls", ratio(calls, rounds), "count");
    rep.metric("sched.adjust_ns_per_call", ratio(ns, calls), "ns");
    rep.metric("sched.adjust_share", ratio(ns, epoch_ns), "ratio");
    rep.metric("sched.allocs_per_adjust", ratio(allocs, calls), "count");
    rep.info("initial_layout_ns_per_call", ratio(layout_ns, layout_calls),
             "ns");
    // The rest of the decide span (the decorator and span overhead),
    // so that adjust + model + measure self + attribute + this +
    // cluster.unattributed_share sum to the epoch.
    rep.info("decide_other_share",
             ratio(static_cast<double>(split.decideNs) - ns, epoch_ns),
             "ratio");
}

void
reportReplay(Report &rep, const ReplayResult &r)
{
    rep.metric("perf.model_ns_per_eval",
               ratio(r.modelSeconds * 1e9, static_cast<double>(r.evals)),
               "ns");
    rep.metric("perf.memo_hits", static_cast<double>(r.memoHits),
               "count");
    rep.metric("perf.memo_hit_ratio",
               ratio(static_cast<double>(r.memoHits),
                     static_cast<double>(r.memoLookups)),
               "ratio");
    rep.metric("core.entropy_ns_per_call",
               ratio(r.entropySeconds * 1e9,
                     static_cast<double>(r.entropyCalls)),
               "ns");
}

Digest &
addRun(Digest &d, const cluster::SimulationResult &r)
{
    d.add(r.meanES).add(r.meanELc).add(r.meanEBe).add(r.yieldValue);
    d.add(static_cast<long long>(r.violations));
    for (double v : r.meanP95Ms)
        d.add(v);
    for (double v : r.meanIpc)
        d.add(v);
    for (const auto &row : r.attribution.rows())
        d.add(row.victim).add(row.culprit).add(row.resource)
            .add(row.share).add(row.epochs);
    d.add(r.slo.raises).add(r.slo.clears).add(r.slo.alertEpochs)
        .add(r.slo.worstBurn);
    return d;
}

/** The Fig. 8/9/11 node shape: three LC apps plus one BE app. */
std::vector<cluster::ColocatedApp>
threeLcNode(apps::AppProfile primary, double load,
            apps::AppProfile a, apps::AppProfile b, double fixed,
            apps::AppProfile be_app)
{
    return {lcAt(std::move(primary), load), lcAt(std::move(a), fixed),
            lcAt(std::move(b), fixed), be(std::move(be_app))};
}

/** Fig. 12's node: six LC apps and two BE apps. */
std::vector<cluster::ColocatedApp>
eightAppNode(double load)
{
    return {lcAt(apps::moses(), load),    lcAt(apps::xapian(), load),
            lcAt(apps::imgDnn(), load),   lcAt(apps::sphinx(), load),
            lcAt(apps::masstree(), load), lcAt(apps::silo(), load),
            be(apps::fluidanimate()),     be(apps::streamcluster())};
}

struct Colocation
{
    std::string name;
    std::vector<cluster::ColocatedApp> apps;
};

/**
 * node_sweep's colocations: the Fig. 8/9/11 nodes at low, middle and
 * high primary load on both of the figures' secondary loads, Fig.
 * 12's node, and one node overloaded to a seeded 1.2-1.5x max load.
 * The seed also sets every run's noise stream. The loads stay fixed
 * so that every seed carries the same mix of cheap and expensive
 * runs, and there are few enough of them that each op is timed
 * often in one run.
 */
std::vector<Colocation>
sweepColocations(std::uint64_t seed)
{
    struct Figure
    {
        const char *name;
        apps::AppProfile (*primary)();
        apps::AppProfile (*a)();
        apps::AppProfile (*b)();
        apps::AppProfile (*be)();
    };
    const Figure figures[] = {
        {"fig08", apps::xapian, apps::moses, apps::imgDnn,
         apps::fluidanimate},
        {"fig09", apps::xapian, apps::moses, apps::imgDnn, apps::stream},
        {"fig11", apps::imgDnn, apps::moses, apps::sphinx, apps::stream},
    };
    // Fig. 12's node first: its runs are the longest, and the pool
    // claims ops in order, so they start before the short ones.
    std::vector<Colocation> out{{"fig12", eightAppNode(0.2)}};
    for (const auto &f : figures) {
        for (const double fixed : {0.2, 0.4}) {
            for (const double load : {0.1, 0.5, 0.9}) {
                out.push_back({f.name, threeLcNode(f.primary(), load,
                                                   f.a(), f.b(), fixed,
                                                   f.be())});
            }
        }
    }
    stats::Rng rng(derive(seed, 1));
    out.push_back({"overload", {lcAt(apps::xapian(),
                                     rng.uniform(1.2, 1.5)),
                                be(apps::stream())}});
    return out;
}

// ---- node_sweep -------------------------------------------------

struct SweepOp
{
    std::size_t coloc = 0;
    std::string strategy;
    std::unique_ptr<sched::Scheduler> plain;
    std::unique_ptr<TimedScheduler> timed;
};

struct SweepState
{
    std::unique_ptr<exec::ThreadPool> pool;
    std::vector<std::unique_ptr<cluster::EpochSimulator>> sims;
    std::vector<std::unique_ptr<cluster::EpochSimulator>> tracedSims;
    std::vector<SweepOp> ops;
    std::vector<std::string> names; ///< per colocation
    double nodeSeconds = 0.0;
    int nodes = 0;
};

std::unique_ptr<SweepState>
buildSweep(const Options &o, obs::SpanProfiler *prof)
{
    auto st = std::make_unique<SweepState>();
    st->pool = std::make_unique<exec::ThreadPool>(hostThreads());
    const int epochs = o.tiny ? 300 : 3600;
    auto colocs = sweepColocations(o.seed);
    for (std::size_t c = 0; c < colocs.size(); ++c) {
        std::unique_ptr<cluster::Node> node;
        st->nodeSeconds += timeCall([&] {
            node = std::make_unique<cluster::Node>(
                machine::MachineConfig::xeonE52630v4(),
                std::move(colocs[c].apps));
        });
        ++st->nodes;
        st->names.push_back(colocs[c].name);
        auto cfg = simConfig(derive(o.seed, 100 + c), epochs);
        cfg.keepEpochs = false;
        st->sims.push_back(
            std::make_unique<cluster::EpochSimulator>(*node, cfg));
        if (prof != nullptr) {
            cfg.obs.prof = prof;
            st->tracedSims.push_back(
                std::make_unique<cluster::EpochSimulator>(*node, cfg));
        }
        for (const auto &name : sched::allStrategyNames()) {
            SweepOp op;
            op.coloc = c;
            op.strategy = name;
            op.plain = sched::makeScheduler(name);
            if (prof != nullptr)
                op.timed = std::make_unique<TimedScheduler>(
                    sched::makeScheduler(name));
            st->ops.push_back(std::move(op));
        }
    }
    return st;
}

void
nodeSweep(const Options &o, Report &rep, Checks &checks)
{
    obs::SpanProfiler prof;
    obs::SpanProfiler *const p = o.traced ? &prof : nullptr;
    std::unique_ptr<SweepState> st;
    const auto setup = [&] {
        st.reset();
        return timeCall([&] { st = buildSweep(o, p); });
    };

    Repeats repeats;
    Timed plain, traced;
    std::vector<cluster::SimulationResult> results;
    std::vector<double> seconds;
    const double setup_s = timeRounds(
        o, plain, traced, 5, setup, [&](int r, bool inst, Timed &t) {
        const std::size_t n = st->ops.size();
        results.assign(n, {});
        seconds.assign(n, 0.0);
        // Each op owns its scheduler; the simulators are const and
        // keep their per-run state local, so ops run concurrently.
        exec::parallelFor(*st->pool, n, [&](std::size_t i) {
            auto &op = st->ops[i];
            const auto &sim = inst ? *st->tracedSims[op.coloc]
                                   : *st->sims[op.coloc];
            sched::Scheduler &s = inst
                ? static_cast<sched::Scheduler &>(*op.timed)
                : *op.plain;
            seconds[i] = timeCall([&] { results[i] = sim.run(s); });
        });
        for (std::size_t i = 0; i < n; ++i) {
            const auto &op = st->ops[i];
            auto &res = results[i];
            t.ops.add(seconds[i]);
            maybeCorrupt(o, r, i, res.meanES);
            Digest d;
            d.add(op.strategy).add(static_cast<long long>(op.coloc));
            addRun(d, res);
            checks.op(inUnit(res.meanES) && repeats.same(i, d),
                      "node_sweep " + op.strategy + " on " +
                          st->names[op.coloc] + " #" +
                          std::to_string(op.coloc));
        }
    });
    rep.digest(repeats.digest());

    const double epochs_per_op =
        st->sims.front()->config().durationSeconds /
        st->sims.front()->config().epochSeconds;
    const double node_epochs_per_round =
        epochs_per_op * static_cast<double>(st->ops.size());
    if (!o.traced) {
        reportEndToEnd(rep, setup_s, plain, node_epochs_per_round);
        return;
    }

    // Replay pass: every op once more with its epochs kept; the
    // records must reproduce the op's results and replay bit for bit.
    ReplayResult total;
    for (std::size_t i = 0; i < st->ops.size(); ++i) {
        const auto &op = st->ops[i];
        auto cfg = st->sims[op.coloc]->config();
        cfg.keepEpochs = true;
        const cluster::EpochSimulator sim(st->sims[op.coloc]->node(),
                                          cfg);
        const auto s = sched::makeScheduler(op.strategy);
        const auto res = sim.run(*s);
        Digest d;
        d.add(op.strategy).add(static_cast<long long>(op.coloc));
        addRun(d, res);
        const auto r = replayEpochs(sim, res, s->corePolicy());
        checks.op(repeats.same(i, d) && r.matches,
                  "node_sweep replay of " + op.strategy + " on " +
                      st->names[op.coloc] + " #" +
                      std::to_string(op.coloc));
        total.evals += r.evals;
        total.memoHits += r.memoHits;
        total.memoLookups += r.memoLookups;
        total.modelSeconds += r.modelSeconds;
        total.entropyCalls += r.entropyCalls;
        total.entropySeconds += r.entropySeconds;
    }

    std::vector<TimedScheduler *> scheds;
    for (auto &op : st->ops)
        scheds.push_back(op.timed.get());
    reportSched(rep, scheds, prof, traced.rounds);
    reportReplay(rep, total);
    reportCommonLayers(rep, prof, plain, traced, hostThreads());
    rep.metric("cluster.node_setup_us",
               ratio(st->nodeSeconds * 1e6, st->nodes), "us");
}

// ---- fleet_10k --------------------------------------------------

struct FleetState
{
    std::unique_ptr<trace::FleetLoadGenerator> gen;
    cluster::Fleet fleet;
    std::vector<TimedScheduler *> timed;
    double materializeSeconds = 0.0;
    double nodeSeconds = 0.0;
};

trace::FleetLoadConfig
fleetLoad(const Options &o, int nodes)
{
    trace::FleetLoadConfig lc;
    lc.numNodes = nodes;
    lc.lcPerNode = 2;
    lc.bePerNode = 1;
    lc.numTenants = 64;
    lc.zipfSkew = 1.1;
    lc.seed = derive(o.seed, 2);
    return lc;
}

std::unique_ptr<FleetState>
buildFleet(const trace::FleetLoadConfig &lc, int nodes, bool timed)
{
    auto st = std::make_unique<FleetState>();
    const auto mc = machine::MachineConfig::xeonE52630v4();
    st->materializeSeconds += timeCall([&] {
        st->gen = std::make_unique<trace::FleetLoadGenerator>(lc);
    });
    for (int n = 0; n < nodes; ++n) {
        std::vector<cluster::ColocatedApp> apps;
        st->materializeSeconds += timeCall(
            [&] { apps = cluster::fleetNodeApps(*st->gen, n); });
        std::unique_ptr<cluster::Node> node;
        st->nodeSeconds += timeCall([&] {
            node = std::make_unique<cluster::Node>(mc, std::move(apps));
        });
        std::unique_ptr<sched::Scheduler> s = sched::makeScheduler("ARQ");
        if (timed) {
            auto w = std::make_unique<TimedScheduler>(std::move(s));
            st->timed.push_back(w.get());
            s = std::move(w);
        }
        st->fleet.addNode(std::move(*node), std::move(s));
    }
    return st;
}

Digest
fleetDigest(const cluster::Fleet::FleetResult &r)
{
    Digest d;
    d.add(r.eS).add(r.eLc).add(r.eBe).add(r.yieldValue)
        .add(static_cast<long long>(r.violations));
    for (const auto &n : r.nodes)
        d.add(n.meanES).add(static_cast<long long>(n.violations));
    return d;
}

bool
fleetValid(const cluster::Fleet::FleetResult &r, int nodes)
{
    bool ok = inUnit(r.eS) &&
        static_cast<int>(r.nodes.size()) == nodes;
    for (const auto &n : r.nodes)
        ok = ok && inUnit(n.meanES) && n.epochs.empty();
    return ok;
}

void
fleet10k(const Options &o, Report &rep, Checks &checks)
{
    const int nodes = o.tiny ? 256 : 10000;
    const int threads = hostThreads();
    const auto lc = fleetLoad(o, nodes);
    auto cfg = simConfig(derive(o.seed, 3), 60);
    cfg.warmupEpochs = 10;
    cfg.keepEpochs = false;

    // Set-up is the generator, the nodes with their curve tables,
    // the schedulers and the pool; the previous copy is freed first
    // so peak memory holds one fleet.
    std::unique_ptr<FleetState> st;
    std::unique_ptr<exec::ThreadPool> pool;
    const auto setup = [&] {
        st.reset();
        pool.reset();
        return timeCall([&] {
            st = buildFleet(lc, nodes, false);
            pool = std::make_unique<exec::ThreadPool>(threads);
        });
    };

    obs::SpanProfiler prof;
    std::unique_ptr<FleetState> timed;
    auto traced_cfg = cfg;
    if (o.traced) {
        timed = buildFleet(lc, nodes, true);
        traced_cfg.obs.prof = &prof;
    }

    Repeats repeats;
    Timed plain, traced;
    const double setup_s = timeRounds(
        o, plain, traced, 1, setup, [&](int r, bool inst, Timed &t) {
        cluster::Fleet::FleetResult res;
        t.op([&] {
            res = inst ? timed->fleet.run(traced_cfg, pool.get())
                       : st->fleet.run(cfg, pool.get());
        });
        maybeCorrupt(o, r, 0, res.eS);
        checks.op(fleetValid(res, nodes) &&
                      repeats.same(0, fleetDigest(res)),
                  "fleet_10k run " + std::to_string(r));
    });
    rep.digest(repeats.digest());

    // A 256-node shard gives bitwise the same pooled E_S on one
    // thread as on every thread of the host.
    {
        const int shard = std::min(nodes, 256);
        auto one = buildFleet(lc, shard, false);
        auto all = buildFleet(lc, shard, false);
        exec::ThreadPool serial(1);
        const auto a = one->fleet.run(cfg, &serial);
        const auto b = all->fleet.run(cfg, pool.get());
        checks.op(sameBits(a.eS, b.eS) &&
                      fleetDigest(a).value() == fleetDigest(b).value(),
                  "fleet_10k shard E_S differs between 1 and " +
                      std::to_string(threads) + " threads");
    }

    if (!o.traced) {
        reportEndToEnd(rep, setup_s, plain, 60.0 * nodes);
        return;
    }
    reportSched(rep, timed->timed, prof, traced.rounds);
    reportCommonLayers(rep, prof, plain, traced, threads);
    rep.metric("cluster.node_setup_us",
               ratio(st->nodeSeconds * 1e6, nodes), "us");
    rep.metric("trace.materialize_us_per_node",
               ratio(st->materializeSeconds * 1e6, nodes), "us");
}

// ---- observe_fold -----------------------------------------------

/** Read-only istream over a string's bytes (no copy). */
class StringBuf : public std::streambuf
{
  public:
    explicit StringBuf(const std::string &s)
    {
        char *p = const_cast<char *>(s.data());
        setg(p, p, p + s.size());
    }
};

/** What the read side recovers from one op's trace. */
struct Folded
{
    obs::AttributionLedger ledger;
    std::map<std::string, double> rSum; ///< per victim, from r_i
    bool sharesSumToR = true;
    long long raises = 0;
    long long clears = 0;
    std::vector<std::pair<int, double>> epochES;
    double seriesESSum = 0.0;
    long long seriesESPoints = 0;
    std::uint64_t events = 0;
};

Folded
foldTrace(const std::string &data)
{
    Folded f;
    StringBuf buf(data);
    std::istream in(&buf);
    obs::TraceReadStats stats;
    obs::forEachTrace(
        in,
        [&](const obs::TraceEvent &ev, int) {
            const std::string type = ev.type();
            if (type == "attribution") {
                const std::string victim = ev.str("app");
                const auto culprits = ev.strs("culprits");
                const auto resources = ev.strs("resources");
                const auto shares = ev.nums("shares");
                double sum = 0.0;
                for (std::size_t i = 0; i < shares.size() &&
                     i < culprits.size() && i < resources.size();
                     ++i) {
                    f.ledger.add(victim, culprits[i], resources[i],
                                 shares[i]);
                    sum += shares[i];
                }
                const double r = ev.num("r_i");
                f.rSum[victim] += r;
                if (!(std::abs(sum - r) <= 1e-9))
                    f.sharesSumToR = false;
            } else if (type == "alert_raise") {
                ++f.raises;
            } else if (type == "alert_clear") {
                ++f.clears;
            } else if (type == "epoch") {
                f.epochES.emplace_back(static_cast<int>(ev.num("epoch")),
                                       ev.num("e_s"));
            } else if (type == "series" && ev.str("series") == "e_s") {
                for (double v : ev.nums("sum"))
                    f.seriesESSum += v;
                for (double v : ev.nums("n"))
                    f.seriesESPoints += static_cast<long long>(v);
            }
        },
        &stats);
    f.events = stats.events;
    return f;
}

/** The folded trace agrees with the in-memory result. */
bool
foldMatches(const Folded &f, const cluster::SimulationResult &res,
            int epochs)
{
    const auto want = res.attribution.rows();
    const auto got = f.ledger.rows();
    bool ok = f.sharesSumToR && want.size() == got.size() &&
        !want.empty();
    for (std::size_t i = 0; ok && i < want.size(); ++i)
        ok = want[i].victim == got[i].victim &&
            want[i].culprit == got[i].culprit &&
            want[i].resource == got[i].resource &&
            want[i].epochs == got[i].epochs &&
            sameBits(want[i].share, got[i].share);
    for (const auto &[victim, r] : f.rSum)
        ok = ok && std::abs(f.ledger.victimTotal(victim) - r) <= 1e-9;
    ok = ok && f.raises == res.slo.raises && f.clears == res.slo.clears;

    // The e_s series: every epoch traced, and its steady-state mean
    // re-summed in epoch order is the run's mean E_S bit for bit.
    ok = ok && static_cast<int>(f.epochES.size()) == epochs &&
        f.seriesESPoints == epochs;
    double sum = 0.0, all = 0.0;
    int steady = 0;
    for (const auto &[e, v] : f.epochES) {
        all += v;
        if (e >= res.warmupEpochs) {
            sum += v;
            ++steady;
        }
    }
    ok = ok && steady > 0 && sameBits(sum / steady, res.meanES) &&
        std::abs(all - f.seriesESSum) <= 1e-9 * std::max(1.0, all);
    return ok;
}

/**
 * One observe_fold op: a simulator tracing into a sink of its own,
 * so that ops can run concurrently (instrumented ops trace through a
 * CountingSink around the same sink).
 */
struct ObserveOp
{
    std::string tag;
    StringSink sink;
    std::unique_ptr<CountingSink> counting;
    obs::TimeSeriesRegistry series;
    std::unique_ptr<cluster::EpochSimulator> sim;
    std::unique_ptr<sched::Scheduler> plain;
    std::unique_ptr<TimedScheduler> timed;
};

/** What one op leaves for the serial checks after its round. */
struct ObserveOutcome
{
    cluster::SimulationResult res;
    Folded fold;
    double foldSeconds = 0.0;
    double traceBytes = 0.0;
};

void
observeFold(const Options &o, Report &rep, Checks &checks)
{
    const int epochs = o.tiny ? 300 : 3600;
    const int threads = hostThreads();
    obs::SpanProfiler prof;
    obs::MetricsRegistry plainMetrics, tracedMetrics;
    std::unique_ptr<exec::ThreadPool> pool;
    // [0] plain ops, [1] instrumented ops (traced runs only).
    std::vector<std::unique_ptr<ObserveOp>> ops[2];

    // Two replicas (noise streams) of each node x strategy, so that
    // the pool has more ops than threads to balance.
    const auto build = [&] {
        pool = std::make_unique<exec::ThreadPool>(threads);
        const auto mc = machine::MachineConfig::xeonE52630v4();
        const cluster::Node nodes[] = {
            cluster::Node(mc, eightAppNode(0.2)),
            cluster::Node(mc, threeLcNode(apps::xapian(), 0.5,
                                          apps::moses(), apps::imgDnn(),
                                          0.2, apps::stream()))};
        for (int mode = 0; mode < (o.traced ? 2 : 1); ++mode) {
            int k = 0;
            for (int n = 0; n < 2; ++n) {
                for (const char *s : {"ARQ", "PARTIES"}) {
                    for (int rep_i = 0; rep_i < 2; ++rep_i, ++k) {
                        auto op = std::make_unique<ObserveOp>();
                        op->tag = std::string(s) + "/n" +
                            std::to_string(n) + "/r" +
                            std::to_string(rep_i);
                        auto cfg = simConfig(derive(o.seed, 200 + k),
                                             epochs);
                        cfg.keepEpochs = false;
                        cfg.attribute = true;
                        cfg.slo = true;
                        cfg.obs.scenario = op->tag;
                        cfg.obs.series = &op->series;
                        cfg.obs.sink = &op->sink;
                        cfg.obs.metrics = &plainMetrics;
                        if (mode == 1) {
                            op->counting =
                                std::make_unique<CountingSink>(op->sink);
                            cfg.obs.sink = op->counting.get();
                            cfg.obs.metrics = &tracedMetrics;
                            cfg.obs.prof = &prof;
                            op->timed = std::make_unique<TimedScheduler>(
                                sched::makeScheduler(s));
                        } else {
                            op->plain = sched::makeScheduler(s);
                        }
                        op->sim = std::make_unique<cluster::EpochSimulator>(
                            nodes[n], cfg);
                        ops[mode].push_back(std::move(op));
                    }
                }
            }
        }
    };
    const auto setup = [&] {
        ops[0].clear();
        ops[1].clear();
        pool.reset();
        return timeCall(build);
    };

    Repeats repeats;
    Timed plain, traced;
    std::vector<ObserveOutcome> out;
    double fold_seconds = 0.0, trace_bytes = 0.0, fold_events = 0.0;
    const double setup_s = timeRounds(
        o, plain, traced, 5, setup, [&](int r, bool inst, Timed &t) {
        auto &round_ops = ops[inst ? 1 : 0];
        const std::size_t n = round_ops.size();
        out.assign(n, {});
        std::vector<double> seconds(n, 0.0);
        exec::parallelFor(*pool, n, [&](std::size_t i) {
            ObserveOp &op = *round_ops[i];
            sched::Scheduler &s = inst
                ? static_cast<sched::Scheduler &>(*op.timed)
                : *op.plain;
            ObserveOutcome &oc = out[i];
            seconds[i] = timeCall([&] {
                op.series.clear();
                oc.res = op.sim->run(s);
                op.series.flush(op.sim->config().obs);
                oc.foldSeconds = timeCall(
                    [&] { oc.fold = foldTrace(op.sink.data()); });
            });
            oc.traceBytes = static_cast<double>(op.sink.data().size());
            op.sink.release();
        });
        for (std::size_t i = 0; i < n; ++i) {
            ObserveOutcome &oc = out[i];
            t.ops.add(seconds[i]);
            if (!inst) {
                fold_seconds += oc.foldSeconds;
                trace_bytes += oc.traceBytes;
                fold_events += static_cast<double>(oc.fold.events);
            }
            maybeCorrupt(o, r, i, oc.res.meanES);
            Digest d;
            d.add(round_ops[i]->tag);
            addRun(d, oc.res);
            checks.op(inUnit(oc.res.meanES) && repeats.same(i, d) &&
                          foldMatches(oc.fold, oc.res, epochs),
                      "observe_fold " + round_ops[i]->tag + " round " +
                          std::to_string(r));
        }
    });
    rep.digest(repeats.digest());

    const double node_epochs_per_round =
        static_cast<double>(ops[0].size()) * epochs;
    if (!o.traced) {
        reportEndToEnd(rep, setup_s, plain, node_epochs_per_round);
        rep.info("trace_bytes_per_node_epoch",
                 trace_bytes / plain.rounds / node_epochs_per_round, "B");
        rep.info("fold_mb_per_s", ratio(trace_bytes / 1e6, fold_seconds),
                 "MB/s");
        return;
    }

    std::vector<TimedScheduler *> scheds;
    CountingSink::Tally total;
    std::map<std::string, CountingSink::Tally, std::less<>> by_type;
    double write_ns = 0.0;
    for (auto &op : ops[1]) {
        scheds.push_back(op->timed.get());
        total.lines += op->counting->lines;
        total.bytes += op->counting->bytes;
        write_ns += static_cast<double>(op->counting->writeNs);
        for (const auto &[type, tally] : op->counting->byType) {
            by_type[type].lines += tally.lines;
            by_type[type].bytes += tally.bytes;
        }
    }
    reportSched(rep, scheds, prof, traced.rounds);
    reportCommonLayers(rep, prof, plain, traced, threads);

    const double tr = traced.rounds;
    const EpochSplit split = EpochSplit::of(prof);
    rep.metric("obs.attribute_share",
               ratio(static_cast<double>(split.attributeNs),
                     static_cast<double>(split.epochNs)),
               "ratio");
    rep.metric("obs.trace_bytes", total.bytes / tr, "B");
    rep.metric("obs.trace_lines", total.lines / tr, "count");
    static const char *const kTypes[] = {
        "attribution",      "epoch",       "arq_decision",
        "parties_decision", "series",      "alert_raise",
        "alert_clear"};
    double other_bytes = static_cast<double>(total.bytes);
    double other_lines = static_cast<double>(total.lines);
    for (const char *type : kTypes) {
        const auto it = by_type.find(std::string_view(type));
        const CountingSink::Tally tally =
            it == by_type.end() ? CountingSink::Tally{} : it->second;
        rep.metric(std::string("obs.bytes.") + type, tally.bytes / tr,
                   "B");
        rep.metric(std::string("obs.lines.") + type, tally.lines / tr,
                   "count");
        other_bytes -= static_cast<double>(tally.bytes);
        other_lines -= static_cast<double>(tally.lines);
    }
    rep.metric("obs.bytes.other", other_bytes / tr, "B");
    rep.metric("obs.lines.other", other_lines / tr, "count");
    rep.metric("obs.sink_ns_per_line",
               ratio(write_ns, static_cast<double>(total.lines)), "ns");
    const double evals = tracedMetrics.counter("attr.evals");
    const double attributed = tracedMetrics.counter("attr.epochs");
    rep.metric("obs.attr_evals", evals / tr, "count");
    rep.metric("obs.attr_epochs", attributed / tr, "count");
    rep.metric("obs.attr_evals_per_attributed_epoch",
               ratio(evals, attributed), "count");
    rep.metric("obs.ts_points", tracedMetrics.counter("ts.points") / tr,
               "count");
    rep.metric("obs.trace_bytes_per_node_epoch",
               ratio(total.bytes / tr, node_epochs_per_round), "B");
    rep.metric("obs.fold_ns_per_event",
               ratio(fold_seconds * 1e9, fold_events), "ns");
    rep.metric("obs.fold_mb_per_s",
               ratio(trace_bytes / 1e6, fold_seconds), "MB/s");
}

// ---- ab_switchback ----------------------------------------------

Digest
experimentDigest(const experiment::ExperimentResult &r)
{
    Digest d;
    d.add(static_cast<long long>(r.verdict))
        .add(static_cast<long long>(r.policySwaps));
    const auto &e = r.estimates;
    for (const auto *m : {&e.es, &e.p95Ms, &e.violations}) {
        for (const auto *ci : {&m->naive, &m->dq, &m->mixed})
            d.add(ci->estimate).add(ci->lo).add(ci->hi);
        d.add(m->alpha);
    }
    d.add(static_cast<long long>(e.blocksA))
        .add(static_cast<long long>(e.blocksB));
    for (const auto &b : r.blocks)
        d.add(b.meanES).add(b.meanP95Ms).add(b.violRate);
    return d;
}

void
abSwitchback(const Options &o, Report &rep, Checks &checks)
{
    const int threads = hostThreads();
    experiment::ExperimentRunConfig cfg;
    cfg.design.kind = experiment::DesignKind::Switchback;
    cfg.design.armA = "ARQ";
    cfg.design.armB = "Unmanaged";
    cfg.design.numNodes = o.tiny ? 16 : 200;
    cfg.design.blocksPerNode = 8;
    cfg.design.blockEpochs = 20;
    cfg.design.seed = derive(o.seed, 5);
    cfg.estimator.resamples = o.tiny ? 100 : 800;
    cfg.estimator.seed = derive(o.seed, 6);
    cfg.base = simConfig(derive(o.seed, 7), 1);
    cfg.load.seed = derive(o.seed, 8);
    cfg.load.numNodes = cfg.design.numNodes;

    // Set-up: the pool plus the experiment fleet's generator and
    // nodes, built the way runExperiment builds them.
    std::unique_ptr<exec::ThreadPool> pool;
    const auto setup = [&] {
        pool.reset();
        return timeCall([&] {
            pool = std::make_unique<exec::ThreadPool>(threads);
            const trace::FleetLoadGenerator gen(cfg.load);
            for (int n = 0; n < cfg.design.numNodes; ++n)
                const cluster::Node node(cfg.machine,
                                         cluster::fleetNodeApps(gen, n));
        });
    };

    obs::SpanProfiler prof;
    obs::MetricsRegistry metrics;
    auto traced_cfg = cfg;
    traced_cfg.base.obs.prof = &prof;
    traced_cfg.base.obs.metrics = &metrics;
    const long long want_blocks = static_cast<long long>(
        cfg.design.numNodes) * cfg.design.blocksPerNode;

    Repeats repeats;
    Timed plain, traced;
    std::vector<double> estimate_s;
    const double setup_s = timeRounds(
        o, plain, traced, 5, setup, [&](int r, bool inst, Timed &t) {
        experiment::ExperimentResult res;
        t.op([&] {
            res = experiment::runExperiment(inst ? traced_cfg : cfg,
                                            pool.get());
        });
        maybeCorrupt(o, r, 0, res.estimates.es.mixed.estimate);
        bool ok = static_cast<long long>(res.blocks.size()) ==
            want_blocks;
        for (const auto &b : res.blocks)
            ok = ok && inUnit(b.meanES);
        checks.op(ok && repeats.same(0, experimentDigest(res)),
                  "ab_switchback experiment " + std::to_string(r));
        if (inst) {
            // The estimators alone, called again on the same blocks,
            // must give the experiment's estimates.
            experiment::ExperimentResult again = res;
            estimate_s.push_back(timeCall([&] {
                again.estimates =
                    experiment::estimate(res.blocks, cfg.estimator);
            }));
            checks.op(experimentDigest(again).value() ==
                          experimentDigest(res).value(),
                      "ab_switchback estimates differ on re-estimation");
        }
    });
    rep.digest(repeats.digest());

    const double node_epochs =
        static_cast<double>(cfg.design.numNodes) *
        cfg.design.epochsPerNode();
    if (!o.traced) {
        reportEndToEnd(rep, setup_s, plain, node_epochs);
        rep.info("verdict_s", plain.ops.p50Ms() / 1e3, "s");
        return;
    }
    reportCommonLayers(rep, prof, plain, traced, threads);
    const double tr = traced.rounds;
    rep.metric("experiment.policy_swaps",
               metrics.counter("experiment.policy_swaps") / tr, "count");
    rep.metric("experiment.blocks",
               metrics.counter("experiment.blocks") / tr, "count");
    rep.metric("experiment.estimate_ms",
               quantile(estimate_s, 0.5) * 1e3, "ms");
    // The calling thread works alongside the pool's workers.
    rep.metric("experiment.sim_share",
               ratio(static_cast<double>(EpochSplit::of(prof).runNs),
                     traced.ops.seconds * 1e9 * (threads + 1)),
               "ratio");
}

} // namespace

WorkloadFn
findWorkload(const std::string &name)
{
    if (name == "node_sweep")
        return nodeSweep;
    if (name == "fleet_10k")
        return fleet10k;
    if (name == "observe_fold")
        return observeFold;
    if (name == "ab_switchback")
        return abSwitchback;
    return nullptr;
}

} // namespace ahq::perfbench
