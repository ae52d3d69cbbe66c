/**
 * @file
 * Epoch simulator implementation: the epoch kernel.
 *
 * Every epoch runs the same named steps, in the order the paper's
 * controller does (see DESIGN.md, "The epoch kernel"):
 *
 *   decide -> actuate -> model -> queue/measure -> entropy ->
 *   observe -> aggregate
 *
 * Each opt-in concern (series, attribution, SLO alerting) is a
 * small per-run component held in std::optional and called
 * directly; off, it costs one branch per epoch.
 */

#include "cluster/epoch_sim.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>

#include "check/auditor.hh"
#include "fault/injector.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "stats/rng.hh"

namespace ahq::cluster
{

using machine::AppId;
using machine::ResourceKind;

namespace
{

/**
 * Load cap for fault-injected spikes: a spike may push an LC app to
 * the brink of saturation but not beyond it (load generators are
 * closed-loop), and never below its unspiked load when increasing.
 */
constexpr double kSpikeLoadCap = 0.95;

/** The per-epoch draw on the run's trace-sampling split. */
bool
sampledFrom(const stats::Rng &base, int epoch, double rate)
{
    // +1 keeps epoch 0 off the parent's 0 stream (split(0) would
    // alias the convention other subsystems use for "first child").
    stats::Rng r = base.split(static_cast<std::uint64_t>(epoch) + 1);
    return r.uniform() < rate;
}

/** Offered load under an injected spike factor `f`. */
double
spikedLoad(double load, double f)
{
    if (f == 1.0)
        return load;
    const double spiked = load * f;
    return spiked > load
        ? std::min(spiked, std::max(load, kSpikeLoadCap))
        : std::max(spiked, 0.0);
}

const std::string &
appName(const Node &node, AppId id)
{
    static const std::string noise = obs::kNoiseCulpritName;
    return id == obs::kNoiseCulprit ? noise : node.profile(id).name;
}

/**
 * Time-series recording (cfg.obs.series). Every handle is resolved
 * once up front — std::map references are stable, so the per-epoch
 * recording is lock-free and allocation-free.
 */
class SeriesRecorder
{
  public:
    SeriesRecorder(obs::TimeSeriesRegistry &tsr, const std::string &tag,
                   const Node &node)
    {
        auto h = [&](const std::string &name) {
            return &tsr.handle(tag, name);
        };
        eS_ = h("e_s");
        eLc_ = h("e_lc");
        eBe_ = h("e_be");
        violations_ = h("violations");
        faults_ = h("faults");
        const auto n = static_cast<std::size_t>(node.numApps());
        for (auto *v : {&p95_, &ret_, &queue_, &ipc_, &cores_, &ways_})
            v->assign(n, nullptr);
        for (std::size_t i = 0; i < n; ++i) {
            const auto &prof = node.profile(static_cast<AppId>(i));
            const std::string suffix =
                "." + std::to_string(i) + "." + prof.name;
            cores_[i] = h("cores" + suffix);
            ways_[i] = h("ways" + suffix);
            if (prof.latencyCritical) {
                p95_[i] = h("p95" + suffix);
                ret_[i] = h("ret" + suffix);
                queue_[i] = h("queue" + suffix);
            } else {
                ipc_[i] = h("ipc" + suffix);
            }
        }
    }

    /** One epoch; cores/ways/backlog hold this epoch's values. */
    void record(int e, const EpochRecord &rec,
                const std::vector<int> &cores,
                const std::vector<int> &ways,
                const std::vector<double> &backlog, int dropped)
    {
        eS_->record(e, rec.entropy.eS);
        eLc_->record(e, rec.entropy.eLc);
        eBe_->record(e, rec.entropy.eBe);
        std::size_t lc_j = 0;
        int violations = 0;
        for (std::size_t i = 0; i < rec.obs.size(); ++i) {
            const auto &o = rec.obs[i];
            cores_[i]->record(e, cores[i]);
            ways_[i]->record(e, ways[i]);
            if (!o.latencyCritical) {
                ipc_[i]->record(e, o.ipc);
                continue;
            }
            p95_[i]->record(e, o.p95Ms);
            queue_[i]->record(e, backlog[i]);
            if (lc_j < rec.entropy.lcDetail.size()) {
                ret_[i]->record(
                    e, rec.entropy.lcDetail[lc_j].remainingTolerance);
            }
            ++lc_j;
            if (!core::meetsQos(o.p95Ms, o.thresholdMs))
                ++violations;
        }
        violations_->record(e, violations);
        faults_->record(e, dropped);
    }

  private:
    obs::TimeSeries *eS_, *eLc_, *eBe_, *violations_, *faults_;
    std::vector<obs::TimeSeries *> p95_, ret_, queue_, ipc_, cores_,
        ways_;
};

/**
 * Counterfactual interference attribution (cfg.attribute): the
 * ledger rows and the `attribution` events. The attributor owns its
 * own contention model — the kernel's instance keeps mutable
 * scratch, so sharing it would be unsafe.
 *
 * Shares accumulate per run in a dense (victim, culprit, resource)
 * array indexed by app name, in epoch order, and fold into the
 * run's ledger once at the end: each cell sees the same additions
 * in the same order as a per-epoch ledger add would, so the sums
 * are bitwise equal, without building key strings every epoch.
 */
class AttributionStep
{
  public:
    AttributionStep(const Node &node, const perf::ContentionTraits &traits)
        : node_(node), attributor_(node.config(), traits)
    {
        // Ledger rows are keyed by name, so apps sharing a name
        // share a cell. Slot numApps() is the noise pseudo-culprit.
        const AppId n = node.numApps();
        for (AppId i = 0; i <= n; ++i) {
            const std::string &name =
                appName(node, i == n ? obs::kNoiseCulprit : i);
            const auto it = std::find(names_.begin(), names_.end(), name);
            slotOf_.push_back(
                static_cast<std::size_t>(it - names_.begin()));
            if (it == names_.end())
                names_.push_back(name);
        }
        cells_.resize(names_.size() * names_.size() * kResources);
    }

    /** Attribute one epoch's measured interference. */
    void attribute(int e, const machine::RegionLayout &layout,
                   const std::vector<perf::AppDemand> &demands,
                   perf::CoreSharePolicy policy, const EpochRecord &rec,
                   bool traced, const obs::Scope &scope)
    {
        obs::Span span(scope, "attribute");
        attributor_.attribute(layout, demands, policy, rec.outcomes,
                              node_.lcApps(), rec.entropy.lcDetail,
                              shares_);
        for (const obs::AttributionShare &sh : shares_) {
            Cell &cell = cells_[(slot(sh.victim) * names_.size() +
                                 slot(sh.culprit)) * kResources +
                                static_cast<std::size_t>(sh.resource)];
            cell.share += sh.share;
            cell.epochs += 1;
        }
        // Shares arrive grouped by victim.
        if (traced) {
            std::size_t s = 0;
            while (s < shares_.size()) {
                std::size_t end = s;
                while (end < shares_.size() &&
                       shares_[end].victim == shares_[s].victim)
                    ++end;
                emit(e, s, end, rec, scope);
                s = end;
            }
        }
        scope.count("attr.epochs");
    }

    /** Fold the run's accumulated cells into its ledger. */
    void foldInto(obs::AttributionLedger &ledger) const
    {
        const std::size_t u = names_.size();
        for (std::size_t k = 0; k < cells_.size(); ++k) {
            const Cell &cell = cells_[k];
            if (cell.epochs == 0)
                continue;
            ledger.add(names_[k / kResources / u],
                       names_[k / kResources % u],
                       obs::interferenceResourceName(
                           static_cast<obs::InterferenceResource>(
                               k % kResources)),
                       cell.share, cell.epochs);
        }
    }

    long long evaluations() const { return attributor_.evaluations(); }

  private:
    static constexpr std::size_t kResources = 4;

    struct Cell
    {
        double share = 0.0;
        long long epochs = 0;
    };

    const Node &node_;
    obs::InterferenceAttributor attributor_;
    std::vector<obs::AttributionShare> shares_;

    /** Distinct app names, and each app's (then noise's) index. */
    std::vector<std::string_view> names_;
    std::vector<std::size_t> slotOf_;
    std::vector<Cell> cells_;

    /** Event buffers, reused across events. */
    std::vector<std::string> culprits_, resources_;
    std::vector<double> eventShares_;

    std::size_t slot(AppId id) const
    {
        return id == obs::kNoiseCulprit
            ? slotOf_.back()
            : slotOf_[static_cast<std::size_t>(id)];
    }

    /** One `attribution` event for the victim of shares_[s, end). */
    void emit(int e, std::size_t s, std::size_t end,
              const EpochRecord &rec, const obs::Scope &scope)
    {
        const AppId victim = shares_[s].victim;
        culprits_.clear();
        resources_.clear();
        eventShares_.clear();
        for (std::size_t k = s; k < end; ++k) {
            culprits_.emplace_back(appName(node_, shares_[k].culprit));
            resources_.emplace_back(
                obs::interferenceResourceName(shares_[k].resource));
            eventShares_.push_back(shares_[k].share);
        }
        // entropy.lcDetail follows the node's LC order.
        const auto &lc_apps = node_.lcApps();
        const auto lc = static_cast<std::size_t>(
            std::find(lc_apps.begin(), lc_apps.end(), victim) -
            lc_apps.begin());
        obs::Event ev("attribution");
        ev.str("app", node_.profile(victim).name)
            .num("r_i", rec.entropy.lcDetail[lc].interference)
            .strs("culprits", culprits_)
            .strs("resources", resources_)
            .nums("shares", eventShares_);
        scope.atEpoch(e).emit(ev);
    }
};

/**
 * One run's state and its named per-epoch steps. Everything here is
 * per-run local, so concurrent ScenarioRunner workers never share
 * any of it; the buffers are reused across all epochs of the run.
 */
class EpochKernel
{
  public:
    EpochKernel(const Node &node, const SimulationConfig &cfg,
                sched::Scheduler *const *arms,
                const PolicySchedule &schedule)
        : node_(node), cfg_(cfg), arms_(arms), schedule_(schedule),
          n_(node.numApps()),
          epochs_(static_cast<int>(
              std::round(cfg.durationSeconds / cfg.epochSeconds))),
          rng_(cfg.seed), contention_(node.config(), cfg.contention),
          curArm_(schedule.armAt(0)),
          cur_(arms[static_cast<std::size_t>(curArm_)]),
          tracing_(cfg.obs.tracing()),
          // Head-based sampling: decided once at each epoch's head,
          // gating every trace event of that epoch. run_start/
          // run_end, auditor violations, alerts, metrics and series
          // are never sampled.
          sampling_(tracing_ && cfg.traceSampleRate < 1.0),
          sampleBase_(stats::Rng(cfg.seed).split(kTraceSampleStream)),
          staticObs_(node.staticObservations()),
          auditor_(cfg.checkMode, cfg.obs)
    {
        cur_->reset();
        // Always (re)attach the run's scope: a scheduler reused
        // across runs must not keep reporting into old sinks.
        cur_->setObsScope(cfg.obs);
        const int warmup = std::min(cfg.warmupEpochs, epochs_);
        if (tracing_) {
            obs::Event ev("run_start");
            ev.str("scheduler", cur_->name())
                .str("node", node.describe())
                .integer("epochs", epochs_)
                .num("epoch_seconds", cfg.epochSeconds)
                .integer("seed", static_cast<long long>(cfg.seed))
                .integer("warmup", warmup);
            if (sampling_)
                ev.num("trace_sample", cfg.traceSampleRate);
            cfg.obs.emit(ev);
        }
        // Scope for sampled-out epochs: sink muted, metrics and
        // profiler untouched. Built once, so the rejected->rejected
        // steady state performs no scope copies at all.
        mutedScope_ = cfg.obs;
        mutedScope_.sink = nullptr;

        layout_ = cur_->initialLayout(node.config(), staticObs_);
        assert(layout_.valid());
        if (auditor_.enabled())
            auditor_.beginRun(layout_, 0.0);
        // The injector's RNG stream is split off the run seed, so
        // fault draws never perturb the measurement noise stream.
        if (cfg.faults != nullptr && cfg.faults->active())
            injector_.emplace(*cfg.faults, cfg.seed, cfg.obs);
        if (cfg.attribute)
            attribution_.emplace(node, cfg.contention);
        if (cfg.slo)
            slo_.emplace(n_, cfg.sloTraits);
        if (cfg.obs.series != nullptr)
            series_.emplace(*cfg.obs.series, cfg.obs.scenario, node);

        const auto un = static_cast<std::size_t>(n_);
        backlog_.assign(un, 0.0);
        prevWays_.assign(un, -1);
        prevCores_.assign(un, -1);
        result_.warmupEpochs = warmup;
        if (cfg.keepEpochs)
            result_.epochs.reserve(static_cast<std::size_t>(epochs_));
        result_.meanP95Ms.assign(un, 0.0);
        result_.meanIpc.assign(un, 0.0);
        result_.steadyMeanLoad.assign(un, 0.0);
    }

    /** Every epoch, then the run's totals. */
    SimulationResult run()
    {
        for (int e = 0; e < epochs_; ++e)
            step(e);
        finish();
        return std::move(result_);
    }

  private:
    const Node &node_;
    const SimulationConfig &cfg_;
    sched::Scheduler *const *arms_;
    const PolicySchedule &schedule_;
    const int n_;
    const int epochs_;

    stats::Rng rng_;
    perf::ContentionModel contention_;

    /** The arm in force and its scheduler. */
    int curArm_;
    sched::Scheduler *cur_;

    const bool tracing_;
    const bool sampling_;
    const stats::Rng sampleBase_;
    obs::Scope mutedScope_;
    bool prevTraced_ = true;

    const std::vector<sched::AppObservation> staticObs_;
    machine::RegionLayout layout_{machine::ResourceVector{}};
    /** Pre-decision layout, kept only for the auditor/injector. */
    machine::RegionLayout before_{machine::ResourceVector{}};

    check::InvariantAuditor auditor_;
    std::optional<fault::FaultInjector> injector_;
    std::optional<AttributionStep> attribution_;
    std::optional<obs::SloMonitor> slo_;
    std::optional<SeriesRecorder> series_;

    /**
     * Degradation carried into the next decision: whether any
     * (resp. every) app's sample was dropped last epoch. Always
     * false without an injector.
     */
    bool lastDegraded_ = false;
    bool lastAllDropped_ = false;
    int dropped_ = 0;

    std::vector<double> backlog_;
    std::vector<int> prevWays_, prevCores_;
    std::vector<sched::AppObservation> lastObs_;
    std::vector<perf::AppDemand> demands_;
    std::vector<core::LcObservation> lcObs_;
    std::vector<core::BeObservation> beObs_;

    SimulationResult result_;
    /** Post-warmup epochs summed into result_ so far. */
    int steady_ = 0;

    /** One epoch, step by step. */
    void step(int e)
    {
        const double t = e * cfg_.epochSeconds;
        obs::Span epoch_span(cfg_.obs, "epoch");
        const bool traced = tracing_ &&
            (!sampling_ ||
             sampledFrom(sampleBase_, e, cfg_.traceSampleRate));
        const bool swapped = swapArm(e, traced);
        routeTrace(e, traced, swapped);
        if (injector_)
            injector_->beginEpoch(e, t);
        // A swap epoch skips the decision: the incoming scheduler just
        // built its initial layout and has observed nothing yet
        // (the same contract as epoch 0 of a plain run).
        if (e > 0 && !swapped)
            decide(e, t);

        EpochRecord rec;
        rec.time = t;
        rec.obs = staticObs_;
        measure(e, t, rec);
        observe(e, t, rec, traced);
        if (e >= result_.warmupEpochs)
            aggregate(rec);
        keep(std::move(rec));
    }

    /**
     * Policy-swap seam: at a block boundary where the arm changes,
     * the incoming scheduler takes over the *system* state (queue
     * backlog carries; its predecessor's internal state does not)
     * and re-initialises the layout — the repartition is charged
     * through the overhead model.
     */
    bool swapArm(int e, bool traced)
    {
        const int a = schedule_.armAt(e);
        if (a == curArm_)
            return false;
        curArm_ = a;
        cur_ = arms_[static_cast<std::size_t>(a)];
        cur_->reset();
        cur_->setObsScope(tracing_ && !traced ? mutedScope_
                                              : cfg_.obs.atEpoch(e));
        layout_ = cur_->initialLayout(node_.config(), staticObs_);
        assert(layout_.valid());
        cfg_.obs.count("sim.policy_swaps");
        if (traced) {
            obs::Event ev("policy_swap");
            ev.str("scheduler", cur_->name()).integer("arm", curArm_);
            cfg_.obs.atEpoch(e).emit(ev);
        }
        return true;
    }

    /** Point the scheduler/injector sinks at this epoch's verdict. */
    void routeTrace(int e, bool traced, bool swapped)
    {
        if (!tracing_)
            return;
        if (traced) {
            cur_->setObsScope(cfg_.obs.atEpoch(e));
            if (injector_)
                injector_->setEventsEnabled(true);
        } else if (prevTraced_ || swapped) {
            // First rejected epoch after a kept one (or a swap,
            // whose fresh arm must not inherit a stale sink): mute
            // once. Later rejected epochs skip even the scope copy.
            cur_->setObsScope(mutedScope_);
            if (injector_)
                injector_->setEventsEnabled(false);
        }
        prevTraced_ = traced;
    }

    /** The scheduler reacts to last epoch's measurements. */
    void decide(int e, double t)
    {
        if (injector_ && lastAllDropped_) {
            // Every input sample was dropped: no scheduler can act
            // on pure staleness, so the interval is skipped.
            cfg_.obs.count("fault.decision_skipped");
            return;
        }
        if (auditor_.enabled() || injector_)
            before_ = layout_;
        {
            obs::Span span(cfg_.obs, "decide");
            cur_->adjust(layout_, lastObs_, t);
        }
        if (auditor_.enabled()) {
            obs::Span span(cfg_.obs, "audit");
            auditor_.afterDecision(*cur_, before_, layout_, e, t,
                                   lastDegraded_);
        }
        if (injector_)
            actuate(e, t);
        assert(layout_.valid());
    }

    /** Push the decided layout through the (faulty) knobs. */
    void actuate(int e, double t)
    {
        fault::FaultInjector::Actuation act;
        {
            obs::Span span(cfg_.obs, "actuate");
            act = injector_->actuate(before_, layout_, e, t);
            cur_->onActuation(act.ok);
        }
        if (auditor_.enabled()) {
            obs::Span span(cfg_.obs, "audit");
            auditor_.afterActuation(layout_, act.applied, act.ok, e, t);
        }
        layout_ = std::move(act.applied);
    }

    /**
     * Contention model under the current layout and loads, then the
     * queues advance and produce measurements, then E_S.
     */
    void measure(int e, double t, EpochRecord &rec)
    {
        lcObs_.clear();
        beObs_.clear();
        dropped_ = 0;
        obs::Span measure_span(cfg_.obs, "measure");
        node_.demandsAt(t, demands_);
        {
            obs::Span span(cfg_.obs, "model");
            contention_.evaluateInto(layout_, demands_, cur_->corePolicy(),
                                     rec.outcomes);
        }
        for (AppId i = 0; i < n_; ++i) {
            const auto ui = static_cast<std::size_t>(i);
            const double overhead = repartitionOverhead(i);
            if (node_.profile(i).latencyCritical)
                measureLc(i, e, t, overhead, rec.outcomes[ui],
                          rec.obs[ui]);
            else
                measureBe(i, e, t, overhead, rec.outcomes[ui],
                          rec.obs[ui]);
        }
        if (injector_) {
            lastDegraded_ = dropped_ > 0;
            lastAllDropped_ = n_ > 0 && dropped_ == n_;
        }
        rec.entropy = core::computeEntropy(lcObs_, beObs_, cfg_.ri);
    }

    /** Latency multiplier for app i's change in reachable ways/cores. */
    double repartitionOverhead(AppId i)
    {
        const auto ui = static_cast<std::size_t>(i);
        const int ways = layout_.reachable(i, ResourceKind::LlcWays);
        const int cores = layout_.reachable(i, ResourceKind::Cores);
        double overhead = 1.0;
        if (cfg_.overheadEnabled && prevWays_[ui] >= 0) {
            const int d_ways = std::abs(ways - prevWays_[ui]);
            const int d_cores = std::abs(cores - prevCores_[ui]);
            overhead = std::min(
                2.0, 1.0 + cfg_.overheadWaysFactor * d_ways +
                    cfg_.overheadCoresFactor * d_cores);
        }
        prevWays_[ui] = ways;
        prevCores_[ui] = cores;
        return overhead;
    }

    /**
     * Post-migration cold start (ColocatedApp::coldEpochs): a freshly
     * migrated app's service rates (LC) or IPC (BE) shrink by this
     * factor while its caches re-warm, decaying linearly; 1 when warm.
     */
    double coldFactor(AppId i, int e) const
    {
        const auto &app = node_.apps()[static_cast<std::size_t>(i)];
        if (e < app.coldEpochs && app.coldPenalty > 0.0) {
            return 1.0 + app.coldPenalty *
                static_cast<double>(app.coldEpochs - e) /
                static_cast<double>(app.coldEpochs);
        }
        return 1.0;
    }

    /** Whether app i's sample survives the injector; drops count. */
    bool delivered(AppId i, int e, double t, double &extra)
    {
        if (!injector_ || injector_->sampleMeasurement(i, e, t, &extra))
            return true;
        ++dropped_;
        return false;
    }

    /** Queue and measure one LC app: backlog, p95, noise, faults. */
    void measureLc(AppId i, int e, double t, double overhead,
                   const perf::PerfOutcome &out, sched::AppObservation &o)
    {
        const auto ui = static_cast<std::size_t>(i);
        const auto &prof = node_.profile(i);
        double load = node_.loadAt(i, t);
        if (injector_)
            load = spikedLoad(load, injector_->loadFactor(i, t));
        const double lambda = prof.arrivalRate(load);
        const double cold = coldFactor(i, e);

        // Explicit backlog dynamics with a generator-side cap on
        // outstanding work; the epoch's requests queue behind the
        // mid-epoch backlog.
        double b_new = backlog_[ui] +
            (lambda - out.serviceRate / cold) * cfg_.epochSeconds;
        b_new = std::clamp(b_new, 0.0, cfg_.queueCap(lambda));
        const double b_mid = 0.5 * (backlog_[ui] + b_new);
        backlog_[ui] = b_new;

        double p95 = prof.measuredTailMs(out, lambda, b_mid,
                                         cfg_.tailPercentile, cold);
        p95 *= overhead;
        p95 *= rng_.lognormalNoise(cfg_.noiseSigma);

        double extra = 1.0;
        const bool valid = delivered(i, e, t, extra);
        if (!valid && e > 0) {
            // Dropped sample: deliver the previous epoch's delivered
            // observation, flagged stale. Never NaN — schedulers
            // sort on these fields.
            o = lastObs_[ui];
        } else {
            // A sample dropped on the very first interval gets the
            // monitoring agent's cold default (solo expectations).
            o.loadFraction = load;
            o.arrivalRate = lambda;
            o.idealP95Ms =
                prof.soloTailPercentileMs(load, cfg_.tailPercentile);
            o.p95Ms = valid ? p95 * extra : o.idealP95Ms;
        }
        if (!valid)
            o.sampleValid = false;
        lcObs_.push_back({o.idealP95Ms, o.p95Ms, o.thresholdMs});
    }

    /** Measure one BE app's IPC: overhead, cold start, noise, faults. */
    void measureBe(AppId i, int e, double t, double overhead,
                   const perf::PerfOutcome &out, sched::AppObservation &o)
    {
        // Repartitioning costs BE throughput too (cold ways and
        // thread migrations), at half the latency rate.
        double ipc = out.ipc;
        ipc /= 1.0 + 0.5 * (overhead - 1.0);
        ipc /= coldFactor(i, e);
        ipc *= rng_.lognormalNoise(cfg_.noiseSigma);

        double extra = 1.0;
        if (delivered(i, e, t, extra)) {
            o.ipc = ipc * extra;
        } else {
            if (e > 0)
                o = lastObs_[static_cast<std::size_t>(i)];
            else
                o.ipc = o.ipcSolo;
            o.sampleValid = false;
        }
        beObs_.push_back({o.ipcSolo, o.ipc});
    }

    /** Attribution, audit, series, the epoch event and SLO alerts. */
    void observe(int e, double t, const EpochRecord &rec, bool traced)
    {
        // Post-warmup epochs only, matching the violation counter and
        // the steady-state means the ledger is read next to.
        if (attribution_ && e >= result_.warmupEpochs)
            attribution_->attribute(e, layout_, demands_,
                                    cur_->corePolicy(), rec, traced,
                                    cfg_.obs);
        if (auditor_.enabled()) {
            obs::Span span(cfg_.obs, "audit");
            auditor_.afterEpoch(rec.entropy, cfg_.ri, !lcObs_.empty(),
                                !beObs_.empty(), e, t);
        }
        if (series_)
            series_->record(e, rec, prevCores_, prevWays_, backlog_,
                            dropped_);
        if (traced)
            emitEpoch(e, t, rec);
        if (slo_)
            alert(e, rec);
        cfg_.obs.count("sim.epochs");
    }

    void emitEpoch(int e, double t, const EpochRecord &rec) const
    {
        std::vector<double> p95, ipc;
        p95.reserve(static_cast<std::size_t>(n_));
        ipc.reserve(static_cast<std::size_t>(n_));
        for (const auto &o : rec.obs) {
            p95.push_back(o.latencyCritical ? o.p95Ms : 0.0);
            ipc.push_back(o.latencyCritical ? 0.0 : o.ipc);
        }
        obs::Event ev("epoch");
        ev.num("t", t)
            .num("e_lc", rec.entropy.eLc)
            .num("e_be", rec.entropy.eBe)
            .num("e_s", rec.entropy.eS)
            .nums("p95_ms", p95)
            .nums("ipc", ipc);
        cfg_.obs.atEpoch(e).emit(ev);
    }

    /**
     * The SLO step: every LC app's violation bit feeds the burn-rate
     * detector. Transitions emit regardless of trace sampling, like
     * `violation` — alerts are the signal sampling must not drop.
     */
    void alert(int e, const EpochRecord &rec)
    {
        for (AppId i = 0; i < n_; ++i) {
            const auto &o = rec.obs[static_cast<std::size_t>(i)];
            if (!o.latencyCritical)
                continue;
            const auto tr = slo_->observe(
                i, e, !core::meetsQos(o.p95Ms, o.thresholdMs));
            if (tr.kind == obs::SloAlertTransition::Kind::None)
                continue;
            const bool raise =
                tr.kind == obs::SloAlertTransition::Kind::Raise;
            cfg_.obs.count(raise ? "slo.alert_raised"
                                 : "slo.alert_cleared");
            if (!tracing_)
                continue;
            obs::Event ev(raise ? "alert_raise" : "alert_clear");
            ev.str("app", node_.profile(i).name);
            if (!raise)
                ev.integer("duration", tr.durationEpochs);
            ev.num("burn_fast", tr.burnFast)
                .num("burn_slow", tr.burnSlow);
            cfg_.obs.atEpoch(e).emit(ev);
        }
    }

    /**
     * Steady-state sums, in epoch order as the run goes: the same
     * values in the same order a post-run scan would visit, so a
     * keepEpochs=false run never needs the record vector.
     */
    void aggregate(const EpochRecord &rec)
    {
        result_.meanELc += rec.entropy.eLc;
        result_.meanEBe += rec.entropy.eBe;
        result_.meanES += rec.entropy.eS;
        for (std::size_t i = 0; i < rec.obs.size(); ++i) {
            const auto &o = rec.obs[i];
            if (o.latencyCritical) {
                result_.meanP95Ms[i] += o.p95Ms;
                result_.steadyMeanLoad[i] += o.loadFraction;
                if (!core::meetsQos(o.p95Ms, o.thresholdMs))
                    ++result_.violations;
            } else {
                result_.meanIpc[i] += o.ipc;
            }
        }
        ++steady_;
    }

    /** Carry the observations forward; retain the record if asked. */
    void keep(EpochRecord &&rec)
    {
        lastObs_ = rec.obs;
        if (!cfg_.keepEpochs)
            return;
        rec.regionRes.reserve(
            static_cast<std::size_t>(layout_.numRegions()));
        for (int r = 0; r < layout_.numRegions(); ++r)
            rec.regionRes.push_back(layout_.region(r).res);
        rec.layout = layout_;
        rec.queueBacklog.assign(backlog_.begin(), backlog_.end());
        rec.policyArm = curArm_;
        result_.epochs.push_back(std::move(rec));
    }

    /** Close the run: means, yield, totals and run_end. */
    void finish()
    {
        auto &res = result_;
        if (steady_ > 0) {
            res.meanELc /= steady_;
            res.meanEBe /= steady_;
            res.meanES /= steady_;
            for (auto *v :
                 {&res.meanP95Ms, &res.meanIpc, &res.steadyMeanLoad})
                for (auto &x : *v)
                    x /= steady_;
        }
        int lc_total = 0, lc_ok = 0;
        for (AppId i = 0; i < n_; ++i) {
            const auto &prof = node_.profile(i);
            if (!prof.latencyCritical)
                continue;
            ++lc_total;
            if (core::meetsQos(res.meanP95Ms[static_cast<std::size_t>(i)],
                               prof.tailThresholdMs))
                ++lc_ok;
        }
        res.yieldValue =
            lc_total > 0 ? static_cast<double>(lc_ok) / lc_total : 1.0;

        if (slo_) {
            res.slo = slo_->summary();
            cfg_.obs.count("slo.alert_epochs",
                           static_cast<double>(res.slo.alertEpochs));
        }
        if (attribution_) {
            attribution_->foldInto(res.attribution);
            cfg_.obs.count("attr.evals",
                           static_cast<double>(
                               attribution_->evaluations()));
        }
        if (tracing_) {
            obs::Event ev("run_end");
            ev.str("scheduler", cur_->name())
                .num("mean_e_lc", res.meanELc)
                .num("mean_e_be", res.meanEBe)
                .num("mean_e_s", res.meanES)
                .num("yield", res.yieldValue)
                .integer("violations", res.violations);
            cfg_.obs.emit(ev);
        }
        cfg_.obs.count("sim.runs");
        cfg_.obs.count("sim.violations", res.violations);
        cfg_.obs.observe("sim.mean_e_s", res.meanES);
    }
};

} // namespace

bool
epochTraceSampled(std::uint64_t seed, int epoch, double rate)
{
    if (rate >= 1.0)
        return true;
    if (rate <= 0.0 || epoch < 0)
        return false;
    return sampledFrom(stats::Rng(seed).split(kTraceSampleStream), epoch,
                       rate);
}

EpochSimulator::EpochSimulator(Node node, SimulationConfig config)
    : node_(std::move(node)), cfg(config)
{
    assert(cfg.epochSeconds > 0.0);
    assert(cfg.durationSeconds >= cfg.epochSeconds);
    assert(cfg.warmupEpochs >= 0);
}

SimulationResult
EpochSimulator::run(sched::Scheduler &scheduler) const
{
    return runSwitched({&scheduler}, {});
}

SimulationResult
EpochSimulator::runSwitched(
    const std::vector<sched::Scheduler *> &arms,
    const PolicySchedule &schedule) const
{
    assert(!arms.empty());
#ifndef NDEBUG
    for (const auto *a : arms)
        assert(a != nullptr);
    for (const int a : schedule.blockArm)
        assert(a >= 0 && static_cast<std::size_t>(a) < arms.size());
#endif
    // Profiling root for the whole run; every step's span nests
    // under it.
    obs::Span run_span(cfg.obs, "run");
    return EpochKernel(node_, cfg, arms.data(), schedule).run();
}

} // namespace ahq::cluster
