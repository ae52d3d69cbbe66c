/**
 * @file
 * The epoch-level node simulator.
 *
 * One epoch is one monitoring interval (the paper uses 500 ms). Each
 * epoch the simulator (1) lets the scheduler react to the previous
 * epoch's measurements, (2) evaluates the contention model under the
 * resulting layout and the current loads, (3) advances each LC app's
 * queue backlog explicitly (overload in one epoch spills into the
 * next), (4) produces the measured p95 / IPC including repartition
 * overhead and measurement noise, and (5) computes the entropy
 * report for the interval.
 */

#ifndef AHQ_CLUSTER_EPOCH_SIM_HH
#define AHQ_CLUSTER_EPOCH_SIM_HH

#include <cstdint>
#include <vector>

#include "check/check.hh"
#include "cluster/node.hh"
#include "core/entropy.hh"
#include "fault/plan.hh"
#include "machine/layout.hh"
#include "obs/attribution.hh"
#include "obs/scope.hh"
#include "obs/slo.hh"
#include "perf/contention.hh"
#include "sched/scheduler.hh"

namespace ahq::cluster
{

/** Simulator configuration (defaults match the paper's setup). */
struct SimulationConfig
{
    /** Monitoring interval, seconds (the paper uses 500 ms). */
    double epochSeconds = 0.5;

    /** Total simulated time, seconds. */
    double durationSeconds = 60.0;

    /** Leading epochs excluded from steady-state aggregates. */
    int warmupEpochs = 20;

    /** Lognormal sigma of tail-latency / IPC measurement noise. */
    double noiseSigma = 0.05;

    /**
     * Tail percentile monitored and fed to the entropy metric. The
     * paper uses the 95th "without losing generality"; p99-oriented
     * deployments can raise it. Observation fields named p95Ms hold
     * this percentile.
     */
    double tailPercentile = 0.95;

    /** Relative importance of LC over BE in E_S. */
    double ri = core::kDefaultRelativeImportance;

    /** RNG seed. */
    std::uint64_t seed = 42;

    /** Model repartitioning overhead (cache warm-up, migrations). */
    bool overheadEnabled = true;

    /** p95 inflation per LLC way an app gained or lost this epoch. */
    double overheadWaysFactor = 0.03;

    /** p95 inflation per core an app gained or lost this epoch. */
    double overheadCoresFactor = 0.06;

    /**
     * Queue backlog cap, expressed in seconds of offered work
     * (Tailbench-style load generators bound outstanding requests,
     * so overloaded tails saturate instead of diverging).
     */
    double queueCapSeconds = 0.10;

    /**
     * Most requests an LC app arriving at `lambda` requests/s can
     * have queued: queueCapSeconds of offered work plus a fixed
     * floor. The kernel's backlog saturates here, and the oracle's
     * steady state of a saturated app carries exactly this backlog.
     */
    double queueCap(double lambda) const
    {
        return lambda * queueCapSeconds + 32.0;
    }

    /** Contention model tunables. */
    perf::ContentionTraits contention;

    /**
     * Telemetry scope for this run (null sinks by default). The
     * simulator forwards it to the scheduler and emits run/epoch
     * events through it; with no sink attached the instrumentation
     * reduces to one branch per epoch. When a TimeSeriesRegistry is
     * attached (obs.series) the simulator also records per-epoch
     * E_S / ReT / queue / allocation / fault / violation series
     * under the scope's scenario tag.
     */
    obs::Scope obs;

    /**
     * Head-based trace sampling rate in [0, 1]. At 1 (default)
     * every epoch's trace events are emitted; below 1 each epoch is
     * kept iff epochTraceSampled(seed, epoch, rate) — a pure
     * function of (seed, epoch) on its own RNG split, the same
     * discipline as the fault injector — so sampled traces are
     * byte-identical across thread counts and the per-node seed
     * salting makes the decision independent per (run, node).
     * Sampling gates the epoch/decision/fault trace events only:
     * run_start/run_end, auditor violations, metrics counters and
     * time-series recording are unaffected.
     */
    double traceSampleRate = 1.0;

    /**
     * Invariant auditing for this run (see src/check/). Defaults
     * to the AHQ_CHECK environment variable (unset = off, so an
     * unaudited run pays one branch per hook); `log` records and
     * traces violations, `strict` additionally throws
     * check::InvariantViolation at the first one.
     */
    check::Mode checkMode = check::modeFromEnv();

    /**
     * Optional fault plan (see src/fault/). Null or inactive keeps
     * the run on the exact unfaulted code path (and byte-identical
     * traces); an active plan drives a per-run FaultInjector whose
     * RNG stream is split off the run seed, so faulted runs stay
     * deterministic per (seed, plan). The plan must outlive the run.
     */
    const fault::FaultPlan *faults = nullptr;

    /**
     * Retain the per-epoch records in SimulationResult::epochs. On
     * (the default) a run keeps its full timeline — what the paper
     * figures, CSV dumps and timeline tooling consume. Off, the
     * simulator aggregates incrementally and returns an empty
     * epochs vector, so a fleet of N nodes costs O(N) resident
     * memory instead of O(N x epochs). Every steady-state
     * aggregate (meanES, meanP95Ms, steadyMeanLoad, violations,
     * yield) and every trace byte is identical either way: the
     * incremental sums visit the same values in the same epoch
     * order the post-run scan used to.
     */
    bool keepEpochs = true;

    /**
     * Opt-in counterfactual interference attribution (see
     * obs/attribution.hh). On, every post-warmup epoch with a
     * suffering LC app costs n extra contention-model evaluations
     * (one per co-runner removed); the per-(victim, culprit,
     * resource) shares accumulate into SimulationResult::
     * attribution and, when the epoch's trace events are kept,
     * emit one `attribution` event per suffering victim. Off (the
     * default) the hook is a single branch per epoch and the run
     * is byte-identical to a build without the seam.
     */
    bool attribute = false;

    /**
     * Opt-in online SLO burn-rate monitoring (see obs/slo.hh). On,
     * every LC app's per-epoch violation bit feeds a multi-window
     * burn-rate detector; alert transitions emit `alert_raise` /
     * `alert_clear` trace events (never trace-sampled, like
     * `violation`) and bump the slo.* counters, with the run's
     * totals in SimulationResult::slo. Off: one branch per epoch.
     */
    bool slo = false;

    /** Burn-rate windows/thresholds when slo is on. */
    obs::SloTraits sloTraits;
};

/**
 * Epoch→arm mapping driving the policy-swap seam: epoch e runs
 * under arms[blockArm[e / blockEpochs]] (the last block absorbs
 * any trailing epochs). An empty schedule pins arm 0 — the
 * single-scheduler run() — at one comparison per epoch.
 */
struct PolicySchedule
{
    /** Epochs per block (> 0 when the schedule is active). */
    int blockEpochs = 0;

    /** Arm index per block (values < the arm count of the run). */
    std::vector<int> blockArm;

    /** Arm in force at the given epoch. */
    int armAt(int epoch) const
    {
        if (blockEpochs <= 0 || blockArm.empty())
            return 0;
        auto b = static_cast<std::size_t>(epoch / blockEpochs);
        if (b >= blockArm.size())
            b = blockArm.size() - 1;
        return blockArm[b];
    }
};

/** Everything recorded about one epoch. */
struct EpochRecord
{
    double time = 0.0;

    /** Observations with measurements filled (indexed by AppId). */
    std::vector<sched::AppObservation> obs;

    /**
     * Queue backlog (outstanding requests) per app at the end of
     * the epoch (0 for BE apps) — the per-epoch queue-length
     * series Little's-law DQ estimators consume. Only filled when
     * SimulationConfig::keepEpochs retains records at all.
     */
    std::vector<double> queueBacklog;

    /** Policy arm in force during the epoch (0 without a schedule). */
    int policyArm = 0;

    /** Contention-model outcomes (indexed by AppId). */
    std::vector<perf::PerfOutcome> outcomes;

    /** Entropy accounting for the interval. */
    core::EntropyReport entropy;

    /** Per-region resources at the end of the epoch. */
    std::vector<machine::ResourceVector> regionRes;

    /** Copy of the layout in force during the epoch. */
    machine::RegionLayout layout{machine::ResourceVector{}};
};

/** Aggregated outcome of one simulation run. */
struct SimulationResult
{
    std::vector<EpochRecord> epochs;
    int warmupEpochs = 0;

    // Steady-state (post-warmup) aggregates.
    double meanELc = 0.0;
    double meanEBe = 0.0;
    double meanES = 0.0;

    /** Fraction of LC apps whose steady-state mean p95 meets QoS. */
    double yieldValue = 1.0;

    /** (LC app, epoch) pairs violating the elastic QoS target. */
    int violations = 0;

    /** Steady-state mean p95 per app (0 for BE), ms. */
    std::vector<double> meanP95Ms;

    /** Steady-state mean IPC per app (0 for LC). */
    std::vector<double> meanIpc;

    /**
     * Steady-state mean offered load per app (post-warmup mean of
     * the per-epoch loadFraction; 0 for BE). The fleet aggregation
     * evaluates each LC app's solo-tail reference at this load —
     * it must match the regime meanP95Ms was averaged over, so
     * warmup epochs (where a trace may still be ramping) are
     * excluded exactly like they are from meanP95Ms.
     */
    std::vector<double> steadyMeanLoad;

    /**
     * Accumulated interference attribution over the post-warmup
     * epochs (empty unless SimulationConfig::attribute). Keys are
     * app names; per-victim totals equal the sum of the victim's
     * per-epoch R_i over the attributed epochs.
     */
    obs::AttributionLedger attribution;

    /** Alert accounting (zeros unless SimulationConfig::slo). */
    obs::SloSummary slo;
};

/**
 * RNG stream id for head-based trace sampling, split off the run
 * seed (cf. fault::kFaultStream): sampling draws never perturb the
 * measurement-noise stream, so a sampled run's simulation results
 * are bit-identical to an unsampled one.
 */
inline constexpr std::uint64_t kTraceSampleStream = 0x7e1e5;

/**
 * Head-based sampling decision for one epoch: keep iff the draw on
 * split(seed, kTraceSampleStream, epoch) lands under `rate`. Pure
 * function of its arguments — no state, no ordering dependence.
 */
bool epochTraceSampled(std::uint64_t seed, int epoch, double rate);

/**
 * Runs a scheduling strategy on a node for a configured duration.
 */
class EpochSimulator
{
  public:
    EpochSimulator(Node node, SimulationConfig config = {});

    /**
     * Simulate one full run. The scheduler is reset() first, so a
     * scheduler instance can be reused across runs.
     */
    SimulationResult run(sched::Scheduler &scheduler) const;

    /**
     * Policy-swap run: simulate under schedule.armAt(e)'s scheduler
     * each epoch. At a block boundary where the arm changes, the
     * incoming scheduler is reset() and re-initialises the layout
     * (a real policy rollout hands the controller the *system*
     * state, not its predecessor's internal state), so queue
     * backlog carries across the swap — exactly the carryover that
     * makes naive A/B estimates lie — while repartitioning costs
     * are charged through the usual overhead model. Swapping to
     * the already-active arm is a no-op. With a single arm and an
     * empty schedule this is identical to run(scheduler).
     *
     * @param arms Candidate schedulers (non-null, outlive the run).
     * @param schedule Epoch→arm mapping (see PolicySchedule).
     */
    SimulationResult
    runSwitched(const std::vector<sched::Scheduler *> &arms,
                const PolicySchedule &schedule) const;

    const Node &node() const { return node_; }
    const SimulationConfig &config() const { return cfg; }

  private:
    Node node_;
    SimulationConfig cfg;
};

} // namespace ahq::cluster

#endif // AHQ_CLUSTER_EPOCH_SIM_HH
