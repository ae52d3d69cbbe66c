/**
 * @file
 * Datacenter-level composition: a fleet of nodes, the pooled
 * system-entropy of all their applications (the paper consistently
 * frames E_S as a *datacenter* metric, with the node as the
 * contention domain), and a greedy entropy-driven placement advisor
 * that demonstrates using E_S as a placement objective.
 */

#ifndef AHQ_CLUSTER_FLEET_HH
#define AHQ_CLUSTER_FLEET_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/epoch_sim.hh"
#include "sched/scheduler.hh"

namespace ahq::exec
{
class ThreadPool;
}

namespace ahq::cluster
{

/**
 * Merge-commutative accumulator of pooled fleet observations.
 *
 * One accumulator holds the steady-state LC/BE observations (and
 * the violation count) of any subset of nodes; accumulators built
 * per node on pool workers merge into the datacenter pool without
 * ever materialising per-epoch records. Merging is commutative in
 * the entropy sense (E_LC / E_BE are means over the pooled
 * observation multiset); the fleet merges in node order anyway so
 * the floating-point sums — and thus the pooled E_S bits — are
 * identical to the serial collect-then-reduce path.
 */
struct FleetAccumulator
{
    std::vector<core::LcObservation> lc;
    std::vector<core::BeObservation> be;
    long long violations = 0;

    /**
     * Fold one node's steady-state result in. Each LC app's
     * solo-tail reference TL_i0 is evaluated at the run's tail
     * percentile and at its *steady-state* mean load
     * (SimulationResult::steadyMeanLoad): meanP95Ms is a
     * post-warmup aggregate, so pooling it against a load average
     * that included warmup epochs (where a trace may still be
     * ramping) would compare the steady tail against a reference
     * the steady state never saw. Every simulator result carries
     * steadyMeanLoad; add() asserts it.
     */
    void add(const Node &node, const SimulationResult &res,
             double tail_percentile);

    /** Append another accumulator's observations (in call order). */
    void merge(const FleetAccumulator &other);

    /** Pooled entropy over everything accumulated so far. */
    core::EntropyReport entropy(
        double ri = core::kDefaultRelativeImportance) const;
};

/**
 * A fleet of independently scheduled nodes sharing one entropy
 * accounting.
 */
class Fleet
{
  public:
    Fleet() = default;

    /** Add a node managed by the given strategy (takes ownership). */
    void addNode(Node node,
                 std::unique_ptr<sched::Scheduler> scheduler);

    /** Number of nodes. */
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    /** Result of one fleet run. */
    struct FleetResult
    {
        /**
         * Per-node simulation results, in node order. With
         * config.keepEpochs=false each entry carries only the O(1)
         * steady-state aggregates (its epochs vector is empty), so
         * a 10k-node fleet costs O(nodes) resident memory; the
         * default keeps full per-epoch records for small fleets
         * and tests.
         */
        std::vector<SimulationResult> nodes;

        /** Datacenter-wide entropy over all apps of all nodes. */
        double eLc = 0.0;
        double eBe = 0.0;
        double eS = 0.0;

        /** Datacenter-wide yield over all LC apps. */
        double yieldValue = 1.0;

        /** Total QoS violations across nodes. */
        int violations = 0;

        /**
         * Applications re-placed onto surviving nodes after an
         * injected node crash (0 when the fault plan has no crash).
         */
        int failovers = 0;

        /** Nodes that crashed mid-run, in node order. */
        std::vector<int> crashedNodes;

        /**
         * Fleet-wide attribution ledger: the per-node ledgers
         * merged in node order (crash runs fold both phases), so
         * the merged rows are bitwise identical at any --jobs.
         * Empty unless the shared config sets `attribute`.
         */
        obs::AttributionLedger attribution;

        /** Summed alert accounting (zeros unless config.slo). */
        obs::SloSummary slo;
    };

    /**
     * Simulate every node under the shared configuration and pool
     * the steady-state observations into one datacenter entropy.
     * Nodes fan out on the pool through tracedParallelFor
     * (cluster/fan_out.hh): node n runs on nodeSeed(config.seed, n)
     * under the "nodeN" child tag, and its private trace buffer is
     * flushed in node order — results and trace bytes are bitwise
     * identical at any thread count.
     *
     * When config.faults carries node_crash directives the run
     * splits in two phases at the (earliest) crash epoch: phase A
     * runs every node to the crash instant, then the crashed nodes'
     * applications fail over to the survivors via the
     * entropy-driven PlacementAdvisor and the survivors finish the
     * run with the refugees colocated ("nodeN/recovered" trace
     * tags). Crashed slots report their phase A result; failovers
     * and crashedNodes record the recovery.
     *
     * @param pool Pool to fan out on; nullptr = globalPool().
     */
    FleetResult run(const SimulationConfig &config,
                    exec::ThreadPool *pool = nullptr);

  private:
    struct Entry
    {
        Node node;
        std::unique_ptr<sched::Scheduler> scheduler;
    };
    std::vector<Entry> nodes_;

    /** Phase B of a crash run: the survivors with the refugees. */
    struct Recovery
    {
        /** Surviving node ids, ascending. */
        std::vector<int> survivors;

        /** Survivor s's recovered colocation and its scheduler. */
        std::vector<Entry> entries;

        std::vector<obs::BufferTraceSink> buffers;
        std::vector<FleetAccumulator> accums;
    };

    /**
     * Fail the crashed nodes' apps over to the survivors (placed by
     * the PlacementAdvisor), run phase B and fold it into `out`:
     * survivor slots take the recovered segment plus their phase A
     * violations, ledger and alert tallies.
     */
    Recovery recover(const SimulationConfig &config, int crash_epoch,
                     const std::vector<int> &crashed, FleetResult &out,
                     exec::ThreadPool &p);
};

/**
 * The settings of a short trial simulation, the one PlacementAdvisor
 * and ClusterScheduler score candidate colocations with: `base` with
 * telemetry, auditing, faults and kept epochs off, run for
 * `seconds` with `warmup_epochs` of warmup.
 */
SimulationConfig trialConfig(const SimulationConfig &base,
                             double seconds, int warmup_epochs);

/**
 * Mean E_S of a trial simulation of `apps` on one node under a fresh
 * scheduler; 0 for an empty set (no scheduler is made).
 */
double trialEntropy(
    const machine::MachineConfig &machine,
    const std::vector<ColocatedApp> &apps, const SimulationConfig &trial,
    const std::function<std::unique_ptr<sched::Scheduler>()> &make);

/**
 * Greedy entropy-driven placement: assign applications to a fixed
 * number of identical nodes, placing the hungriest applications
 * first and each on the node where a short trial simulation yields
 * the lowest node E_S.
 */
class PlacementAdvisor
{
  public:
    /**
     * @param node_config The (identical) node hardware.
     * @param num_nodes Number of nodes available.
     * @param make_scheduler Factory for the strategy evaluating each
     *        trial placement (a fresh instance per trial); called
     *        concurrently from pool workers, so it must be
     *        thread-safe.
     */
    PlacementAdvisor(
        machine::MachineConfig node_config, int num_nodes,
        std::function<std::unique_ptr<sched::Scheduler>()>
            make_scheduler);

    /** One placement decision. */
    struct Placement
    {
        /** apps[i] was placed on node assignment[i]. */
        std::vector<int> assignment;

        /**
         * Predicted E_S per node after the *complete* placement —
         * every node is trial-evaluated once more at the end, so
         * nodes that won no assignment but carry `initial` apps
         * report their real entropy, not 0.0.
         */
        std::vector<double> nodeEntropy;

        /** Mean predicted node E_S (over all nodes). */
        double meanEntropy = 0.0;
    };

    /**
     * Place the given applications. The candidate-node trials for
     * each app run in parallel; the greedy choice itself stays
     * sequential (each decision feeds the next), so the placement
     * matches the serial algorithm exactly.
     *
     * @param apps The applications (with their load traces).
     * @param trial_config Simulation settings for trial runs; keep
     *        short — the advisor runs O(apps x nodes) trials.
     * @param pool Pool to fan out on; nullptr = globalPool().
     * @param initial Optional pre-existing colocation per node
     *        (size num_nodes); trials then colocate each candidate
     *        with the apps already there. Used by Fleet failover,
     *        where survivors are not empty.
     */
    Placement place(const std::vector<ColocatedApp> &apps,
                    const SimulationConfig &trial_config,
                    exec::ThreadPool *pool = nullptr,
                    const std::vector<std::vector<ColocatedApp>>
                        *initial = nullptr) const;

  private:
    machine::MachineConfig nodeConfig;
    int numNodes_;
    std::function<std::unique_ptr<sched::Scheduler>()> makeScheduler;
};

} // namespace ahq::cluster

#endif // AHQ_CLUSTER_FLEET_HH
