/**
 * @file
 * The simulated cluster: P Active-Message nodes, a constant-latency or
 * fat-tree interconnect, and an SPMD program launcher. One Simulator
 * (one clock, one event queue) drives every node; sweeps parallelise
 * across independent points (harness/runner.hh), never inside one run.
 */

#ifndef NOWCLUSTER_AM_CLUSTER_HH_
#define NOWCLUSTER_AM_CLUSTER_HH_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "am/am_node.hh"
#include "net/fault.hh"
#include "net/loggp.hh"
#include "net/topology.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"

namespace nowcluster {

/**
 * Owns the simulator, the LogGP parameters, the handler table, and one
 * AmNode + Proc per simulated processor.
 */
class Cluster
{
  public:
    /**
     * @param nprocs Number of processors.
     * @param params Communication parameters (shared by all nodes).
     * @param seed   Run seed; each node derives its own Rng stream.
     */
    Cluster(int nprocs, const LogGPParams &params, std::uint64_t seed = 1);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;
    ~Cluster();

    /** Register a handler (identical table on every node, as in SPMD). */
    int registerHandler(HandlerFn fn);

    /** Invoke handler h for packet pkt on node `self`. */
    void runHandler(int h, AmNode &self, Packet &pkt);

    /**
     * Launch main on every node at time 0 and run to completion.
     *
     * @param main     Per-node SPMD body.
     * @param max_time Virtual-time budget; exceeded runs are drained
     *                 (all blocking ops return immediately) and reported
     *                 as failed.
     * @return true if all nodes finished within the budget.
     */
    bool run(std::function<void(AmNode &)> main, Tick max_time = kTickNever);

    /** Virtual time at which the last node's body returned. */
    Tick runtime() const { return runtime_; }

    /** True if the last run() hit its time budget. */
    bool timedOut() const { return timedOut_; }

    /**
     * When the last run() drained (timeout or deadlock), a human
     * readable list of which nodes were still blocked and on what
     * (credit wait vs. reply wait vs. barrier ...). Empty for clean
     * runs.
     */
    const std::string &stallReport() const { return stallReport_; }

    int nprocs() const { return nprocs_; }
    AmNode &node(int i) { return *nodes_[i]; }

    /** The one clock and event queue every node runs on. */
    Simulator &sim() { return sim_; }

    /** Lifetime count of executed events. */
    std::uint64_t eventsExecuted() const { return sim_.executed(); }

    const LogGPParams &params() const { return params_; }
    std::uint64_t seed() const { return seed_; }

    /** Drain mode: blocking primitives return immediately. */
    bool draining() const { return draining_; }

    /** Deliver pkt to its destination at pkt.readyAt. */
    void transmit(Packet &&pkt);

    /** Schedule the NIC-level ack that returns a credit to src. */
    void scheduleCreditAck(NodeId src, NodeId dst, Tick deliver_time);

    /**
     * Reliability-protocol cumulative ack from node `from` to node
     * `to`, subject to the fault model like any other wire event.
     */
    void sendAck(NodeId from, NodeId to, std::uint64_t cum_seq);

    /**
     * After run() completes, process leftover events (in-flight acks,
     * retransmission timers) until the simulator goes idle, so credit
     * accounting can be audited. @return events executed.
     */
    std::uint64_t settle(std::uint64_t max_events = 10'000'000);

    /**
     * Number of send credits not currently home across all (node, dst)
     * pairs. Zero after run()+settle() on a correct protocol -- the
     * "no leaked credits" acceptance check.
     */
    std::uint64_t leakedCredits() const;

    /** Aggregate messages sent across all nodes. */
    std::uint64_t totalMessages() const;

    /** The cluster's metrics registry: every node's counters, the
     *  fault model, and any component-owned metrics report here. */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Attach a span tracer to every node (CPU fiber, NIC tx context,
     * NIC rx context) and the network. Must be called before run();
     * pass nullptr to detach. Tracing is passive -- virtual time and
     * all results are identical with and without a tracer.
     */
    void setTracer(SpanTracer *tracer);
    SpanTracer *tracer() const { return tracer_; }

    /** The fat-tree topology model, if enabled (diagnostics). */
    const FatTreeTopology *topology() const { return topo_.get(); }

    /** The fault model, if enabled (scripting from tests, counters).
     *  Its delayNode() script is installed at run() start. */
    FaultModel *faultModel() { return fault_.get(); }
    const FaultModel *faultModel() const { return fault_.get(); }

    /** Script a one-off processor stall (see FaultModel::delayNode). */
    void scriptDelay(NodeId node, Tick at, Tick duration);

  private:
    /** Common delivery tail: rx occupancy + presence-bit event. */
    void scheduleDelivery(Packet &&pkt);

    /** Presence-bit event body: downlink queueing, rx occupancy,
     *  delivery. */
    void arrive(const std::shared_ptr<Packet> &p);

    /** Enter drain mode, recording who was blocked and why. */
    void startDrain(const char *why);

    /** Install every scripted one-off delay as proc stall windows. */
    void installDelays();

    LogGPParams params_;
    MetricsRegistry metrics_;
    SpanTracer *tracer_ = nullptr;
    int nprocs_;
    std::uint64_t seed_;
    std::vector<HandlerFn> handlers_;
    std::vector<std::unique_ptr<AmNode>> nodes_;
    std::vector<std::unique_ptr<Proc>> procs_;

    Simulator sim_;
    std::unique_ptr<FaultModel> fault_;

    int doneCount_ = 0;
    Tick runtime_ = 0;
    bool draining_ = false;
    bool timedOut_ = false;
    bool started_ = false;
    std::unique_ptr<FatTreeTopology> topo_;
    std::string stallReport_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_AM_CLUSTER_HH_
