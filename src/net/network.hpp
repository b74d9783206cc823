// Ground-network model: the ad-hoc radio network formed by one subject
// device and nearby objects (§II-A).
//
// Topology is a hop-distance tree rooted at the subject (matching the
// paper's testbed: objects 1..4 hops away). The radio model has two cost
// components per message per hop:
//   * channel occupancy  — bytes / bandwidth; the shared medium serializes
//     concurrent transmissions (CSMA-like), which is what lets 20 RES1
//     responses arrive in well under 20 x one-message-latency;
//   * per-hop pipeline latency — protocol/OS overhead that does NOT occupy
//     the channel, so different messages' latencies overlap.
// Each node is a serial processor: handler compute time (from the
// ComputeModel) delays both its replies and its next message. Arrivals
// that find the node busy wait in an explicit per-node ingress queue —
// unbounded by default, or bounded (RadioParams::queue_depth) with a
// configurable overflow policy for overload-protection experiments.
// Each queued message keeps the (time, seq) wake key its own timer would
// have had, and the node arms one simulator event at the smallest key
// (net/ingress_queue.hpp): the order of deliveries, re-parks and drops is
// that of one timer per message, at one event per busy window.
//
// Scale architecture (campus-sized fleets, see DESIGN.md):
//   * node state lives in a flat, index-addressed table (`NodeId` is a
//     dense index into one contiguous vector), so the per-message path
//     never touches a tree map;
//   * a per-ring membership index makes broadcast delivery O(members of
//     the reached rings) and keeps max-hops maintenance O(1) per
//     attach/re-ring, instead of an all-nodes scan per broadcast;
//   * one payload buffer is shared (refcounted frame) by every scheduled
//     copy of a send — broadcast to 10k receivers allocates one frame,
//     not 10k — and the last copy frees it.
// Delivery iteration is ring-major, attach order within a ring. Fleets
// that attach nodes in ring-monotone order (every builtin grid and
// scenario factory does) therefore keep the exact pre-index delivery and
// RNG-draw order, which golden digests pin.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"
#include "net/compute.hpp"
#include "net/ingress_queue.hpp"
#include "net/sim.hpp"

namespace argus::obs {
class MetricsRegistry;
class Tracer;
}

namespace argus::net {

/// What a full ingress queue does with the overflow (queue_depth > 0).
enum class QueuePolicy : std::uint8_t {
  kDropTail = 0,    // reject the arriving message
  kDropOldest = 1,  // evict the head (oldest queued) to admit the arrival
  /// Evict the queued message with the weakest class; the class is the
  /// wire-type byte (QUE1=1 outranks QUE2=4 outranks junk), newest of the
  /// weakest class first. An arrival no stronger than the weakest queued
  /// entry is rejected instead — the queue never trades up for it.
  kPriority = 2,
};

inline const char* queue_policy_name(QueuePolicy p) {
  switch (p) {
    case QueuePolicy::kDropTail: return "drop_tail";
    case QueuePolicy::kDropOldest: return "drop_oldest";
    case QueuePolicy::kPriority: return "priority";
  }
  return "?";
}

struct RadioParams {
  double bandwidth_bytes_per_ms = 110.0;  // effective app-layer throughput
  double per_hop_latency_ms = 52.0;       // per message per hop, overlapping
  double jitter_ms = 4.0;                 // uniform [0, jitter) extra latency
  /// Per-hop loss model, drawn from the network's seeded DRBG so lossy
  /// runs stay deterministic. Both default to 0, in which case no random
  /// draws happen at all and the zero-loss event/RNG stream is unchanged.
  double drop_prob = 0.0;  // P(a copy is lost on one hop)
  double dup_prob = 0.0;   // P(a hop delivers an extra copy)
  /// Per-node ingress queue bound. 0 keeps the legacy unbounded queue
  /// (every blocked arrival waits behind busy_until, however long that
  /// grows); > 0 caps the number of waiting messages per node and applies
  /// `queue_policy` to the overflow. Bounded-queue sheds are counted in
  /// Stats (queue_rejected / queue_evicted) and traced as
  /// drop.queue_full / drop.queue_evict instants.
  std::size_t queue_depth = 0;
  QueuePolicy queue_policy = QueuePolicy::kDropTail;
};

class Network;

/// What the radio did with one send (tx-side view, decided at send time;
/// the copies themselves still arrive via scheduled deliveries).
struct SendOutcome {
  bool delivered = false;   // at least one receiver will get a copy
  unsigned drops = 0;       // copies lost in flight
  unsigned duplicates = 0;  // extra copies delivered
  /// Backpressure signal: some receiver's bounded ingress queue was
  /// already full at send time. The copy may still land (the queue can
  /// drain while it is in flight) — this is the sender's early congestion
  /// hint, always false on unbounded (queue_depth == 0) networks.
  bool congested = false;
};

/// Base class for protocol endpoints attached to the network.
class SimNode {
 public:
  virtual ~SimNode() = default;
  /// Handle a delivered message. Runs when the node becomes free; report
  /// crypto time via Network::consume_compute before sending replies.
  virtual void on_message(NodeId from, const Bytes& payload) = 0;

  [[nodiscard]] NodeId node_id() const { return id_; }

 protected:
  friend class Network;
  Network* net_ = nullptr;
  NodeId id_ = 0;
};

class Network {
 public:
  Network(Simulator& sim, RadioParams radio, std::uint64_t seed);

  /// Attach a node at `hops` from the subject (subject itself: hops 0).
  NodeId add_node(SimNode* node, unsigned hops);
  /// Detach a node (it left the network for good, e.g. deregistered
  /// after a crash). Its id stays retired; traffic already in flight to
  /// it — and anything still parked in its ingress queue — is dropped
  /// with a drop.no_dest trace instead of crashing the run.
  void remove_node(NodeId node);
  /// Move a node to a different hop ring mid-run (mobility / re-ring
  /// faults). Copies already in flight keep the arrival time computed at
  /// send time; future traffic uses the new ring.
  void set_node_hops(NodeId node, unsigned hops);
  /// True while `id` names an attached (not removed) node.
  [[nodiscard]] bool has_node(NodeId id) const {
    return id < nodes_.size() && nodes_[id].node != nullptr;
  }

  /// Hop distance used for traffic between two nodes.
  [[nodiscard]] unsigned hops_between(NodeId a, NodeId b) const;

  /// Point-to-point send from the node currently processing (or idle).
  /// An unknown or departed destination is a traced drop (drop.no_dest),
  /// not an error: under churn a sender can race a deregistration.
  SendOutcome unicast(NodeId from, NodeId to, Bytes payload);
  /// Flooded broadcast: reaches every node; each hop ring re-transmits.
  SendOutcome broadcast(NodeId from, Bytes payload);

  /// Charge compute time to a node (extends its busy window; subsequent
  /// sends and deliveries queue behind it). The node's compute factor
  /// scales the charge (stragglers run slow).
  void consume_compute(NodeId node, double ms);
  /// Charge one modeled crypto op.
  void consume_op(NodeId node, const ComputeModel& model, CryptoOp op) {
    consume_compute(node, model.cost(op));
  }

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] SimTime now() const { return sim_.now(); }
  /// Earliest time the node is free of queued compute (used to timestamp
  /// when a node's current processing completes).
  [[nodiscard]] SimTime node_free_at(NodeId node) const {
    return slot(node).busy_until;
  }

  /// Node fault controls (driven by the chaos layer). A down node loses
  /// every copy that would reach it — including copies already in flight
  /// or queued behind its busy window — counted as fault_dropped, and its
  /// pending compute is forgotten. Bringing it back up does not resurrect
  /// lost copies. Both controls default to the values that make them
  /// no-ops, so fault-free runs are untouched.
  void set_node_up(NodeId node, bool up);
  /// Straggler dial: multiply the node's future compute charges.
  void set_compute_factor(NodeId node, double factor);

  struct Stats {
    // tx side: sends the nodes attempted.
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;          // payload bytes offered
    std::uint64_t hop_bytes = 0;      // bytes x hops actually carried
    double channel_busy_ms = 0;
    // rx side: what the loss model let through.
    std::uint64_t deliveries = 0;     // copies handed to on_message
    std::uint64_t dropped = 0;        // copies lost in flight
    std::uint64_t duplicates = 0;     // extra copies delivered
    std::uint64_t fault_dropped = 0;  // copies lost to a crashed node
    /// Copies addressed to an unknown/departed node (crash-then-
    /// deregister race under churn); zero unless remove_node is used.
    std::uint64_t no_dest_dropped = 0;
    // Bounded-queue sheds (zero on unbounded networks).
    std::uint64_t queue_rejected = 0;  // arrivals refused at a full queue
    std::uint64_t queue_evicted = 0;   // queued messages displaced by policy
    /// High-water mark of any node's ingress queue (tracked in every mode;
    /// the legacy unbounded queue has a peak too, it was just invisible).
    std::uint64_t queue_peak = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attach observability sinks (null detaches). With no sinks the only
  /// added cost is one pointer test per send/compute call. The tracer
  /// receives "rx" instants at delivery and "compute" spans on busy
  /// nodes; the registry receives per-hop latency, per-message latency,
  /// and per-node busy-time distributions.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Current ingress-queue length of a node (messages parked behind its
  /// busy window). Exposed for backpressure-aware callers and tests.
  [[nodiscard]] std::size_t queue_length(NodeId node) const {
    return slot(node).queue.size();
  }

 private:
  /// Refcounted in-flight payload: every scheduled copy of one send
  /// (per-receiver broadcast copies, loss-model duplicates) shares a
  /// single buffer, freed with the last copy.
  using Frame = std::shared_ptr<const Bytes>;

  struct NodeSlot {
    SimNode* node = nullptr;  // null: slot 0 sentinel or departed node
    unsigned hops = 0;
    SimTime busy_until = 0;
    bool up = true;
    double compute_factor = 1.0;
    IngressQueue queue;  // messages parked behind busy_until
    TimerId wake = 0;    // the queue's one pending wake event; 0: none
    EventKey wake_key;   // where `wake` is armed
  };

  /// Bounds-checked slot access for attached nodes (throws out_of_range
  /// like the map::at it replaced; removed nodes count as unknown).
  NodeSlot& slot(NodeId id);
  const NodeSlot& slot(NodeId id) const;

  /// Reserve the hop-ring channel `ring` for `occupancy` ms starting no
  /// earlier than `earliest`; returns the reserved start time. Each hop
  /// ring is its own contention domain (spatial reuse), so a relay two
  /// hops out does not block fresh transmissions at the subject.
  SimTime reserve_channel(unsigned ring, SimTime earliest, double occupancy);
  void deliver(NodeId from, NodeId to, Frame frame, SimTime arrival);
  /// Run the receiver's handler, or park the message in its ingress queue.
  void process(NodeId from, NodeId to, Frame frame);
  /// Park one arriving message behind the receiver's busy window;
  /// enforces the bounded-queue policy first when queue_depth > 0.
  void park(NodeId from, NodeId to, Frame frame);
  /// Keep the node's one wake event at its queue's front key (arm it,
  /// move it, or leave it where it is).
  void arm(NodeId to);
  /// The node's wake event fired: replay, in key order, every queued
  /// wake-up that is due before the next foreign event — deliver it,
  /// re-park it behind busy_until if the node is busy again, or drop it
  /// if the node died — then re-arm at the next key.
  void wake(NodeId to);
  /// Make room in a full queue per the policy. True if an entry was
  /// evicted; false means the arrival itself must be rejected.
  bool make_room(NodeId to, const Bytes& arriving);
  /// Account one bounded-queue shed (arrival rejected or entry evicted).
  void queue_shed(NodeId from, NodeId to, std::size_t bytes, bool evicted);
  /// True when `to` has a bounded ingress queue that is currently full.
  [[nodiscard]] bool queue_full(NodeId to) const {
    return radio_.queue_depth > 0 &&
           nodes_[to].queue.size() >= radio_.queue_depth;
  }
  /// Account one copy lost to a down node.
  void fault_drop(NodeId from, NodeId to, std::size_t bytes);
  /// Account one copy addressed to an unknown/departed node.
  void no_dest_drop(NodeId from, NodeId to, std::size_t bytes);
  /// Drop `id` from its ring's member list and refresh the max-hops
  /// watermark (used by remove_node / set_node_hops).
  void unindex_ring(NodeId id, unsigned hops);
  double jitter();
  /// One Bernoulli draw from the network DRBG; p <= 0 draws nothing, so
  /// lossless runs consume an unchanged RNG stream.
  bool chance(double p);

  Simulator& sim_;
  RadioParams radio_;
  crypto::HmacDrbg rng_;
  /// Flat node table indexed by NodeId (ids are dense, starting at 1;
  /// slot 0 is an unused sentinel). The hot per-message path is one
  /// vector index, no tree walk.
  std::vector<NodeSlot> nodes_;
  /// rings_[h] lists the attached nodes at hop distance h, in attach
  /// order; max_hops_ is the highest non-empty ring. Maintained
  /// incrementally so broadcast never scans the whole fleet.
  std::vector<std::vector<NodeId>> rings_;
  unsigned max_hops_ = 0;
  NodeId next_id_ = 1;
  std::vector<SimTime> ring_free_;  // per-hop-ring contention domains
  Stats stats_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace argus::net
