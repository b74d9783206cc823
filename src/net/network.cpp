#include "net/network.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace argus::net {

Network::Network(Simulator& sim, RadioParams radio, std::uint64_t seed)
    : sim_(sim), radio_(radio), rng_(crypto::make_rng(seed, "network")) {
  nodes_.resize(1);  // slot 0: NodeId 0 is never issued
}

Network::NodeSlot& Network::slot(NodeId id) {
  if (id == 0 || id >= nodes_.size() || nodes_[id].node == nullptr) {
    throw std::out_of_range("Network: unknown node " + std::to_string(id));
  }
  return nodes_[id];
}

const Network::NodeSlot& Network::slot(NodeId id) const {
  if (id == 0 || id >= nodes_.size() || nodes_[id].node == nullptr) {
    throw std::out_of_range("Network: unknown node " + std::to_string(id));
  }
  return nodes_[id];
}

NodeId Network::add_node(SimNode* node, unsigned hops) {
  const NodeId id = next_id_++;
  node->net_ = this;
  node->id_ = id;
  NodeSlot s;
  s.node = node;
  s.hops = hops;
  nodes_.push_back(std::move(s));
  if (rings_.size() <= hops) rings_.resize(hops + 1);
  rings_[hops].push_back(id);
  if (hops > max_hops_) max_hops_ = hops;
  return id;
}

void Network::unindex_ring(NodeId id, unsigned hops) {
  auto& ring = rings_[hops];
  for (auto it = ring.begin(); it != ring.end(); ++it) {
    if (*it == id) {
      ring.erase(it);
      break;
    }
  }
  while (max_hops_ > 0 && rings_[max_hops_].empty()) --max_hops_;
}

void Network::remove_node(NodeId node) {
  NodeSlot& s = slot(node);
  unindex_ring(node, s.hops);
  s.node->net_ = nullptr;
  s.node = nullptr;  // departed: has_node() is false, slot() throws
  s.up = false;
  s.busy_until = sim_.now();
  // Entries still parked keep their wake keys; each one's wake finds the
  // node gone and records a traced no_dest drop, mirroring how a crash
  // drains its queue.
}

void Network::set_node_hops(NodeId node, unsigned hops) {
  NodeSlot& s = slot(node);
  if (s.hops == hops) return;
  unindex_ring(node, s.hops);
  s.hops = hops;
  if (rings_.size() <= hops) rings_.resize(hops + 1);
  rings_[hops].push_back(node);
  if (hops > max_hops_) max_hops_ = hops;
}

unsigned Network::hops_between(NodeId a, NodeId b) const {
  if (!has_node(a) || !has_node(b)) {
    throw std::invalid_argument("Network: unknown node");
  }
  const unsigned ha = nodes_[a].hops;
  const unsigned hb = nodes_[b].hops;
  const unsigned d = ha > hb ? ha - hb : hb - ha;
  return d == 0 ? 1 : d;  // distinct nodes are at least one hop apart
}

double Network::jitter() {
  if (radio_.jitter_ms <= 0) return 0;
  return radio_.jitter_ms *
         (static_cast<double>(rng_.uniform(1000)) / 1000.0);
}

bool Network::chance(double p) {
  if (p <= 0) return false;  // lossless: no draw, RNG stream unchanged
  if (p >= 1) return true;
  return static_cast<double>(rng_.uniform(1'000'000)) < p * 1e6;
}

SimTime Network::reserve_channel(unsigned ring, SimTime earliest,
                                 double occupancy) {
  if (ring_free_.size() <= ring) ring_free_.resize(ring + 1, 0);
  const SimTime start = std::max(earliest, ring_free_[ring]);
  ring_free_[ring] = start + occupancy;
  stats_.channel_busy_ms += occupancy;
  return start;
}

void Network::deliver(NodeId from, NodeId to, Frame frame, SimTime arrival) {
  sim_.schedule_at(arrival, [this, from, to, frame = std::move(frame)]() mutable {
    if (!has_node(to)) {
      no_dest_drop(from, to, frame->size());
      return;
    }
    if (!nodes_[to].up) {
      fault_drop(from, to, frame->size());
      return;
    }
    if (tracer_) {
      tracer_->instant(sim_.now(), to, "rx", "net", frame->size(), from);
    }
    process(from, to, std::move(frame));
  });
}

void Network::process(NodeId from, NodeId to, Frame frame) {
  NodeSlot& s = nodes_[to];
  // The node may have crashed while the message waited behind its busy
  // window — a queued copy dies with the node.
  if (!s.up) {
    fault_drop(from, to, frame->size());
    return;
  }
  // The node is a serial processor: a mid-compute receiver parks the
  // message in its ingress queue until the busy window ends. busy_until
  // may have moved again by then (another queued message's handler ran
  // first), so wake() re-checks at fire time rather than trusting a
  // snapshot taken at arrival.
  if (s.busy_until > sim_.now()) {
    park(from, to, std::move(frame));
    return;
  }
  ++stats_.deliveries;
  s.node->on_message(from, *frame);
}

void Network::park(NodeId from, NodeId to, Frame frame) {
  NodeSlot& s = nodes_[to];
  if (queue_full(to) && !make_room(to, *frame)) {
    queue_shed(from, to, frame->size(), /*evicted=*/false);
    return;
  }
  // The wake key is the exact stored busy_until plus the seq this park's
  // own wake timer would have taken, so replayed wakes keep that order.
  const EventKey key{s.busy_until, sim_.reserve_seqs(1)};
  s.queue.push(key, {std::move(frame), from, sim_.now()});
  stats_.queue_peak =
      std::max<std::uint64_t>(stats_.queue_peak, s.queue.size());
  if (metrics_) {
    metrics_->histogram("net.queue.depth")
        .observe(static_cast<double>(s.queue.size()));
  }
  arm(to);
}

void Network::arm(NodeId to) {
  NodeSlot& s = nodes_[to];
  const EventKey key = s.queue.front_key();
  if (s.wake != 0) {
    if (s.wake_key == key) return;
    sim_.cancel_timer(s.wake);
  }
  s.wake_key = key;
  s.wake = sim_.schedule_timer_at(key, [this, to] { wake(to); });
}

void Network::wake(NodeId to) {
  nodes_[to].wake = 0;
  for (;;) {
    // Re-read the slot every step: a handler may attach nodes.
    NodeSlot& s = nodes_[to];
    if (s.queue.empty()) return;
    // The front entry's wake is due now only if it is the next event of
    // the whole simulation. The first one always is: this event fired
    // at its key.
    const EventKey key = s.queue.front_key();
    const EventKey next = sim_.next_key();
    if (key.time != sim_.now() || next < key) break;
    if (s.node == nullptr) {
      // Departed while this message sat in its queue.
      const IngressQueue::Entry e = s.queue.pop_front();
      no_dest_drop(e.from, to, e.frame->size());
      continue;
    }
    if (!s.up) {
      const IngressQueue::Entry e = s.queue.pop_front();
      fault_drop(e.from, to, e.frame->size());
      continue;
    }
    if (s.busy_until > sim_.now()) {
      // Still busy (an earlier wake's handler extended the window): each
      // entry goes to the back of the queue again with the next seq. The
      // rest of the front run holds consecutive seqs, so no other event
      // can fall between its wakes, and each would do the same: re-park
      // the whole run in one step.
      s.queue.repark_front(s.busy_until,
                           sim_.reserve_seqs(s.queue.front_run()));
      continue;
    }
    IngressQueue::Entry e = s.queue.pop_front();
    if (metrics_) {
      metrics_->histogram("net.queue.wait_ms")
          .observe(sim_.now() - e.arrived);
    }
    ++stats_.deliveries;
    s.node->on_message(e.from, *e.frame);
  }
  arm(to);
}

bool Network::make_room(NodeId to, const Bytes& arriving) {
  IngressQueue& queue = nodes_[to].queue;
  std::optional<IngressQueue::Entry> victim;
  switch (radio_.queue_policy) {
    case QueuePolicy::kDropTail:
      return false;
    case QueuePolicy::kDropOldest:
      victim = queue.evict_oldest();
      break;
    case QueuePolicy::kPriority:
      // Weakest class loses; newest of the weakest class goes first so
      // the oldest strong entries keep their place in line.
      victim = queue.evict_weakest(IngressQueue::priority(arriving));
      break;
  }
  if (!victim) return false;
  queue_shed(victim->from, to, victim->frame->size(), /*evicted=*/true);
  return true;
}

void Network::queue_shed(NodeId from, NodeId to, std::size_t bytes,
                         bool evicted) {
  if (evicted) {
    ++stats_.queue_evicted;
  } else {
    ++stats_.queue_rejected;
  }
  if (metrics_) {
    metrics_->counter(evicted ? "net.queue.evicted" : "net.queue.rejected")
        .inc();
  }
  if (tracer_) {
    tracer_->instant(sim_.now(), to,
                     evicted ? "drop.queue_evict" : "drop.queue_full", "net",
                     bytes, from);
  }
}

void Network::fault_drop(NodeId from, NodeId to, std::size_t bytes) {
  ++stats_.fault_dropped;
  if (metrics_) metrics_->counter("net.msg.fault_dropped").inc();
  if (tracer_) {
    tracer_->instant(sim_.now(), to, "drop.crashed", "net", bytes, from);
  }
}

void Network::no_dest_drop(NodeId from, NodeId to, std::size_t bytes) {
  ++stats_.no_dest_dropped;
  if (metrics_) metrics_->counter("net.msg.no_dest_dropped").inc();
  if (tracer_) {
    tracer_->instant(sim_.now(), to, "drop.no_dest", "net", bytes, from);
  }
}

void Network::set_node_up(NodeId node, bool up) {
  NodeSlot& s = slot(node);
  s.up = up;
  // A crash forgets in-progress compute; a rebooted node starts idle.
  s.busy_until = sim_.now();
}

void Network::set_compute_factor(NodeId node, double factor) {
  slot(node).compute_factor = factor;
}

SendOutcome Network::unicast(NodeId from, NodeId to, Bytes payload) {
  NodeSlot& src = slot(from);
  if (!has_node(to)) {
    // Crash-then-deregister race: the sender addressed a node that has
    // left the network. A traced drop, not an exception — the sender's
    // retry/timeout machinery handles it like any other lost message.
    no_dest_drop(from, to, payload.size());
    SendOutcome out;
    out.drops = 1;
    return out;
  }
  const unsigned hops = hops_between(from, to);
  const double occupancy =
      static_cast<double>(payload.size()) / radio_.bandwidth_bytes_per_ms;

  stats_.messages += 1;
  stats_.bytes += payload.size();

  // The sender cannot transmit before it finishes computing.
  // The ring index of each traversed hop: between rings min..max-1.
  const unsigned base = std::min(src.hops, nodes_[to].hops);
  const std::size_t size = payload.size();
  SimTime ready = std::max(sim_.now(), src.busy_until);
  SimTime arrival = ready;
  bool lost = false;
  unsigned extra = 0;
  for (unsigned h = 0; h < hops; ++h) {
    const SimTime start = reserve_channel(base + h, arrival, occupancy);
    const SimTime leg_end = start + occupancy + radio_.per_hop_latency_ms + jitter();
    if (metrics_) {
      metrics_->histogram("net.hop_latency_ms").observe(leg_end - arrival);
    }
    arrival = leg_end;
    stats_.hop_bytes += size;  // this leg was transmitted
    // A lost copy still occupied the channel up to the dropping hop; the
    // remaining legs never happen.
    if (chance(radio_.drop_prob)) {
      lost = true;
      break;
    }
    if (chance(radio_.dup_prob)) ++extra;
  }
  SendOutcome out;
  out.congested = queue_full(to);
  if (lost) {
    out.drops = 1;
    ++stats_.dropped;
    if (metrics_) metrics_->counter("net.msg.dropped").inc();
    if (tracer_) {
      tracer_->instant(arrival, to, "drop", "net", size, from);
    }
    return out;
  }
  if (metrics_) {
    metrics_->histogram("net.msg_latency_ms").observe(arrival - ready);
  }
  out.delivered = true;
  out.duplicates = extra;
  const Frame frame = std::make_shared<const Bytes>(std::move(payload));
  for (unsigned c = 0; c < extra; ++c) {
    ++stats_.duplicates;
    if (metrics_) metrics_->counter("net.msg.duplicated").inc();
    deliver(from, to, frame, arrival);
  }
  deliver(from, to, frame, arrival);
  return out;
}

SendOutcome Network::broadcast(NodeId from, Bytes payload) {
  NodeSlot& src = slot(from);
  const double occupancy =
      static_cast<double>(payload.size()) / radio_.bandwidth_bytes_per_ms;

  // Flooding: the hop-h ring re-broadcasts once; ring k's transmission
  // happens after ring k-1 received the message. Channel occupancy is
  // counted once per ring, inside reserve_channel. The ring index keeps
  // the outermost occupied ring as a watermark — no fleet scan.
  const unsigned max_hops = max_hops_;
  const std::size_t size = payload.size();

  const SimTime ready = std::max(sim_.now(), src.busy_until);
  std::vector<SimTime> ring_arrival(max_hops + 1, ready);
  SimTime prev = ready;
  for (unsigned h = 1; h <= max_hops; ++h) {
    const SimTime start = reserve_channel(h - 1, prev, occupancy);
    ring_arrival[h] = start + occupancy + radio_.per_hop_latency_ms + jitter();
    if (metrics_) {
      metrics_->histogram("net.hop_latency_ms").observe(ring_arrival[h] - prev);
    }
    prev = ring_arrival[h];
    stats_.hop_bytes += size;
  }
  stats_.messages += 1;
  stats_.bytes += size;

  // Each receiver's copy crosses its own `hops` legs; a drop on any leg
  // loses that receiver's copy (the ring relays themselves carry on).
  // Delivery is O(members of the reached rings): ring-major, attach
  // order within a ring — identical to the old all-nodes id scan for
  // ring-monotone fleets (see header).
  SendOutcome out;
  const Frame frame = std::make_shared<const Bytes>(std::move(payload));
  for (unsigned ring = 0; ring < rings_.size(); ++ring) {
    for (const NodeId id : rings_[ring]) {
      if (id == from) continue;
      out.congested = out.congested || queue_full(id);
      const unsigned h = std::max(1u, ring);
      const SimTime arrival = ring_arrival[std::min<unsigned>(h, max_hops)];
      bool lost = false;
      unsigned extra = 0;
      for (unsigned leg = 0; leg < h && !lost; ++leg) {
        if (chance(radio_.drop_prob)) {
          lost = true;
        } else if (chance(radio_.dup_prob)) {
          ++extra;
        }
      }
      if (lost) {
        ++out.drops;
        ++stats_.dropped;
        if (metrics_) metrics_->counter("net.msg.dropped").inc();
        if (tracer_) {
          tracer_->instant(arrival, id, "drop", "net", size, from);
        }
        continue;
      }
      out.delivered = true;
      out.duplicates += extra;
      deliver(from, id, frame, arrival);
      for (unsigned c = 0; c < extra; ++c) {
        ++stats_.duplicates;
        if (metrics_) metrics_->counter("net.msg.duplicated").inc();
        deliver(from, id, frame, arrival);
      }
    }
  }
  return out;
}

void Network::consume_compute(NodeId node, double ms) {
  if (ms < 0) throw std::invalid_argument("consume_compute: negative time");
  NodeSlot& s = slot(node);
  // Straggler scaling; factor 1.0 multiplies exactly (IEEE), so healthy
  // nodes charge bit-identical times.
  ms *= s.compute_factor;
  const SimTime start = std::max(s.busy_until, sim_.now());
  s.busy_until = start + ms;
  if (tracer_ && ms > 0) {
    tracer_->begin(start, node, "compute", "compute");
    tracer_->end(start + ms, node);
  }
  if (metrics_) {
    metrics_->histogram("net.compute_ms").observe(ms);
    metrics_->histogram("node.busy_ms." + std::to_string(node)).observe(ms);
  }
}

}  // namespace argus::net
