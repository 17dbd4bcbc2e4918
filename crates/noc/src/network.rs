//! The network front-end: payload ownership, multicast expansion, ejection
//! queues and statistics, on top of one of the three fabric engines.

use crate::config::{NocConfig, RouterKind};
use crate::conventional::ConventionalFabric;
use crate::highradix::HighRadixFabric;
use crate::message::{Delivered, Destination, MulticastGroupId, NetMessage, VirtualNetwork};
use crate::router::{Arrival, FabricEngine, FlightInfo, PacketId};
use crate::smart::SmartFabric;
use crate::stats::NetworkStats;
use crate::topology::{Direction, NodeId};
use crate::vms::MulticastTree;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Error returned by [`Network::inject`] when the source NIC's injection
/// buffer has no space this cycle. It hands the rejected message back to the
/// caller, so retry queues never need to clone speculatively on the hot
/// injection path.
pub struct InjectError<P>(NetMessage<P>);

impl<P> InjectError<P> {
    /// The rejected message, returned by value for a later retry.
    pub fn into_message(self) -> NetMessage<P> {
        self.0
    }

    /// A view of the rejected message.
    pub fn message(&self) -> &NetMessage<P> {
        &self.0
    }
}

impl<P> fmt::Debug for InjectError<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("InjectError(injection buffer full)")
    }
}

impl<P> fmt::Display for InjectError<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("injection buffer full")
    }
}

impl<P> std::error::Error for InjectError<P> {}

enum Fabric {
    Conventional(ConventionalFabric),
    Smart(SmartFabric),
    HighRadix(HighRadixFabric),
}

impl Fabric {
    fn as_engine(&mut self) -> &mut dyn FabricEngine {
        match self {
            Fabric::Conventional(f) => f,
            Fabric::Smart(f) => f,
            Fabric::HighRadix(f) => f,
        }
    }

    fn as_engine_ref(&self) -> &dyn FabricEngine {
        match self {
            Fabric::Conventional(f) => f,
            Fabric::Smart(f) => f,
            Fabric::HighRadix(f) => f,
        }
    }
}

struct PacketRecord<P> {
    msg: NetMessage<P>,
    /// For multicast copies: the direction this copy travels on the XY tree
    /// (None at the root copy spawned by `inject`).
    travelling: Option<Direction>,
}

/// One fabric arrival waiting out its (multi-flit) release time, ordered for
/// the min-heap by `(release cycle, insertion order)`. All arrivals released
/// at one tick share the same release cycle, so the insertion-order tiebreak
/// makes the heap pop order bit-identical to the old in-order scan of the
/// in-flight list.
struct QueuedArrival {
    seq: u64,
    arrival: Arrival,
}

impl PartialEq for QueuedArrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for QueuedArrival {}
impl Ord for QueuedArrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival.now, self.seq).cmp(&(other.arrival.now, other.seq))
    }
}
impl PartialOrd for QueuedArrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A cycle-driven on-chip network carrying messages with payload type `P`.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Network<P> {
    cfg: NocConfig,
    fabric: Fabric,
    cycle: u64,
    groups: Vec<MulticastTree>,
    /// Payloads of the packets inside the network, indexed by [`PacketId`]:
    /// a slab whose vacated slots are recycled through `free_ids`.
    packets: Vec<Option<PacketRecord<P>>>,
    free_ids: Vec<u32>,
    pending: BinaryHeap<Reverse<QueuedArrival>>,
    next_arrival_seq: u64,
    /// Scratch buffer handed to the fabric each tick (avoids a per-cycle
    /// allocation on the hot path).
    arrivals_scratch: Vec<Arrival>,
    /// Scratch for arrivals that complete in the very tick they are produced
    /// (the common single-flit case) — they bypass the heap entirely.
    due_scratch: Vec<Arrival>,
    eject_queues: Vec<VecDeque<Delivered<P>>>,
    /// Total messages sitting in `eject_queues` (lets `eject_all` skip the
    /// per-node scan on quiet cycles).
    ejectable: usize,
    stats: NetworkStats,
}

impl<P: Clone> Network<P> {
    /// Builds a network for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NocConfig::validate`].
    pub fn new(cfg: NocConfig) -> Self {
        cfg.validate().expect("invalid NoC configuration");
        let fabric = match cfg.router {
            RouterKind::Conventional => Fabric::Conventional(ConventionalFabric::new(cfg)),
            RouterKind::Smart => Fabric::Smart(SmartFabric::new(cfg)),
            RouterKind::HighRadix => Fabric::HighRadix(HighRadixFabric::new(cfg)),
        };
        Network {
            cfg,
            fabric,
            cycle: 0,
            groups: Vec::new(),
            packets: Vec::new(),
            free_ids: Vec::new(),
            pending: BinaryHeap::new(),
            next_arrival_seq: 0,
            arrivals_scratch: Vec::new(),
            due_scratch: Vec::new(),
            eject_queues: (0..cfg.mesh.len()).map(|_| VecDeque::new()).collect(),
            ejectable: 0,
            stats: NetworkStats::default(),
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Registers a multicast group (e.g. the home nodes of a virtual mesh)
    /// and returns its id for use in [`Destination::Multicast`].
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn register_multicast_group(&mut self, members: Vec<NodeId>) -> MulticastGroupId {
        let id = MulticastGroupId(self.groups.len() as u32);
        self.groups.push(MulticastTree::new(self.cfg.mesh, members));
        id
    }

    /// Members of a previously registered multicast group.
    ///
    /// # Panics
    ///
    /// Panics if the group id was not returned by this network.
    pub fn multicast_members(&self, group: MulticastGroupId) -> &[NodeId] {
        self.groups[group.0 as usize].members()
    }

    /// Whether the injection port at `node` can accept a message on `vn`
    /// this cycle.
    pub fn can_inject(&self, node: NodeId, vn: VirtualNetwork) -> bool {
        self.fabric.as_engine_ref().can_accept(node, vn)
    }

    /// Injects a message.
    ///
    /// Unicast messages whose source equals their destination are delivered
    /// locally with a 1-cycle latency without entering the fabric.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] — carrying the rejected message back to the
    /// caller — if the source injection buffer is full; the caller should
    /// retry on a later cycle (this is how back-pressure propagates into the
    /// cache controllers).
    ///
    /// # Panics
    ///
    /// Panics if a multicast destination names an unregistered group or the
    /// source is not a member of the group.
    pub fn inject(&mut self, msg: NetMessage<P>) -> Result<(), InjectError<P>> {
        match msg.dest {
            Destination::Unicast(dest) if dest == msg.src => {
                self.stats.injected_messages += 1;
                let delivered = Delivered {
                    receiver: dest,
                    injected_at: self.cycle,
                    ejected_at: self.cycle + 1,
                    latency: 1,
                    stops: 0,
                    msg,
                };
                self.stats
                    .record_delivery(delivered.msg.vn, 1, 0);
                self.eject_queues[dest.index()].push_back(delivered);
                self.ejectable += 1;
                Ok(())
            }
            Destination::Unicast(dest) => {
                if !self.can_inject(msg.src, msg.vn) {
                    return Err(InjectError(msg));
                }
                self.stats.injected_messages += 1;
                let flight = self.fresh_flight(&msg, dest);
                self.launch(
                    PacketRecord {
                        msg,
                        travelling: None,
                    },
                    flight,
                );
                Ok(())
            }
            Destination::Multicast(group) => {
                assert!(
                    (group.0 as usize) < self.groups.len(),
                    "unregistered multicast group {group:?}"
                );
                if !self.can_inject(msg.src, msg.vn) {
                    return Err(InjectError(msg));
                }
                assert!(
                    self.groups[group.0 as usize].contains(msg.src),
                    "multicast source {} is not a member of its group",
                    msg.src
                );
                self.stats.injected_messages += 1;
                for (dir, next) in self.groups[group.0 as usize].children(msg.src, None) {
                    let flight = self.fresh_flight(&msg, next);
                    self.stats.multicast_forks += 1;
                    self.launch(
                        PacketRecord {
                            msg: msg.clone(),
                            travelling: Some(dir),
                        },
                        flight,
                    );
                }
                Ok(())
            }
        }
    }

    /// The flight of `msg` leaving its source for `dest` this cycle (its id
    /// is assigned by [`Network::launch`]).
    fn fresh_flight(&self, msg: &NetMessage<P>, dest: NodeId) -> FlightInfo {
        FlightInfo {
            id: PacketId(0),
            src: msg.src,
            dest,
            vn: msg.vn,
            flits: self.cfg.flits_for(msg.size_bytes),
            injected_at: self.cycle,
            stops: 0,
        }
    }

    /// Stores `record` in a free packet-table slot and injects `flight`
    /// under that slot's id.
    fn launch(&mut self, record: PacketRecord<P>, flight: FlightInfo) {
        let slot = match self.free_ids.pop() {
            Some(slot) => {
                self.packets[slot as usize] = Some(record);
                slot
            }
            None => {
                self.packets.push(Some(record));
                (self.packets.len() - 1) as u32
            }
        };
        let flight = FlightInfo {
            id: PacketId(slot),
            ..flight
        };
        self.fabric.as_engine().inject(flight, self.cycle);
    }

    /// Advances the network by one cycle.
    pub fn tick(&mut self) {
        let mut arrivals = std::mem::take(&mut self.arrivals_scratch);
        let mut due = std::mem::take(&mut self.due_scratch);
        debug_assert!(arrivals.is_empty() && due.is_empty());
        self.fabric.as_engine().tick(self.cycle, &mut arrivals);
        // Fabric arrival times are always in the future (`> self.cycle`);
        // those due on the very next cycle — the common single-flit case —
        // bypass the heap. Heap entries released this tick are all timed at
        // exactly `cycle + 1` too (earlier ones were released last tick) and
        // carry smaller sequence numbers, so "heap first, then fresh
        // arrivals in production order" reproduces the naive in-order scan
        // of the old in-flight list bit for bit.
        for arrival in arrivals.drain(..) {
            debug_assert!(arrival.now > self.cycle);
            if arrival.now == self.cycle + 1 {
                due.push(arrival);
            } else {
                let seq = self.next_arrival_seq;
                self.next_arrival_seq += 1;
                self.pending.push(Reverse(QueuedArrival { seq, arrival }));
            }
        }
        self.arrivals_scratch = arrivals;
        self.cycle += 1;
        // Release arrivals whose (possibly multi-flit) arrival time has been
        // reached — an O(log n) heap pop per due arrival instead of the old
        // O(in-flight) re-partition of the whole list every cycle.
        while let Some(Reverse(q)) = self.pending.peek() {
            if q.arrival.now > self.cycle {
                break;
            }
            let Reverse(q) = self.pending.pop().expect("peeked element");
            self.complete(q.arrival);
        }
        for i in 0..due.len() {
            self.complete(due[i]);
        }
        due.clear();
        self.due_scratch = due;
    }

    /// Earliest cycle `>= self.cycle` at which [`Network::tick`] can change
    /// state (release a queued arrival or move a packet inside the fabric),
    /// or `None` when the network is fully quiescent. Event-driven callers
    /// use this to skip dead cycles via [`Network::advance_to`].
    ///
    /// The bound holds under *partial occupancy*: the queued-arrival heap
    /// front (multi-flit releases, high-radix pipeline exits) is folded with
    /// the fabric engine's per-head probe, so a network holding blocked or
    /// serializing packets still reports a future horizon instead of
    /// degenerating to "busy". Already-delivered messages waiting in
    /// ejection queues are not events — ticking never changes them — so
    /// callers that skip must drain ejections first (debug-checked by
    /// [`Network::advance_to`]).
    pub fn next_event(&self) -> Option<u64> {
        // An arrival with release time `t` is completed by the tick that
        // runs *during* cycle `t - 1` (tick increments the clock first), so
        // that is the cycle the caller must not skip past.
        let pending = self
            .pending
            .peek()
            .map(|Reverse(q)| q.arrival.now.saturating_sub(1).max(self.cycle));
        let fabric = self.fabric.as_engine_ref().next_event(self.cycle);
        match (pending, fabric) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fast-forwards the network clock to `cycle` without simulating the
    /// cycles in between.
    ///
    /// The caller must guarantee the skipped range is dead time: no cycle in
    /// `self.cycle..cycle` may be one at which [`Network::tick`] would have
    /// changed state (i.e. `cycle` must not exceed [`Network::next_event`]),
    /// and all ejection queues must have been drained. Both are debug-checked.
    pub fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.cycle, "advance_to must move forward");
        debug_assert!(
            self.next_event().is_none_or(|e| e >= cycle),
            "advance_to would skip a live network event"
        );
        debug_assert!(self.ejectable == 0, "advance_to with undelivered ejections");
        self.cycle = cycle;
    }

    fn complete(&mut self, arrival: Arrival) {
        let slot = arrival.flight.id.0;
        let record = self.packets[slot as usize]
            .take()
            .expect("arrival for unknown packet");
        self.free_ids.push(slot);
        let latency = arrival.now.saturating_sub(arrival.flight.injected_at);
        self.stats
            .record_delivery(record.msg.vn, latency, arrival.flight.stops);
        // Multicast: spawn children before delivering this copy.
        if let (Destination::Multicast(group), Some(dir)) = (record.msg.dest, record.travelling) {
            for (cdir, next) in self.groups[group.0 as usize].children(arrival.at, Some(dir)) {
                self.stats.multicast_forks += 1;
                self.launch(
                    PacketRecord {
                        msg: record.msg.clone(),
                        travelling: Some(cdir),
                    },
                    FlightInfo {
                        src: arrival.at,
                        dest: next,
                        ..arrival.flight
                    },
                );
            }
        }
        let delivered = Delivered {
            receiver: arrival.at,
            injected_at: arrival.flight.injected_at,
            ejected_at: arrival.now,
            latency,
            stops: arrival.flight.stops,
            msg: record.msg,
        };
        self.eject_queues[arrival.at.index()].push_back(delivered);
        self.ejectable += 1;
    }

    /// Drains all messages delivered at `node`.
    pub fn eject(&mut self, node: NodeId) -> Vec<Delivered<P>> {
        let drained: Vec<Delivered<P>> = self.eject_queues[node.index()].drain(..).collect();
        self.ejectable -= drained.len();
        drained
    }

    /// Drains all delivered messages across every node into `out`
    /// (allocation-free once `out` has warmed up its capacity).
    pub fn eject_all_into(&mut self, out: &mut Vec<Delivered<P>>) {
        if self.ejectable == 0 {
            return;
        }
        out.reserve(self.ejectable);
        for q in &mut self.eject_queues {
            while let Some(d) = q.pop_front() {
                out.push(d);
            }
        }
        self.ejectable = 0;
    }

    /// Drains all delivered messages across every node.
    pub fn eject_all(&mut self) -> Vec<Delivered<P>> {
        let mut out = Vec::new();
        self.eject_all_into(&mut out);
        out
    }

    /// Whether any packet is still inside the fabric or waiting in an
    /// ejection queue.
    pub fn is_busy(&self) -> bool {
        self.in_flight() > 0 || self.ejectable > 0
    }

    /// Number of packets currently travelling through the fabric (including
    /// arrivals not yet released to an ejection queue), excluding already
    /// delivered messages waiting to be ejected.
    pub fn in_flight(&self) -> usize {
        self.fabric.as_engine_ref().in_flight() + self.pending.len()
    }

    /// Aggregate statistics: a snapshot of the front-end delivery stats with
    /// the fabric's live event counters folded into
    /// [`NetworkStats::fabric`].
    pub fn stats(&self) -> NetworkStats {
        let mut stats = self.stats.clone();
        stats.fabric = *self.fabric.as_engine_ref().counters();
        stats
    }
}

impl<P> fmt::Debug for Network<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("cfg", &self.cfg)
            .field("cycle", &self.cycle)
            .field("in_flight", &(self.packets.len() - self.free_ids.len()))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Coord, Mesh};
    use crate::vms::VirtualMesh;

    fn run_until_quiet<P: Clone>(net: &mut Network<P>, limit: u64) {
        let mut cycles = 0;
        loop {
            net.tick();
            cycles += 1;
            assert!(cycles < limit, "network did not drain within {limit} cycles");
            if net.in_flight() == 0 {
                break;
            }
        }
    }

    #[test]
    fn unicast_delivery_on_all_router_kinds() {
        for cfg in [
            NocConfig::smart_mesh(8, 8, 4),
            NocConfig::conventional_mesh(8, 8),
            NocConfig::highradix_mesh(8, 8, 4),
        ] {
            let mut net: Network<u32> = Network::new(cfg);
            net.inject(NetMessage::unicast(
                NodeId(0),
                NodeId(63),
                VirtualNetwork::Request,
                8,
                7,
            ))
            .unwrap();
            let mut got = Vec::new();
            for _ in 0..200 {
                net.tick();
                got.extend(net.eject(NodeId(63)));
                if !got.is_empty() {
                    break;
                }
            }
            assert_eq!(got.len(), 1, "router {:?}", cfg.router);
            assert_eq!(got[0].msg.payload, 7);
            assert!(got[0].latency > 0);
        }
    }

    #[test]
    fn self_message_is_delivered_locally() {
        let mut net: Network<&str> = Network::new(NocConfig::smart_mesh(4, 4, 4));
        net.inject(NetMessage::unicast(
            NodeId(5),
            NodeId(5),
            VirtualNetwork::Response,
            40,
            "hi",
        ))
        .unwrap();
        let got = net.eject(NodeId(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].latency, 1);
    }

    #[test]
    fn vms_broadcast_reaches_every_other_home_node() {
        let mesh = Mesh::new(8, 8);
        let vms = VirtualMesh::new(mesh, 4, 4, Coord::new(1, 1));
        let mut net: Network<u8> = Network::new(NocConfig::smart_mesh(8, 8, 4));
        let group = net.register_multicast_group(vms.members().to_vec());
        let root = vms.home_for(NodeId(0));
        net.inject(NetMessage::multicast(
            root,
            group,
            VirtualNetwork::Broadcast,
            8,
            1,
        ))
        .unwrap();
        run_until_quiet(&mut net, 500);
        let mut receivers = Vec::new();
        for &m in vms.members() {
            for d in net.eject(m) {
                receivers.push(d.receiver);
                // Figure 3: the whole broadcast completes within a handful of
                // SMART-hops; allow some slack for fork arbitration.
                assert!(d.latency <= 20, "latency {}", d.latency);
            }
        }
        receivers.sort_unstable();
        let mut expected: Vec<NodeId> = vms
            .members()
            .iter()
            .copied()
            .filter(|&m| m != root)
            .collect();
        expected.sort_unstable();
        assert_eq!(receivers, expected);
    }

    #[test]
    fn broadcast_on_16_cluster_vms_covers_all() {
        let mesh = Mesh::new(16, 16);
        let vms = VirtualMesh::new(mesh, 4, 4, Coord::new(0, 0));
        let mut net: Network<u8> = Network::new(NocConfig::smart_mesh(16, 16, 4));
        let group = net.register_multicast_group(vms.members().to_vec());
        let root = vms.members()[0];
        net.inject(NetMessage::multicast(
            root,
            group,
            VirtualNetwork::Broadcast,
            8,
            0,
        ))
        .unwrap();
        run_until_quiet(&mut net, 2000);
        let delivered: usize = vms.members().iter().map(|&m| net.eject(m).len()).sum();
        assert_eq!(delivered, 15);
    }

    #[test]
    fn stats_accumulate() {
        let mut net: Network<u8> = Network::new(NocConfig::smart_mesh(4, 4, 4));
        for i in 0..4u16 {
            net.inject(NetMessage::unicast(
                NodeId(i),
                NodeId(15 - i),
                VirtualNetwork::Request,
                8,
                0,
            ))
            .unwrap();
        }
        run_until_quiet(&mut net, 500);
        net.eject_all();
        assert_eq!(net.stats().injected_messages, 4);
        assert_eq!(net.stats().delivered_copies, 4);
        assert!(net.stats().avg_latency() > 0.0);
        // The snapshot carries the fabric's event counters.
        let stats = net.stats();
        assert_eq!(stats.fabric, *net.fabric.as_engine_ref().counters());
        assert!(stats.fabric.ssr_broadcasts >= 4, "SMART fabric issues SSRs");
        assert!(stats.fabric.buffer_writes >= 4, "one write per injection");
    }

    #[test]
    fn backpressure_limits_injection() {
        let cfg = NocConfig::smart_mesh(4, 4, 4);
        let mut net: Network<u8> = Network::new(cfg);
        let mut accepted = 0;
        // Flood a single source without ever ticking; eventually the
        // injection queue fills up.
        for _ in 0..1000 {
            match net.inject(NetMessage::unicast(
                NodeId(0),
                NodeId(15),
                VirtualNetwork::Request,
                8,
                0,
            )) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    // The rejected message comes back by value for retry.
                    assert_eq!(e.message().src, NodeId(0));
                    assert_eq!(e.into_message().dest, Destination::Unicast(NodeId(15)));
                    break;
                }
            }
        }
        assert!(accepted >= cfg.vn_buffer_capacity() as u64);
        assert!(accepted < 1000);
    }

    #[test]
    fn next_event_tracks_queued_arrivals_and_quiescence() {
        let mut net: Network<u8> = Network::new(NocConfig::smart_mesh(8, 8, 4));
        assert_eq!(net.next_event(), None, "an empty network has no events");
        net.inject(NetMessage::unicast(
            NodeId(0),
            NodeId(4),
            VirtualNetwork::Request,
            8,
            9,
        ))
        .unwrap();
        // The injected packet becomes switch-eligible at cycle 1.
        assert_eq!(net.next_event(), Some(1));
        net.advance_to(1);
        run_until_quiet(&mut net, 50);
        assert_eq!(net.eject(NodeId(4)).len(), 1);
        assert_eq!(net.next_event(), None, "drained network is quiescent again");
    }
}
