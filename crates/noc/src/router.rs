//! The router core shared by all three fabric engines (conventional, SMART,
//! high-radix): input-port buffers, the active-router set, link occupancy,
//! round-robin arbiters, the phase-1 switch-allocation scan and the
//! `next_event` head probe.
//!
//! An engine keeps only its policy: the reach of a route ([`RouteTable`]),
//! an extra eligibility check for a head ([`SwitchPolicy::eligible`]) and
//! what happens to the winners ([`FabricEngine::tick`]).
//!
//! A head's route depends only on the pair (router, destination), so it is
//! computed once when the packet is pushed into a lane and cached with it;
//! each lane also caches a copy of its front, so the per-cycle scan reads
//! one flat array per router and never divides or follows a queue pointer.

use crate::config::NocConfig;
use crate::message::VirtualNetwork;
use crate::stats::FabricCounters;
use crate::topology::{Coord, Direction, Mesh, NodeId};
use std::collections::VecDeque;

/// Input ports per router: four cardinal directions plus the local port.
pub const PORTS: usize = 5;

/// Lanes per router: one FIFO per (input port, virtual network).
pub const LANES: usize = PORTS * VirtualNetwork::ALL.len();

/// Identity of a packet (or of one multicast child copy) while it is inside
/// the network. Opaque: the network recycles ids of delivered packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub(crate) u32);

/// Routing/timing descriptor of a packet in flight. The payload itself stays
/// in the [`crate::Network`]'s packet table; engines only move these
/// light-weight descriptors through router buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightInfo {
    /// Packet identity (keys into the network's packet table).
    pub id: PacketId,
    /// Node where this packet (copy) entered the network.
    pub src: NodeId,
    /// Destination router of the current segment.
    pub dest: NodeId,
    /// Virtual network.
    pub vn: VirtualNetwork,
    /// Number of flits (serialization cycles per link).
    pub flits: u32,
    /// Cycle the original message was injected.
    pub injected_at: u64,
    /// Number of routers at which the packet has been buffered so far.
    pub stops: u32,
}

/// A packet that reached the destination router of its current segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The packet descriptor.
    pub flight: FlightInfo,
    /// Router at which it arrived (always `flight.dest`).
    pub at: NodeId,
    /// Cycle of arrival.
    pub now: u64,
}

/// The next leg of a buffered packet's XY route, as seen from the router
/// holding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Output direction (never `Local`: a buffered packet is never at its
    /// destination).
    pub dir: Direction,
    /// Hops the leg covers: the remaining distance in the current dimension,
    /// clamped to the fabric's reach.
    pub hops: u16,
    /// Router reached after `hops` hops.
    pub landing: NodeId,
    /// Outgoing link slot the leg needs (see [`RouteTable::new`]).
    pub link: u16,
}

/// XY routes computed from a per-node coordinate table built once, so
/// routing a pushed packet costs a few compares and no division.
#[derive(Debug, Clone)]
pub struct RouteTable {
    coords: Vec<Coord>,
    width: u16,
    reach: u16,
    express: bool,
}

impl RouteTable {
    /// Routes for `mesh` whose legs cover up to `reach` hops. A router has
    /// one outgoing link per cardinal direction, or with `express` one per
    /// (direction, span) for spans `1..=reach`.
    pub fn new(mesh: Mesh, reach: u16, express: bool) -> Self {
        assert!(reach >= 1, "routes need a reach of at least one hop");
        RouteTable {
            coords: mesh.nodes().map(|n| mesh.coord(n)).collect(),
            width: mesh.width(),
            reach,
            express,
        }
    }

    /// Outgoing link slots per direction.
    fn spans(&self) -> u16 {
        if self.express {
            self.reach
        } else {
            1
        }
    }

    /// Number of outgoing link slots per router.
    pub fn links_per_node(&self) -> usize {
        4 * usize::from(self.spans())
    }

    /// The leg from `at` towards `dest` (`at != dest`): X first, then Y.
    pub fn route(&self, at: NodeId, dest: NodeId) -> Route {
        debug_assert_ne!(at, dest, "a packet at its destination has no route");
        let (f, t) = (self.coords[at.index()], self.coords[dest.index()]);
        let (dir, remaining) = if t.x > f.x {
            (Direction::East, t.x - f.x)
        } else if t.x < f.x {
            (Direction::West, f.x - t.x)
        } else if t.y > f.y {
            (Direction::North, t.y - f.y)
        } else {
            (Direction::South, f.y - t.y)
        };
        let hops = remaining.min(self.reach);
        Route {
            dir,
            hops,
            landing: self.advance(at, dir, hops),
            link: dir.index() as u16 * self.spans() + if self.express { hops - 1 } else { 0 },
        }
    }

    /// The router `n` hops from `from` in cardinal direction `dir`; the
    /// caller guarantees it lies inside the mesh.
    pub fn advance(&self, from: NodeId, dir: Direction, n: u16) -> NodeId {
        let step = match dir {
            Direction::East | Direction::West => n,
            Direction::North | Direction::South => n * self.width,
            Direction::Local => 0,
        };
        let to = match dir {
            Direction::East | Direction::North => from.0 + step,
            _ => from.0 - step,
        };
        debug_assert!(usize::from(to) < self.coords.len(), "advanced off the mesh");
        NodeId(to)
    }
}

/// One buffered packet, not eligible for switch allocation before
/// `ready_at` (models link traversal and serialization of body flits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffered {
    /// Packet descriptor.
    pub flight: FlightInfo,
    /// First cycle at which the packet may compete for the switch.
    pub ready_at: u64,
    /// The packet's next leg from the router holding it.
    pub route: Route,
}

/// Placeholder for lanes whose cached head is not live.
const VACANT: Buffered = Buffered {
    flight: FlightInfo {
        id: PacketId(0),
        src: NodeId(0),
        dest: NodeId(0),
        vn: VirtualNetwork::Request,
        flits: 0,
        injected_at: 0,
        stops: 0,
    },
    ready_at: u64::MAX,
    route: Route {
        dir: Direction::Local,
        hops: 0,
        landing: NodeId(0),
        link: 0,
    },
};

/// Lane index of (`port`, `vn`): port-major, so lane order is the order in
/// which round-robin arbitration rotates.
pub fn lane(port: usize, vn: VirtualNetwork) -> usize {
    debug_assert!(port < PORTS);
    port * VirtualNetwork::ALL.len() + vn.index()
}

/// Input buffers of one router: one FIFO per lane. Capacity is
/// `vcs_per_vn * vc_depth` packets per FIFO, mirroring the VC organization
/// of Table 1 at packet granularity.
#[derive(Debug, Clone)]
pub struct InputBuffers {
    queues: Vec<VecDeque<Buffered>>,
    /// A copy of each occupied lane's front, refreshed on push-to-empty and
    /// on pop.
    heads: Vec<Buffered>,
    capacity: usize,
    /// Bit `i` set iff lane `i` holds at least one packet.
    occupied: u32,
}

impl InputBuffers {
    /// Creates the [`LANES`] FIFOs of one router.
    pub fn new(capacity: usize) -> Self {
        InputBuffers {
            queues: vec![VecDeque::new(); LANES],
            heads: vec![VACANT; LANES],
            capacity,
            occupied: 0,
        }
    }

    /// Whether `lane` has room for another packet.
    pub fn has_space(&self, lane: usize) -> bool {
        self.queues[lane].len() < self.capacity
    }

    /// Current occupancy of `lane`.
    pub fn occupancy(&self, lane: usize) -> usize {
        self.queues[lane].len()
    }

    /// Pushes a packet, regardless of capacity (capacity is enforced at
    /// allocation time; premature SMART stops are allowed to overflow).
    pub fn push(&mut self, lane: usize, b: Buffered) {
        let q = &mut self.queues[lane];
        if q.is_empty() {
            self.heads[lane] = b;
            self.occupied |= 1 << lane;
        }
        q.push_back(b);
    }

    /// The cached front of `lane`, or `None` when it is empty.
    pub fn head(&self, lane: usize) -> Option<&Buffered> {
        (self.occupied & (1 << lane) != 0).then(|| &self.heads[lane])
    }

    /// Pops the front of `lane`.
    pub fn pop(&mut self, lane: usize) -> Option<Buffered> {
        let q = &mut self.queues[lane];
        let popped = q.pop_front()?;
        match q.front() {
            Some(&next) => self.heads[lane] = next,
            None => self.occupied &= !(1 << lane),
        }
        Some(popped)
    }

    /// Bitmask of the non-empty lanes.
    pub fn occupied(&self) -> u32 {
        self.occupied
    }

    /// Whether the router holds no packets at all.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }
}

/// Indices of the set bits of `mask`, ascending.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// A dense bitset over router indices tracking which routers currently hold
/// at least one buffered packet, so the per-cycle loops cost O(active)
/// rather than O(nodes).
#[derive(Debug, Clone)]
pub struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// Creates an empty set over `n` routers.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Marks router `i` as holding packets.
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Marks router `i` as empty.
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Iterates the marked router indices in ascending order (matching a
    /// full scan in node order, so arbitration sequencing is unchanged).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.words.iter().enumerate())
            .flat_map(|(w, &bits)| set_bits(bits).map(move |b| w * 64 + b))
    }
}

/// Round-robin arbitration pointer over up to 32 requesters.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    last: usize,
}

impl RoundRobin {
    /// Creates a fresh arbiter.
    pub fn new() -> Self {
        RoundRobin::default()
    }

    /// Picks one requester of `candidates` (bit `i` = requester `i`, all
    /// below `space <= 32`): the first set bit at or after the previous
    /// winner plus one, wrapping, so grants rotate fairly.
    pub fn pick(&mut self, candidates: u32, space: usize) -> Option<usize> {
        if candidates == 0 || space == 0 {
            return None;
        }
        debug_assert!(space <= 32 && u64::from(candidates) >> space == 0);
        let start = (self.last + 1) % space;
        let after = candidates & (u32::MAX << start);
        let winner = if after != 0 { after } else { candidates }.trailing_zeros() as usize;
        self.last = winner;
        Some(winner)
    }
}

/// Tracks when each outgoing link becomes free again (a packet of `n` flits
/// holds its links for `n` cycles).
#[derive(Debug, Clone)]
pub struct LinkOccupancy {
    busy_until: Vec<u64>,
    links_per_node: usize,
}

impl LinkOccupancy {
    /// Creates occupancy tracking for `nodes` routers with `links_per_node`
    /// outgoing links each.
    pub fn new(nodes: usize, links_per_node: usize) -> Self {
        LinkOccupancy {
            busy_until: vec![0; nodes * links_per_node],
            links_per_node,
        }
    }

    fn idx(&self, node: NodeId, link: usize) -> usize {
        debug_assert!(link < self.links_per_node);
        node.index() * self.links_per_node + link
    }

    /// Whether the given outgoing link of `node` is free at `now`.
    pub fn is_free(&self, node: NodeId, link: usize, now: u64) -> bool {
        self.busy_until[self.idx(node, link)] <= now
    }

    /// First cycle at which the given outgoing link of `node` is free again
    /// (`is_free(node, link, t)` holds for every `t >= free_at(node, link)`).
    pub fn free_at(&self, node: NodeId, link: usize) -> u64 {
        self.busy_until[self.idx(node, link)]
    }

    /// Marks the link busy until `until`.
    pub fn occupy(&mut self, node: NodeId, link: usize, until: u64) {
        let idx = self.idx(node, link);
        self.busy_until[idx] = self.busy_until[idx].max(until);
    }
}

/// What an engine adds to the shared switch allocation.
pub trait SwitchPolicy {
    /// Extra eligibility of a ready head at `node` whose output link is
    /// free (e.g. downstream buffer space). `buffers` are every router's
    /// buffers, indexed by node.
    fn eligible(&self, _buffers: &[InputBuffers], _node: NodeId, _head: &Buffered) -> bool {
        true
    }

    /// Records a winner: the head of `lane` at `node`. Called in (router,
    /// direction) order; the head stays buffered until the engine pops it.
    fn grant(&mut self, node: NodeId, lane: usize, head: &Buffered);
}

/// Per-router state shared by every fabric engine.
#[derive(Debug)]
pub struct RouterCore {
    /// Route computation for pushed packets.
    pub routes: RouteTable,
    /// Input buffers, indexed by node.
    pub buffers: Vec<InputBuffers>,
    active: ActiveSet,
    /// One arbiter per (router, cardinal output direction).
    arbiters: Vec<RoundRobin>,
    /// Outgoing link occupancy, slots as laid out by [`RouteTable::new`].
    pub links: LinkOccupancy,
    in_flight: usize,
    /// Micro-architectural event counters.
    pub counters: FabricCounters,
}

impl RouterCore {
    /// A core for `cfg`'s mesh with the given route reach and link layout
    /// (see [`RouteTable::new`]).
    pub fn new(cfg: &NocConfig, reach: u16, express: bool) -> Self {
        let nodes = cfg.mesh.len();
        let routes = RouteTable::new(cfg.mesh, reach, express);
        RouterCore {
            links: LinkOccupancy::new(nodes, routes.links_per_node()),
            routes,
            buffers: (0..nodes)
                .map(|_| InputBuffers::new(cfg.vn_buffer_capacity()))
                .collect(),
            active: ActiveSet::new(nodes),
            arbiters: vec![RoundRobin::new(); nodes * 4],
            in_flight: 0,
            counters: FabricCounters::default(),
        }
    }

    /// Number of packets inside the fabric.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Buffers `flight` at `node`'s input `port`, routing it from there.
    pub fn push(&mut self, node: NodeId, port: Direction, flight: FlightInfo, ready_at: u64) {
        let route = self.routes.route(node, flight.dest);
        self.buffers[node.index()].push(
            lane(port.index(), flight.vn),
            Buffered {
                flight,
                ready_at,
                route,
            },
        );
        self.active.set(node.index());
        self.counters.buffer_writes += 1;
    }

    /// Pops the head of `lane` at `node` to send it out (one buffer read).
    pub fn pop(&mut self, node: NodeId, lane: usize) -> Buffered {
        let bufs = &mut self.buffers[node.index()];
        let b = bufs.pop(lane).expect("granted lane holds a packet");
        if bufs.is_empty() {
            self.active.clear(node.index());
        }
        self.counters.buffer_reads += 1;
        b
    }

    /// `flight` reaches router `at` through input `port` and counts a stop:
    /// it ejects at `arrive_at` if `at` is its segment's destination,
    /// otherwise it is buffered there, switch-eligible from `ready_at`.
    pub fn land(
        &mut self,
        mut flight: FlightInfo,
        at: NodeId,
        port: Direction,
        arrive_at: u64,
        ready_at: u64,
        arrivals: &mut Vec<Arrival>,
    ) {
        flight.stops += 1;
        if at == flight.dest {
            self.in_flight -= 1;
            arrivals.push(Arrival {
                flight,
                at,
                now: arrive_at,
            });
        } else {
            self.push(at, port, flight, ready_at);
        }
    }

    /// Phase 1 of a tick: at every active router, bucket the ready heads
    /// whose output link is free and that `policy` deems eligible into one
    /// lane mask per output direction, then grant one head per direction
    /// round-robin. A head's route does not depend on the direction being
    /// arbitrated, so one pass per router suffices; masks hold lanes in
    /// lane order, so grants equal a one-scan-per-direction formulation.
    pub fn allocate(&mut self, now: u64, policy: &mut impl SwitchPolicy) {
        let RouterCore {
            buffers,
            active,
            arbiters,
            links,
            ..
        } = self;
        for node_idx in active.iter() {
            let node = NodeId(node_idx as u16);
            let bufs = &buffers[node_idx];
            debug_assert!(!bufs.is_empty(), "active set out of sync");
            let mut masks = [0u32; 4];
            for lane in set_bits(u64::from(bufs.occupied)) {
                let head = &bufs.heads[lane];
                if head.ready_at <= now
                    && links.is_free(node, usize::from(head.route.link), now)
                    && policy.eligible(buffers, node, head)
                {
                    masks[head.route.dir.index()] |= 1 << lane;
                }
            }
            for (d, &mask) in masks.iter().enumerate() {
                if let Some(lane) = arbiters[node_idx * 4 + d].pick(mask, LANES) {
                    policy.grant(node, lane, &bufs.heads[lane]);
                }
            }
        }
    }

    /// The shared event-horizon probe: a head can move no earlier than when
    /// it is switch-eligible and its output link is free. See
    /// [`FabricEngine::next_event`].
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        for node_idx in self.active.iter() {
            let node = NodeId(node_idx as u16);
            let bufs = &self.buffers[node_idx];
            for lane in set_bits(u64::from(bufs.occupied)) {
                let head = &bufs.heads[lane];
                let e = head
                    .ready_at
                    .max(self.links.free_at(node, usize::from(head.route.link)))
                    .max(now);
                if e == now {
                    return Some(now);
                }
                next = Some(next.map_or(e, |n| n.min(e)));
            }
        }
        next
    }
}

/// Downstream back-pressure for the engines that buffer at every stop
/// (conventional, high-radix): a head is eligible only while its landing
/// router's input lane has room, counting slots reserved by earlier winners
/// this cycle. The winners are collected in `grants`.
#[derive(Debug)]
pub struct Backpressure {
    capacity: usize,
    /// Whether a head landing at its destination skips the check (it ejects
    /// instead of being buffered).
    exempt_dest: bool,
    /// Slots reserved this cycle, indexed by `node * LANES + lane`; only the
    /// dirtied entries are reset.
    reserved: Vec<u8>,
    dirty: Vec<usize>,
    /// This cycle's winners as `(router, lane)`, in grant order.
    pub grants: Vec<(NodeId, usize)>,
}

impl Backpressure {
    /// Back-pressure state for `cfg`'s mesh.
    pub fn new(cfg: &NocConfig, exempt_dest: bool) -> Self {
        Backpressure {
            capacity: cfg.vn_buffer_capacity(),
            exempt_dest,
            reserved: vec![0; cfg.mesh.len() * LANES],
            dirty: Vec::new(),
            grants: Vec::new(),
        }
    }

    /// The landing router and input lane `head` would occupy.
    fn slot(head: &Buffered) -> (usize, usize) {
        let port = head.route.dir.opposite().index();
        (head.route.landing.index(), lane(port, head.flight.vn))
    }

    /// Forgets this cycle's reservations.
    pub fn reset(&mut self) {
        for idx in self.dirty.drain(..) {
            self.reserved[idx] = 0;
        }
    }
}

impl SwitchPolicy for Backpressure {
    fn eligible(&self, buffers: &[InputBuffers], _node: NodeId, head: &Buffered) -> bool {
        let (at, l) = Self::slot(head);
        (self.exempt_dest && head.route.landing == head.flight.dest)
            || buffers[at].occupancy(l) + usize::from(self.reserved[at * LANES + l]) < self.capacity
    }

    fn grant(&mut self, node: NodeId, lane: usize, head: &Buffered) {
        let (at, l) = Self::slot(head);
        let idx = at * LANES + l;
        self.reserved[idx] += 1;
        self.dirty.push(idx);
        self.grants.push((node, lane));
    }
}

/// Common interface of the three fabric engines. The [`crate::Network`]
/// front-end owns payloads and multicast expansion; engines only move
/// [`FlightInfo`] descriptors. Everything but [`FabricEngine::tick`] is
/// provided by the shared [`RouterCore`].
pub trait FabricEngine {
    /// The engine's router core.
    fn core(&self) -> &RouterCore;

    /// The engine's router core, mutably.
    fn core_mut(&mut self) -> &mut RouterCore;

    /// Advances the fabric by one cycle, appending packets that reached their
    /// segment destination to `arrivals`.
    fn tick(&mut self, now: u64, arrivals: &mut Vec<Arrival>);

    /// Whether the injection queue at `node` for `vn` can accept a packet.
    fn can_accept(&self, node: NodeId, vn: VirtualNetwork) -> bool {
        self.core().buffers[node.index()].has_space(lane(Direction::Local.index(), vn))
    }

    /// Places a packet into the source router's local input port. The caller
    /// must have checked [`FabricEngine::can_accept`].
    ///
    /// # Panics
    ///
    /// Panics if the packet is already at its destination.
    fn inject(&mut self, flight: FlightInfo, now: u64) {
        assert_ne!(
            flight.src, flight.dest,
            "a packet at its destination never enters the fabric"
        );
        let core = self.core_mut();
        core.push(flight.src, Direction::Local, flight, now + 1);
        core.in_flight += 1;
    }

    /// Event-horizon probe for event-driven simulation: the earliest cycle
    /// `>= now` at which [`FabricEngine::tick`] *might* change fabric state,
    /// or `None` when the fabric is empty and can never act again on its
    /// own. It is computed per occupied (router, lane) head — the first
    /// cycle the head is switch-eligible *and* its requested output link is
    /// free — so the bound is meaningful under partial occupancy, not only
    /// at full drain.
    ///
    /// The bound must be conservative from below — it may name a cycle at
    /// which nothing ends up moving (e.g. a head packet that will lose
    /// arbitration, find a downstream buffer full or lose SSR arbitration),
    /// but it must never skip past a cycle at which a move, an arbiter
    /// update, a counter increment or any other state change would have
    /// occurred. Ticking at a cycle where no candidate exists is a no-op by
    /// construction (arbiter pointers and event counters only advance when
    /// a candidate wins), which is what makes cycle skipping exact. This
    /// probe is **load-bearing** for `CmpSystem`'s scheduler (via
    /// `Network::next_event`): the root `tests/equivalence.rs` randomized
    /// stress suite cross-checks it against naive per-cycle stepping, and
    /// it must never mutate state (the event-energy counters inherit the
    /// run/run_naive bit-identity from that rule).
    fn next_event(&self, now: u64) -> Option<u64> {
        self.core().next_event(now)
    }

    /// Number of packets currently inside the fabric.
    fn in_flight(&self) -> usize {
        self.core().in_flight()
    }

    /// The micro-architectural event counters accumulated so far (buffer
    /// reads/writes, crossbar traversals, link hops, SSR events). These are
    /// the raw inputs of the event-energy model; engines must only update
    /// them from `inject`/`tick` (never from `next_event` or other read-only
    /// probes), which is what keeps them bit-identical between event-driven
    /// and naive execution.
    fn counters(&self) -> &FabricCounters {
        &self.core().counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffered(id: u32) -> Buffered {
        Buffered {
            flight: FlightInfo {
                id: PacketId(id),
                ..VACANT.flight
            },
            ready_at: 0,
            ..VACANT
        }
    }

    #[test]
    fn buffers_fifo_order_and_capacity() {
        let mut b = InputBuffers::new(2);
        let l = lane(0, VirtualNetwork::Request);
        assert!(b.has_space(l));
        b.push(l, buffered(1));
        b.push(l, buffered(2));
        assert!(!b.has_space(l));
        assert_eq!(b.head(l).unwrap().flight.id, PacketId(1));
        assert_eq!(b.pop(l).unwrap().flight.id, PacketId(1));
        assert_eq!(b.head(l).unwrap().flight.id, PacketId(2));
        assert_eq!(b.pop(l).unwrap().flight.id, PacketId(2));
        assert!(b.pop(l).is_none() && b.head(l).is_none() && b.is_empty());
    }

    #[test]
    fn occupied_lanes_tracks_nonempty_queues_in_lane_order() {
        let mut b = InputBuffers::new(4);
        assert_eq!(b.occupied(), 0);
        let (req0, resp3) = (
            lane(0, VirtualNetwork::Request),
            lane(3, VirtualNetwork::Response),
        );
        assert_eq!(
            resp3,
            3 * VirtualNetwork::ALL.len() + VirtualNetwork::Response.index()
        );
        b.push(resp3, buffered(1));
        b.push(req0, buffered(2));
        b.push(req0, buffered(3));
        assert_eq!(
            set_bits(b.occupied().into()).collect::<Vec<_>>(),
            vec![req0, resp3]
        );
        b.pop(req0);
        assert_eq!(
            b.occupied(),
            1 << req0 | 1 << resp3,
            "one packet left in the lane"
        );
        b.pop(req0);
        assert_eq!(b.occupied(), 1 << resp3);
        b.pop(resp3);
        assert_eq!(b.occupied(), 0);
    }

    #[test]
    fn buffers_are_per_lane() {
        let mut b = InputBuffers::new(1);
        b.push(lane(0, VirtualNetwork::Request), buffered(1));
        assert!(!b.has_space(lane(0, VirtualNetwork::Request)));
        assert!(b.has_space(lane(0, VirtualNetwork::Response)));
        assert!(b.has_space(lane(1, VirtualNetwork::Request)));
        assert_eq!(b.occupancy(lane(0, VirtualNetwork::Request)), 1);
    }

    #[test]
    fn active_set_iterates_set_bits_in_ascending_order() {
        let mut a = ActiveSet::new(130);
        assert_eq!(a.iter().count(), 0);
        for i in [5, 0, 129, 64, 63] {
            a.set(i);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 129]);
        a.clear(64);
        a.clear(0);
        a.set(5); // idempotent
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![5, 63, 129]);
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(0b111, 3), Some(1));
        assert_eq!(rr.pick(0b111, 3), Some(2));
        assert_eq!(rr.pick(0b111, 3), Some(0));
        assert_eq!(rr.pick(0b100, 3), Some(2));
        assert_eq!(rr.pick(0, 3), None);
    }

    /// The rotation rule the mask arbiter replaces: the candidate nearest
    /// after the previous winner, wrapping around `space`.
    fn rotation_pick(last: usize, candidates: &[usize], space: usize) -> Option<usize> {
        let start = (last + 1) % space;
        candidates
            .iter()
            .copied()
            .min_by_key(|&c| (c + space - start) % space)
    }

    fn assert_same_winner(last: usize, mask: u32, space: usize) {
        let candidates: Vec<usize> = set_bits(mask.into()).collect();
        let mut rr = RoundRobin { last };
        let want = rotation_pick(last, &candidates, space);
        assert_eq!(rr.pick(mask, space), want, "last {last}, mask {mask:#b}");
        assert_eq!(rr.last, want.unwrap_or(last), "pointer follows the winner");
    }

    #[test]
    fn mask_round_robin_matches_the_rotation_rule() {
        // Exhaustive over five requesters: every mask from every pointer.
        for last in 0..5 {
            for mask in 0..1u32 << 5 {
                assert_same_winner(last, mask, 5);
            }
        }
        // A router's 25 lanes: seeded random masks from every pointer.
        let mut rng = crate::rng::SplitMix64::new(0x5eed);
        for last in 0..LANES {
            for _ in 0..2_000 {
                let density = rng.next_u64() % 4;
                let mut mask = (rng.next_u64() as u32) & ((1 << LANES) - 1);
                for _ in 0..density {
                    mask &= rng.next_u64() as u32;
                }
                assert_same_winner(last, mask, LANES);
            }
        }
    }

    #[test]
    fn routes_computed_at_push_match_xy_routing() {
        for (w, h) in [(8, 8), (3, 5), (1, 7)] {
            let mesh = Mesh::new(w, h);
            for reach in 1..=4u16 {
                for express in [false, true] {
                    let table = RouteTable::new(mesh, reach, express);
                    for at in mesh.nodes() {
                        for dest in mesh.nodes().filter(|&d| d != at) {
                            let r = table.route(at, dest);
                            let dir = mesh.xy_next_dir(at, dest).expect("distinct nodes");
                            let (f, t) = (mesh.coord(at), mesh.coord(dest));
                            let remaining = if dir.is_horizontal() {
                                f.x.abs_diff(t.x)
                            } else {
                                f.y.abs_diff(t.y)
                            };
                            assert_eq!(r.dir, dir);
                            assert_eq!(r.hops, remaining.min(reach));
                            assert_eq!(r.landing, mesh.advance(at, dir, r.hops));
                            if reach == 1 {
                                assert_eq!(Some(r.landing), mesh.neighbor(at, dir));
                            }
                            let link = if express {
                                dir.index() * usize::from(reach) + usize::from(r.hops) - 1
                            } else {
                                dir.index()
                            };
                            assert_eq!(usize::from(r.link), link);
                            assert!(usize::from(r.link) < table.links_per_node());
                            for n in 0..=r.hops {
                                assert_eq!(table.advance(at, dir, n), mesh.advance(at, dir, n));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cached_heads_equal_queue_fronts_after_random_push_pop() {
        let mut rng = crate::rng::SplitMix64::new(42);
        let mut b = InputBuffers::new(4);
        let mut model: Vec<VecDeque<Buffered>> = vec![VecDeque::new(); LANES];
        for id in 0..20_000 {
            // A handful of lanes, so queues grow several packets deep.
            let l = [0, 3, 7, 24][rng.index(4)];
            if rng.gen_bool(0.55) {
                let p = Buffered {
                    ready_at: rng.next_u64() % 100,
                    ..buffered(id)
                };
                b.push(l, p);
                model[l].push_back(p);
            } else {
                assert_eq!(b.pop(l), model[l].pop_front());
            }
            for (l, q) in model.iter().enumerate() {
                assert_eq!(b.head(l), q.front(), "lane {l}");
                assert_eq!(b.occupancy(l), q.len());
                assert_eq!(b.occupied() & (1 << l) != 0, !q.is_empty());
            }
        }
    }

    #[test]
    fn link_occupancy_blocks_until_free() {
        let mut l = LinkOccupancy::new(4, 5);
        assert!(l.is_free(NodeId(2), 0, 0));
        l.occupy(NodeId(2), 0, 3);
        assert!(!l.is_free(NodeId(2), 0, 2));
        assert!(l.is_free(NodeId(2), 0, 3));
        // Other links unaffected.
        assert!(l.is_free(NodeId(2), 1, 0));
        assert!(l.is_free(NodeId(3), 0, 0));
    }
}
