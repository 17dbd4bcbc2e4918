//! SMART fabric: Single-cycle Multi-hop Asynchronous Repeated Traversal.
//!
//! Every cycle, switch-allocation winners at each router broadcast a SMART
//! Setup Request (SSR) up to `HPCmax` hops along their output dimension.
//! Each router on the path arbitrates among the SSRs it receives, giving
//! priority to *nearer* flits; the winner's multi-hop bypass path is pre-set
//! and the flit traverses it in a single cycle (ST+LT), being latched only at
//! the router where it stops. Losers are prematurely buffered at the router
//! where they lost and retry from there.
//!
//! The implementation follows the SMART-1D design used by the paper: flits
//! never bypass a turn — an X+Y route costs at least two SMART-hops — and
//! the best-case latency is 2 cycles per SMART-hop (SSR, then ST+LT).

use crate::config::NocConfig;
use crate::router::{Arrival, Buffered, FabricEngine, RouterCore, SwitchPolicy};
use crate::topology::{Direction, NodeId};

/// A granted SMART Setup Request: the head of `lane` at `start` intends to
/// leave in direction `dir` and travel `want_hops` hops this cycle.
#[derive(Debug, Clone, Copy)]
struct Ssr {
    start: NodeId,
    lane: usize,
    dir: Direction,
    want_hops: u16,
}

/// Phase 1 of SMART has no eligibility check beyond a ready head and a free
/// first link; every winner becomes an SSR.
#[derive(Debug, Default)]
struct SsrGrants(Vec<Ssr>);

impl SwitchPolicy for SsrGrants {
    fn grant(&mut self, start: NodeId, lane: usize, head: &Buffered) {
        self.0.push(Ssr {
            start,
            lane,
            dir: head.route.dir,
            want_hops: head.route.hops,
        });
    }
}

/// The SMART-NoC fabric engine.
#[derive(Debug)]
pub struct SmartFabric {
    hpc_max: u16,
    core: RouterCore,
    // Persistent per-tick scratch (the per-cycle tick is the simulator's
    // hottest loop; steady state must not allocate).
    ssrs: SsrGrants,
    /// `claimed[node * 4 + dir]`: the link leaving `node` in `dir` has been
    /// claimed this cycle; only the dirtied entries are reset.
    claimed_scratch: Vec<bool>,
    claimed_dirty: Vec<usize>,
    travel_scratch: Vec<u16>,
    active_scratch: Vec<bool>,
}

impl SmartFabric {
    /// Builds the fabric for the given configuration.
    pub fn new(cfg: NocConfig) -> Self {
        SmartFabric {
            hpc_max: cfg.hpc_max,
            // A SMART-hop covers the rest of the current dimension up to
            // HPCmax (SMART-1D stops at the turn router); one link per
            // direction.
            core: RouterCore::new(&cfg, cfg.hpc_max, false),
            ssrs: SsrGrants::default(),
            claimed_scratch: vec![false; cfg.mesh.len() * 4],
            claimed_dirty: Vec::new(),
            travel_scratch: Vec::new(),
            active_scratch: Vec::new(),
        }
    }

    /// Number of times a flit was stopped before completing its intended
    /// SMART-hop because it lost SSR arbitration to a nearer flit.
    pub fn premature_stops(&self) -> u64 {
        self.core.counters.premature_stops
    }
}

impl FabricEngine for SmartFabric {
    fn core(&self) -> &RouterCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RouterCore {
        &mut self.core
    }

    fn tick(&mut self, now: u64, arrivals: &mut Vec<Arrival>) {
        // All fabric packets live in router buffers between ticks; an empty
        // fabric has nothing to arbitrate and nothing to move.
        if self.core.in_flight() == 0 {
            return;
        }

        // Phase 1 — local switch allocation + SSR generation. At each
        // router, for each output direction, at most one ready head packet
        // wins the switch and broadcasts an SSR of length
        // min(remaining-in-dimension, HPCmax). Each granted winner drives its
        // dedicated SSR wires that far this cycle, whatever phase 2 then
        // truncates the traversal to.
        self.core.allocate(now, &mut self.ssrs);
        let ssrs = &self.ssrs.0;
        self.core.counters.ssr_broadcasts += ssrs.len() as u64;
        self.core.counters.ssr_hops += ssrs.iter().map(|s| u64::from(s.want_hops)).sum::<u64>();

        // Phase 2 — SSR arbitration with nearer-flit priority.
        //
        // Links are claimed in rounds of increasing distance from each SSR's
        // start router: a flit claiming the link out of its own router
        // (round 1) always beats a flit trying to bypass through that router
        // (round >= 2), which is exactly the "prioritize local/nearer flits"
        // rule of the SMART paper. An SSR whose claim fails is truncated and
        // its flit stops (is prematurely buffered) at the router before the
        // contended link.
        let claimed = &mut self.claimed_scratch;
        debug_assert!(claimed.iter().all(|c| !c) && self.claimed_dirty.is_empty());
        // travel[i] = hops SSR i actually gets to traverse this cycle.
        let travel = &mut self.travel_scratch;
        travel.clear();
        travel.resize(ssrs.len(), 0);
        let active = &mut self.active_scratch;
        active.clear();
        active.resize(ssrs.len(), true);
        for round in 0..self.hpc_max {
            for (i, ssr) in ssrs.iter().enumerate() {
                if !active[i] || round >= ssr.want_hops {
                    active[i] = false;
                    continue;
                }
                // Router the flit sits at after `round` hops.
                let at = self.core.routes.advance(ssr.start, ssr.dir, round);
                let idx = at.index() * 4 + ssr.dir.index();
                if claimed[idx] {
                    // Lost to a nearer flit: stop here.
                    active[i] = false;
                    if travel[i] > 0 {
                        self.core.counters.premature_stops += 1;
                    }
                } else {
                    claimed[idx] = true;
                    self.claimed_dirty.push(idx);
                    travel[i] += 1;
                }
            }
        }
        // `want_hops <= hpc_max`, the number of rounds, so an SSR still
        // active after the last round travelled its whole SMART-hop: no flit
        // is truncated by running out of rounds.
        debug_assert!((ssrs.iter().zip(active.iter()).zip(travel.iter()))
            .all(|((s, &a), &t)| !a || t == s.want_hops));
        for idx in self.claimed_dirty.drain(..) {
            claimed[idx] = false;
        }

        // Phase 3 — single-cycle multi-hop traversal (ST + LT) of the
        // granted paths. The flit is latched at the stop router at the end of
        // the next cycle; every claimed link is held for the packet length.
        for (ssr, &hops) in ssrs.iter().zip(travel.iter()) {
            if hops == 0 {
                continue;
            }
            let Buffered { flight, route, .. } = self.core.pop(ssr.start, ssr.lane);
            let flits = u64::from(flight.flits);
            // Event accounting: one buffer read (in `pop`) at the start
            // router, then the pre-set path crosses the crossbar of every
            // router it leaves (start + bypassed intermediates) and `hops`
            // links; only the stop router latches the flit.
            let c = &mut self.core.counters;
            c.crossbar_traversals += u64::from(hops);
            c.link_flit_hops += u64::from(hops) * flits;
            c.bypass_hops += u64::from(hops) - 1;
            c.stop_hops += 1;
            for h in 0..hops {
                let link_node = self.core.routes.advance(ssr.start, ssr.dir, h);
                self.core
                    .links
                    .occupy(link_node, usize::from(route.link), now + flits);
            }
            let stop = self.core.routes.advance(ssr.start, ssr.dir, hops);
            let arrival_cycle = now + 1 + (flits - 1);
            self.core.land(
                flight,
                stop,
                ssr.dir.opposite(),
                arrival_cycle,
                arrival_cycle + 1,
                arrivals,
            );
        }
        self.ssrs.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::VirtualNetwork;
    use crate::router::{FlightInfo, PacketId};

    fn flight(id: u32, src: u16, dest: u16, flits: u32) -> FlightInfo {
        FlightInfo {
            id: PacketId(id),
            src: NodeId(src),
            dest: NodeId(dest),
            vn: VirtualNetwork::Request,
            flits,
            injected_at: 0,
            stops: 0,
        }
    }

    fn drain(fab: &mut SmartFabric, cycles: u64) -> Vec<Arrival> {
        let mut arrivals = Vec::new();
        for now in 0..cycles {
            fab.tick(now, &mut arrivals);
        }
        arrivals
    }

    #[test]
    fn single_smart_hop_covers_hpcmax_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = SmartFabric::new(cfg);
        // 4 hops east: one SMART-hop, ~2-3 cycles total.
        fab.inject(flight(1, 0, 4, 1), 0);
        let arr = drain(&mut fab, 20);
        assert_eq!(arr.len(), 1);
        let latency = arr[0].now - arr[0].flight.injected_at;
        assert!(latency <= 3, "latency {latency}");
        assert_eq!(arr[0].flight.stops, 1);
    }

    #[test]
    fn corner_to_corner_is_about_8_cycles() {
        // Section 2: 14 hops on 8x8 with HPCmax=4 is 4 SMART-hops = 8 cycles
        // best case.
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = SmartFabric::new(cfg);
        fab.inject(flight(1, 0, 63, 1), 0);
        let arr = drain(&mut fab, 40);
        assert_eq!(arr.len(), 1);
        let latency = arr[0].now - arr[0].flight.injected_at;
        assert!((8..=10).contains(&latency), "latency {latency}");
        assert_eq!(arr[0].flight.stops, 4);
    }

    #[test]
    fn smart_beats_conventional_on_long_paths() {
        use crate::conventional::ConventionalFabric;
        let smart_cfg = NocConfig::smart_mesh(8, 8, 4);
        let conv_cfg = NocConfig::conventional_mesh(8, 8);
        let mut smart = SmartFabric::new(smart_cfg);
        let mut conv = ConventionalFabric::new(conv_cfg);
        smart.inject(flight(1, 0, 63, 1), 0);
        conv.inject(flight(1, 0, 63, 1), 0);
        let s = drain(&mut smart, 100)[0].now;
        let mut arrivals = Vec::new();
        for now in 0..100 {
            conv.tick(now, &mut arrivals);
        }
        let c = arrivals[0].now;
        assert!(s * 2 <= c, "smart {s} vs conventional {c}");
    }

    #[test]
    fn turning_flit_takes_two_smart_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = SmartFabric::new(cfg);
        // 3 hops east + 3 hops north: SMART-1D forces a stop at the turn.
        let dest = 8 * 3 + 3;
        fab.inject(flight(1, 0, dest, 1), 0);
        let arr = drain(&mut fab, 20);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].flight.stops, 2);
        let latency = arr[0].now;
        assert!((4..=6).contains(&latency), "latency {latency}");
    }

    #[test]
    fn nearer_flit_wins_and_farther_flit_stops_prematurely() {
        // Recreates Figure 2c: flit A from router 0 going east 3+ hops,
        // flit B injected at router 1 also going east. B is "nearer" to
        // router 1's output link, so A must stop prematurely at router 1.
        let cfg = NocConfig::smart_mesh(8, 1, 4);
        let mut fab = SmartFabric::new(cfg);
        fab.inject(flight(1, 0, 6, 1), 0); // A: wants 0 -> 4 in one SMART-hop
        fab.inject(flight(2, 1, 6, 1), 0); // B: local at router 1
        let arr = drain(&mut fab, 40);
        assert_eq!(arr.len(), 2);
        let a = arr.iter().find(|a| a.flight.id == PacketId(1)).unwrap();
        let b = arr.iter().find(|a| a.flight.id == PacketId(2)).unwrap();
        // A is delayed relative to running alone (which would be ~4 cycles).
        assert!(a.now > b.now || a.flight.stops > 2, "a {a:?} b {b:?}");
        assert!(fab.premature_stops() >= 1);
    }

    #[test]
    fn next_event_bounds_every_state_change_from_below() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = SmartFabric::new(cfg);
        assert_eq!(fab.next_event(0), None, "empty fabric has no events");
        // Corner to corner: 4 SMART-hops with stops at intermediate routers.
        fab.inject(flight(1, 0, 63, 1), 0);
        assert_eq!(fab.next_event(0), Some(1));
        let mut arrivals = Vec::new();
        let mut now = 0;
        while fab.in_flight() > 0 {
            let e = fab.next_event(now).expect("packet in flight");
            assert!(e >= now, "bound must not regress");
            for t in now..e {
                fab.tick(t, &mut arrivals);
                assert!(arrivals.is_empty(), "state changed before the bound");
            }
            fab.tick(e, &mut arrivals);
            now = e + 1;
            assert!(now < 100, "packet never arrived");
        }
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].flight.stops, 4);
        assert_eq!(fab.next_event(now), None, "drained fabric is quiescent");
    }

    #[test]
    fn next_event_opens_a_skip_window_under_partial_occupancy() {
        // Two 4-flit packets from the same router: the SSR winner holds the
        // claimed links for the full packet length, so the loser's head sees
        // a future (ready, link-free) cycle. The fabric is occupied the
        // whole time, yet the probe must report a skippable window and every
        // tick inside it must be a no-op (counters included).
        let cfg = NocConfig::smart_mesh(8, 1, 4);
        let mut fab = SmartFabric::new(cfg);
        fab.inject(flight(1, 0, 7, 4), 0);
        fab.inject(flight(2, 0, 7, 4), 0);
        let mut arrivals = Vec::new();
        fab.tick(0, &mut arrivals);
        fab.tick(1, &mut arrivals); // winner launches its SMART-hop
        assert_eq!(fab.in_flight(), 2, "both packets still inside the fabric");
        let e = fab.next_event(2).expect("packets in flight");
        assert!(e > 2, "partial occupancy must yield a future horizon, got {e}");
        let before = *fab.counters();
        for t in 2..e {
            fab.tick(t, &mut arrivals);
            assert!(arrivals.is_empty(), "state changed before the bound");
            assert_eq!(*fab.counters(), before, "counters moved in a dead cycle");
        }
        let mut now = e;
        while fab.in_flight() > 0 {
            fab.tick(now, &mut arrivals);
            now += 1;
            assert!(now < 200, "packets never arrived");
        }
        assert_eq!(arrivals.len(), 2);
    }

    #[test]
    fn event_counters_split_bypass_and_stop_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = SmartFabric::new(cfg);
        // 4 hops east in one SMART-hop: 3 routers bypassed, 1 latch at the
        // destination.
        fab.inject(flight(1, 0, 4, 1), 0);
        drain(&mut fab, 20);
        let c = *fab.counters();
        assert_eq!(c.ssr_broadcasts, 1);
        assert_eq!(c.ssr_hops, 4);
        assert_eq!(c.bypass_hops, 3);
        assert_eq!(c.stop_hops, 1);
        assert_eq!(c.crossbar_traversals, 4, "every router on the path is crossed");
        assert_eq!(c.link_flit_hops, 4);
        assert_eq!(c.buffer_reads, 1);
        assert_eq!(c.buffer_writes, 1, "injection only; the bypass never latches");
        assert_eq!(c.premature_stops, 0);
        assert_eq!(c.express_traversals, 0, "no express links on SMART");
    }

    #[test]
    fn buffer_writes_counted_only_at_stops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = SmartFabric::new(cfg);
        fab.inject(flight(1, 0, 4, 1), 0);
        drain(&mut fab, 20);
        // One injection write, no intermediate stop writes (the single
        // SMART-hop goes straight to the destination).
        assert_eq!(fab.counters().buffer_writes, 1);
    }
}
