//! High-radix fabric: a Flattened-Butterfly-like mesh where every router has
//! dedicated express links to all routers within `HPCmax` hops along each
//! dimension (the paper's "high-radix routers" alternative, Section 4.2).
//!
//! Express links use the same clockless repeated wires as SMART, so a link
//! spanning up to `HPCmax` hops still takes one cycle — but the router now
//! has ~20 ports and needs multi-stage arbiters and crossbars, so every
//! *stop* costs a 4-stage pipeline instead of 1 (and there is no bypassing):
//! a home node is always one express hop away, yet each hop costs
//! `4 (router) + 1 (link)` cycles at both the source and any intermediate
//! turn.

use crate::config::NocConfig;
use crate::router::{Arrival, Backpressure, Buffered, RouterCore};

/// The high-radix (Flattened-Butterfly-like) traversal.
///
/// All spans of a direction fold into one input port (they share an input
/// buffer pool), but every (direction, span) has its own output link for
/// bandwidth accounting, which matches the "4x higher bisection throughput"
/// property the paper ascribes to this design.
#[derive(Debug)]
pub(crate) struct HighRadixEngine {
    router_pipeline: u8,
    /// Downstream buffer space and this cycle's switch-allocation winners.
    grants: Backpressure,
}

impl HighRadixEngine {
    /// Builds the traversal state for the given configuration.
    pub fn new(cfg: &NocConfig) -> Self {
        HighRadixEngine {
            router_pipeline: cfg.router_pipeline,
            // A packet landing at its destination ejects, so it needs no
            // downstream buffer slot.
            grants: Backpressure::new(cfg, true),
        }
    }

    /// Moves this cycle's winners one express hop each, appending packets
    /// that reached their segment destination to `arrivals`.
    pub fn tick(&mut self, core: &mut RouterCore, now: u64, arrivals: &mut Vec<Arrival>) {
        // One arbitration per output *direction*; the winner then uses the
        // express link matching its span. This under-uses the extra
        // bandwidth slightly but keeps the multi-stage arbiter abstraction
        // honest (a single input can only feed one output per cycle).
        core.allocate(now, &mut self.grants);
        for (node, lane) in self.grants.grants.drain(..) {
            let Buffered { flight, route, .. } = core.pop(node, lane);
            let flits = u64::from(flight.flits);
            // Event accounting: one buffer read (in `pop`) and one
            // (multi-stage) crossbar pass at the winning router, one express
            // link whose wire spans `hops` mesh hops, a full pipeline pass
            // and a latch at the landing router.
            let c = &mut core.counters;
            c.crossbar_traversals += 1;
            c.express_traversals += 1;
            c.link_flit_hops += u64::from(route.hops) * flits;
            c.pipeline_passes += 1;
            c.stop_hops += 1;
            core.links
                .occupy(node, usize::from(route.link), now + flits);
            // The multi-stage router pipeline is charged at the *downstream*
            // stop (the packet must go through the full pipeline before it
            // can be switched again or ejected), plus one link cycle and
            // serialization.
            let arrival_cycle = now + 1 + (flits - 1) + u64::from(self.router_pipeline);
            core.land(
                flight,
                route.landing,
                route.dir.opposite(),
                arrival_cycle,
                arrival_cycle + 1,
                arrivals,
            );
        }
        self.grants.reset();
    }
}

#[cfg(test)]
mod tests {
    use crate::config::NocConfig;
    use crate::router::tests::{
        check_skip_window_under_partial_occupancy, drain, flight, walk_lone_packet_by_next_event,
    };
    use crate::router::Fabric;

    #[test]
    fn single_express_hop_pays_pipeline_cost() {
        let cfg = NocConfig::highradix_mesh(8, 8, 4);
        let mut fab = Fabric::new(&cfg);
        fab.inject(flight(1, 0, 4, 1), 0);
        let arr = drain(&mut fab, 30);
        assert_eq!(arr.len(), 1);
        // 1 cycle injection-ready + 1 link + 4-stage pipeline ~ 6 cycles,
        // clearly more than SMART's 2-3 for the same distance.
        let latency = arr[0].now;
        assert!((5..=8).contains(&latency), "latency {latency}");
    }

    #[test]
    fn highradix_slower_than_smart_within_cluster() {
        let mut hr = Fabric::new(&NocConfig::highradix_mesh(8, 8, 4));
        let mut sm = Fabric::new(&NocConfig::smart_mesh(8, 8, 4));
        hr.inject(flight(1, 0, 3, 1), 0);
        sm.inject(flight(1, 0, 3, 1), 0);
        let h = drain(&mut hr, 50)[0].now;
        let s = drain(&mut sm, 50)[0].now;
        assert!(h > s, "high-radix {h} should exceed SMART {s}");
    }

    #[test]
    fn xy_turn_costs_two_express_hops() {
        let cfg = NocConfig::highradix_mesh(8, 8, 4);
        let mut fab = Fabric::new(&cfg);
        let dest = 8 * 4 + 4; // 4 east + 4 north
        fab.inject(flight(1, 0, dest, 1), 0);
        let arr = drain(&mut fab, 50);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].flight.stops, 2);
    }

    #[test]
    fn long_distance_uses_multiple_express_hops() {
        let cfg = NocConfig::highradix_mesh(16, 16, 4);
        let mut fab = Fabric::new(&cfg);
        // 15 hops east = 4 express hops.
        fab.inject(flight(1, 0, 15, 1), 0);
        let arr = drain(&mut fab, 80);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].flight.stops, 4);
    }

    #[test]
    fn next_event_bounds_every_state_change_from_below() {
        // 4 east + 4 north: two express hops with a stop at the turn router.
        let cfg = NocConfig::highradix_mesh(8, 8, 4);
        let arrival = walk_lone_packet_by_next_event(cfg, 0, 8 * 4 + 4);
        assert_eq!(arrival.flight.stops, 2);
    }

    #[test]
    fn next_event_opens_a_skip_window_under_partial_occupancy() {
        // A packet that lands at an intermediate stop sits out the 4-stage
        // pipeline before it can be switched again: the fabric holds it the
        // whole time, yet the probe must name that future ready cycle so the
        // scheduler can skip the pipeline wait. 15 hops east: 4 express hops
        // with 3 intermediate stops.
        let cfg = NocConfig::highradix_mesh(16, 1, 4);
        let arrivals = check_skip_window_under_partial_occupancy(cfg, &[(0, 15, 1)]);
        assert_eq!(arrivals[0].flight.stops, 4);
    }

    #[test]
    fn event_counters_charge_pipeline_passes_and_wire_spans() {
        let cfg = NocConfig::highradix_mesh(8, 8, 4);
        let mut fab = Fabric::new(&cfg);
        // One 4-hop express link: a single move whose wire spans 4 hops.
        fab.inject(flight(1, 0, 4, 1), 0);
        drain(&mut fab, 30);
        let c = *fab.counters();
        assert_eq!(c.express_traversals, 1);
        assert_eq!(c.pipeline_passes, 1);
        assert_eq!(c.link_flit_hops, 4, "express wire length is span-weighted");
        assert_eq!(c.crossbar_traversals, 1);
        assert_eq!(c.stop_hops, 1);
        assert_eq!(c.buffer_writes, 1, "injection only");
        assert_eq!(c.ssr_broadcasts, 0, "no SSRs on a high-radix fabric");
    }

    #[test]
    fn per_span_links_allow_parallel_transfers() {
        // Two packets leaving node 0 eastwards with different spans use
        // different express links and need not fully serialize.
        let cfg = NocConfig::highradix_mesh(8, 1, 4);
        let mut fab = Fabric::new(&cfg);
        fab.inject(flight(1, 0, 4, 4), 0);
        fab.inject(flight(2, 0, 2, 4), 0);
        let arr = drain(&mut fab, 60);
        assert_eq!(arr.len(), 2);
    }
}
