//! Buffered hop-by-hop fabrics: the conventional mesh and the high-radix
//! routers. Every switch-allocation winner moves one route leg per tick and
//! is buffered at each stop, under downstream back-pressure. The two router
//! kinds run the same loop; they differ only in the constants a
//! [`HopEngine`] is built with.
//!
//! The **conventional** mesh has state-of-the-art 2-cycle-per-hop routers
//! (1 cycle switch allocation + traversal inside the router, 1 cycle on the
//! link), XY dimension-ordered routing, per-output round-robin arbitration
//! and credit-style backpressure. It is the `LOCO + Conventional NoC`
//! baseline of Figures 12 and 13 and the hop-by-hop reference against which
//! SMART's single-cycle multi-hop traversals are compared (Section 2 of the
//! paper: 14 hops take 28 cycles in the best case on this fabric).
//!
//! The **high-radix** mesh is Flattened-Butterfly-like: every router has
//! dedicated express links to all routers within `HPCmax` hops along each
//! dimension (the paper's "high-radix routers" alternative, Section 4.2).
//! Express links use the same clockless repeated wires as SMART, so a link
//! spanning up to `HPCmax` hops still takes one cycle — but the router now
//! has ~20 ports and needs multi-stage arbiters and crossbars, so every
//! *stop* costs a 4-stage pipeline instead of 1 (and there is no bypassing):
//! a home node is always one express hop away, yet each hop costs
//! `4 (router) + 1 (link)` cycles at both the source and any intermediate
//! turn. All spans of a direction fold into one input port (they share an
//! input buffer pool), but every (direction, span) has its own output link
//! for bandwidth accounting, which matches the "4x higher bisection
//! throughput" property the paper ascribes to this design. Arbitration is
//! still one per output *direction*, the winner then using the express link
//! matching its span: this under-uses the extra bandwidth slightly but keeps
//! the multi-stage arbiter abstraction honest (a single input can only feed
//! one output per cycle).

use crate::config::NocConfig;
use crate::router::{Arrival, Backpressure, Buffered, RouterCore};

/// The hop-by-hop traversal of the conventional and high-radix fabrics.
#[derive(Debug)]
pub(crate) struct HopEngine {
    /// Router pipeline cycles a packet pays at its landing router before it
    /// arrives there: 1 on the conventional mesh, 4 on high-radix routers.
    pipeline: u64,
    /// Cycles a landed head waits after its arrival before it may compete
    /// for the switch: none on the conventional mesh, one on high-radix
    /// routers.
    settle: u64,
    /// Express-link traversals and pipeline passes counted per move: 1 on
    /// high-radix routers, 0 on the conventional mesh.
    express: u64,
    /// Downstream buffer space reserved by this cycle's winners.
    backpressure: Backpressure,
}

impl HopEngine {
    /// Builds the traversal state for `cfg`, with `express` links and the
    /// deep pipeline of high-radix routers or without them.
    pub fn new(cfg: &NocConfig, express: bool) -> Self {
        HopEngine {
            pipeline: u64::from(cfg.router_pipeline()),
            settle: u64::from(express),
            express: u64::from(express),
            // On high-radix routers a packet landing at its destination
            // ejects, so it needs no downstream buffer slot.
            backpressure: Backpressure::new(cfg, express),
        }
    }

    /// Moves this cycle's winners one route leg each, appending packets that
    /// reached their segment destination to `arrivals`.
    pub fn tick(&mut self, core: &mut RouterCore, now: u64, arrivals: &mut Vec<Arrival>) {
        // Switch allocation: for every router and output direction, pick one
        // ready head whose link is free and whose landing router has buffer
        // space. Moves are granted first and applied afterwards so that a
        // packet moved this cycle cannot be moved again within the same
        // cycle.
        core.allocate(now, Some(&mut self.backpressure));
        let mut winners = std::mem::take(&mut core.winners);
        for &(node, lane) in &winners {
            let Buffered { flight, route, .. } = core.pop(node, lane);
            let flits = u64::from(flight.flits);
            // Event accounting: one buffer read (in `pop`) and one crossbar
            // pass at the winning router, one link whose wire spans `hops`
            // mesh hops (always one on the conventional mesh), crossed flit
            // by flit, and a latch at the landing router; on high-radix
            // routers the link is an express link and the landing router
            // charges a full pipeline pass.
            let c = &mut core.counters;
            c.crossbar_traversals += 1;
            c.express_traversals += self.express;
            c.link_flit_hops += u64::from(route.hops) * flits;
            c.pipeline_passes += self.express;
            c.stop_hops += 1;
            // The output link is held for the full packet length.
            core.links
                .occupy(node, usize::from(route.link), now + flits);
            // 1 cycle on the link plus serialization of the tail flits, then
            // the landing router's pipeline (the cycle spent winning switch
            // allocation is this one).
            let arrive_at = now + flits + self.pipeline;
            core.land(
                flight,
                route.landing,
                route.dir.opposite(),
                arrive_at,
                arrive_at + self.settle,
                arrivals,
            );
        }
        winners.clear();
        core.winners = winners;
        self.backpressure.reset();
    }
}
