//! Conventional mesh fabric: state-of-the-art 2-cycle-per-hop routers
//! (1 cycle switch allocation + traversal inside the router, 1 cycle on the
//! link), XY dimension-ordered routing, per-output round-robin arbitration
//! and credit-style backpressure.
//!
//! This is the `LOCO + Conventional NoC` baseline of Figures 12 and 13 and
//! the hop-by-hop reference against which SMART's single-cycle multi-hop
//! traversals are compared (Section 2 of the paper: 14 hops take 28 cycles
//! in the best case on this fabric).

use crate::config::NocConfig;
use crate::router::{Arrival, Backpressure, Buffered, RouterCore};

/// The conventional traversal: downstream buffer space and this cycle's
/// switch-allocation winners.
#[derive(Debug)]
pub(crate) struct ConventionalEngine {
    grants: Backpressure,
}

impl ConventionalEngine {
    /// Builds the traversal state for the given configuration.
    pub fn new(cfg: &NocConfig) -> Self {
        ConventionalEngine {
            grants: Backpressure::new(cfg, false),
        }
    }

    /// Moves this cycle's winners one hop each, appending packets that
    /// reached their segment destination to `arrivals`.
    pub fn tick(&mut self, core: &mut RouterCore, now: u64, arrivals: &mut Vec<Arrival>) {
        // Switch allocation: for every router and output direction, pick one
        // ready head whose link is free and whose neighbour has buffer space.
        // Moves are granted first and applied afterwards so that a packet
        // moved this cycle cannot be moved again within the same cycle.
        core.allocate(now, &mut self.grants);
        for (node, lane) in self.grants.grants.drain(..) {
            let Buffered { flight, route, .. } = core.pop(node, lane);
            let flits = u64::from(flight.flits);
            // Event accounting: one buffer read (in `pop`) + one crossbar
            // pass at the winning router, one link crossed flit by flit, one
            // latch at the downstream router.
            let c = &mut core.counters;
            c.crossbar_traversals += 1;
            c.link_flit_hops += flits;
            c.stop_hops += 1;
            // The output link is held for the full packet length.
            core.links
                .occupy(node, usize::from(route.link), now + flits);
            // 1 cycle in the router (already spent winning SA this cycle) +
            // 1 cycle link traversal + serialization of the tail flits.
            let arrival_cycle = now + 1 + (flits - 1);
            core.land(
                flight,
                route.landing,
                route.dir.opposite(),
                arrival_cycle + 1,
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
    fn two_cycles_per_hop_best_case() {
        let cfg = NocConfig::conventional_mesh(8, 8);
        let mut fab = Fabric::new(&cfg);
        // 0 -> 7 is 7 hops along the bottom row.
        fab.inject(flight(1, 0, 7, 1), 0);
        let arr = drain(&mut fab, 100);
        assert_eq!(arr.len(), 1);
        // ~2 cycles per hop plus injection overhead.
        let latency = arr[0].now - arr[0].flight.injected_at;
        assert!(latency >= 14, "latency {latency} too small");
        assert!(latency <= 17, "latency {latency} too large");
    }

    #[test]
    fn corner_to_corner_is_about_28_cycles() {
        // Section 2: 14 hops on a conventional NoC take 28 cycles best case.
        let cfg = NocConfig::conventional_mesh(8, 8);
        let mut fab = Fabric::new(&cfg);
        fab.inject(flight(1, 0, 63, 1), 0);
        let arr = drain(&mut fab, 100);
        let latency = arr[0].now - arr[0].flight.injected_at;
        assert!((28..=31).contains(&latency), "latency {latency}");
    }

    #[test]
    fn multi_flit_packets_add_serialization_delay() {
        let cfg = NocConfig::conventional_mesh(4, 4);
        let mut fab = Fabric::new(&cfg);
        fab.inject(flight(1, 0, 3, 3), 0);
        let lat3 = drain(&mut fab, 100)[0].now;

        let mut fab1 = Fabric::new(&cfg);
        fab1.inject(flight(2, 0, 3, 1), 0);
        let lat1 = drain(&mut fab1, 100)[0].now;
        assert!(lat3 > lat1, "3-flit {lat3} should exceed 1-flit {lat1}");
    }

    #[test]
    fn contention_serializes_packets_on_shared_link() {
        let cfg = NocConfig::conventional_mesh(4, 1);
        let mut fab = Fabric::new(&cfg);
        // Two packets from node 0 to node 3 compete for the same links.
        fab.inject(flight(1, 0, 3, 4), 0);
        fab.inject(flight(2, 0, 3, 4), 0);
        let arrivals = drain(&mut fab, 200);
        assert_eq!(arrivals.len(), 2);
        let mut times: Vec<u64> = arrivals.iter().map(|a| a.now).collect();
        times.sort_unstable();
        // Second packet must wait for the first to release each link.
        assert!(times[1] >= times[0] + 4, "times {times:?}");
    }

    #[test]
    fn next_event_bounds_every_state_change_from_below() {
        let arrival = walk_lone_packet_by_next_event(NocConfig::conventional_mesh(8, 8), 0, 7);
        // ~2 cycles per hop over 7 hops, same as the naive per-cycle walk.
        let latency = arrival.now - arrival.flight.injected_at;
        assert!((14..=17).contains(&latency), "latency {latency}");
    }

    #[test]
    fn next_event_opens_a_skip_window_under_partial_occupancy() {
        // Two 4-flit packets race for the same links: after the first wins
        // switch allocation, the loser waits for the link and the winner
        // serializes.
        let cfg = NocConfig::conventional_mesh(4, 1);
        check_skip_window_under_partial_occupancy(cfg, &[(0, 3, 4), (0, 3, 4)]);
    }

    #[test]
    fn event_counters_match_the_hop_count() {
        let cfg = NocConfig::conventional_mesh(8, 8);
        let mut fab = Fabric::new(&cfg);
        // 0 -> 7: 7 hops, single flit, no contention.
        fab.inject(flight(1, 0, 7, 1), 0);
        assert_eq!(drain(&mut fab, 100).len(), 1);
        let c = *fab.counters();
        assert_eq!(c.buffer_reads, 7, "one read per hop");
        assert_eq!(c.crossbar_traversals, 7);
        assert_eq!(c.link_flit_hops, 7);
        assert_eq!(c.stop_hops, 7);
        // Injection plus 6 intermediate latchings (the destination ejects).
        assert_eq!(c.buffer_writes, 7);
        assert_eq!(c.ssr_broadcasts, 0, "no SSRs on a conventional fabric");
        assert_eq!(c.pipeline_passes, 0);
    }

    #[test]
    fn in_flight_count_tracks_packets() {
        let cfg = NocConfig::conventional_mesh(4, 4);
        let mut fab = Fabric::new(&cfg);
        assert_eq!(fab.in_flight(), 0);
        fab.inject(flight(1, 0, 5, 1), 0);
        assert_eq!(fab.in_flight(), 1);
        let arrivals = drain(&mut fab, 50);
        assert_eq!(fab.in_flight(), 0);
        assert_eq!(arrivals.len(), 1);
    }
}
