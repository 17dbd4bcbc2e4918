//! Timing and event-counter tests of the hop engine (`crate::hop`) built
//! as the conventional mesh: 2 cycles per hop in the best case, so 14 hops
//! take 28 cycles (Section 2 of the paper).

mod tests {
    use crate::config::NocConfig;
    use crate::router::tests::{
        check_skip_window_under_partial_occupancy, drain, flight, walk_lone_packet_by_next_event,
    };
    use crate::router::Fabric;
    use crate::stats::FabricCounters;

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

        // A 1-flit and a 5-flit packet over two stops (0 -> 1 -> 2) on an
        // 8x1 mesh: a head that wins switch allocation at `t` lands at
        // `t + flits + 1` and competes again in that arrival cycle.
        for (flits, at_stop, arrival) in [(1, 3, 5), (5, 7, 13)] {
            let mut fab = Fabric::new(&NocConfig::conventional_mesh(8, 1));
            fab.inject(flight(1, 0, 2, flits), 0);
            let mut arrivals = Vec::new();
            fab.tick(0, &mut arrivals);
            fab.tick(1, &mut arrivals);
            assert_eq!(fab.next_event(2), Some(at_stop), "{flits} flits");
            for now in 2..40 {
                fab.tick(now, &mut arrivals);
            }
            assert_eq!(arrivals.len(), 1);
            assert_eq!((arrivals[0].now, arrivals[0].flight.stops), (arrival, 2));
            assert_eq!(
                *fab.counters(),
                FabricCounters {
                    buffer_writes: 2,
                    buffer_reads: 2,
                    crossbar_traversals: 2,
                    link_flit_hops: 2 * u64::from(flits),
                    stop_hops: 2,
                    express_traversals: 0,
                    pipeline_passes: 0,
                    ..FabricCounters::default()
                },
                "{flits} flits"
            );
        }
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
