//! Timing and event-counter tests of the hop engine (`crate::hop`) built
//! as high-radix routers: one express link per (direction, span) up to
//! `HPCmax` hops and a 4-stage pipeline at every stop (Section 4.2 of the
//! paper).

mod tests {
    use crate::config::NocConfig;
    use crate::router::tests::{
        check_skip_window_under_partial_occupancy, drain, flight, walk_lone_packet_by_next_event,
    };
    use crate::router::Fabric;
    use crate::stats::FabricCounters;

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

        // A 1-flit and a 5-flit packet over two stops (0 -> 4 -> 5) on an
        // 8x1 mesh: a head that wins switch allocation at `t` lands at
        // `t + flits + 4` and competes again one cycle after its arrival.
        for (flits, at_stop, arrival) in [(1, 7, 12), (5, 11, 20)] {
            let mut fab = Fabric::new(&NocConfig::highradix_mesh(8, 1, 4));
            fab.inject(flight(1, 0, 5, flits), 0);
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
                    link_flit_hops: (4 + 1) * u64::from(flits),
                    stop_hops: 2,
                    express_traversals: 2,
                    pipeline_passes: 2,
                    ..FabricCounters::default()
                },
                "{flits} flits"
            );
        }
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
