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
use crate::router::{Arrival, Buffered, RouteTable, RouterCore};
use crate::topology::{Direction, NodeId};

/// A granted SMART Setup Request: the head at `start` intends to leave in
/// direction `dir` and travel `want_hops` hops this cycle.
#[derive(Debug, Clone, Copy)]
struct Ssr {
    start: NodeId,
    dir: Direction,
    want_hops: u16,
}

/// Bit of `dir` in a router's `started` mask.
fn dir_bit(dir: Direction) -> u8 {
    1 << dir.index()
}

/// Walks the path `ssr` traverses this cycle under nearer-flit priority:
/// its whole SMART-hop, or up to the first router downstream of its start
/// (on its line, in its direction) where another SSR starts. `started[n]`
/// holds the `dir_bit` of every direction an SSR granted this cycle
/// starts in at router `n`. Calls `cross` with each router whose outgoing
/// link the flit crosses, and returns the stop router and the hops
/// travelled.
fn travel(
    routes: &RouteTable,
    started: &[u8],
    ssr: &Ssr,
    mut cross: impl FnMut(NodeId),
) -> (NodeId, u16) {
    let (mut at, mut hops) = (ssr.start, 0);
    loop {
        cross(at);
        at = routes.advance(at, ssr.dir, 1);
        hops += 1;
        if hops == ssr.want_hops || started[at.index()] & dir_bit(ssr.dir) != 0 {
            return (at, hops);
        }
    }
}

/// The SMART traversal: per-tick scratch kept across ticks (the per-cycle
/// tick is the simulator's hottest loop; steady state must not allocate).
#[derive(Debug)]
pub(crate) struct SmartEngine {
    /// `started[node]`: the `dir_bit`s of the directions an SSR starts in
    /// at `node` this cycle; set and reset through the winner list.
    started: Vec<u8>,
}

impl SmartEngine {
    /// Builds the traversal state for the given configuration.
    pub fn new(cfg: &NocConfig) -> Self {
        SmartEngine {
            started: vec![0; cfg.mesh.len()],
        }
    }

    /// Runs SSR arbitration and the single-cycle multi-hop traversal of this
    /// cycle's winners, appending packets that reached their segment
    /// destination to `arrivals`.
    pub fn tick(&mut self, core: &mut RouterCore, now: u64, arrivals: &mut Vec<Arrival>) {
        // Phase 1 — local switch allocation + SSR generation. At each
        // router, for each output direction, at most one ready head packet
        // wins the switch and broadcasts an SSR of length
        // min(remaining-in-dimension, HPCmax). Each granted winner drives its
        // dedicated SSR wires that far this cycle, whatever phase 2 then
        // truncates the traversal to. SMART has no eligibility check beyond
        // a ready head and a free first link.
        core.allocate(now, None);
        let mut winners = std::mem::take(&mut core.winners);

        // Phase 2 — SSR arbitration with nearer-flit priority: a flit
        // claiming the link out of its own router always beats a flit trying
        // to bypass through that router, which is the "prioritize
        // local/nearer flits" rule of the SMART paper (Fig. 2c). SMART is
        // 1-D and switch allocation grants at most one head per (router,
        // direction), so every SSR wins its own first link, and a bypassing
        // SSR loses exactly at the first router downstream on its line where
        // another SSR in its direction starts: no other SSR reaches a link of
        // its path earlier. Each SSR therefore travels
        // min(want_hops, distance to the next downstream start) and stops
        // (is prematurely buffered) at the router before the contended link.
        // Each SSR is read off its winner's buffered head: the broadcasts
        // are counted and every start is marked before any winner leaves.
        core.counters.ssr_broadcasts += winners.len() as u64;
        for &(start, lane) in &winners {
            let head = core.buffers[start.index()].head(lane);
            let route = head.expect("winner lane holds a packet").route;
            core.counters.ssr_hops += u64::from(route.hops);
            self.started[start.index()] |= dir_bit(route.dir);
        }

        // Phase 3 — single-cycle multi-hop traversal (ST + LT) of the
        // granted paths. The flit is latched at the stop router at the end of
        // the next cycle; every claimed link is held for the packet length.
        for &(start, lane) in &winners {
            let Buffered { flight, route, .. } = core.pop(start, lane);
            let ssr = Ssr {
                start,
                dir: route.dir,
                want_hops: route.hops,
            };
            let flits = u64::from(flight.flits);
            let RouterCore { routes, links, .. } = &mut *core;
            let (stop, hops) = travel(routes, &self.started, &ssr, |node| {
                links.occupy(node, usize::from(route.link), now + flits)
            });
            // Event accounting: one buffer read (in `pop`) at the start
            // router, then the pre-set path crosses the crossbar of every
            // router it leaves (start + bypassed intermediates) and `hops`
            // links; only the stop router latches the flit.
            let c = &mut core.counters;
            c.premature_stops += u64::from(hops < ssr.want_hops);
            c.crossbar_traversals += u64::from(hops);
            c.link_flit_hops += u64::from(hops) * flits;
            c.bypass_hops += u64::from(hops) - 1;
            c.stop_hops += 1;
            let arrival_cycle = now + 1 + (flits - 1);
            core.land(
                flight,
                stop,
                ssr.dir.opposite(),
                arrival_cycle,
                arrival_cycle + 1,
                arrivals,
            );
        }
        for &(start, _) in &winners {
            self.started[start.index()] = 0;
        }
        winners.clear();
        core.winners = winners;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::router::tests::{
        check_skip_window_under_partial_occupancy, drain, flight, walk_lone_packet_by_next_event,
    };
    use crate::router::{Fabric, PacketId};
    use crate::topology::Mesh;

    #[test]
    fn single_smart_hop_covers_hpcmax_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(&cfg);
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
        let mut fab = Fabric::new(&cfg);
        fab.inject(flight(1, 0, 63, 1), 0);
        let arr = drain(&mut fab, 40);
        assert_eq!(arr.len(), 1);
        let latency = arr[0].now - arr[0].flight.injected_at;
        assert!((8..=10).contains(&latency), "latency {latency}");
        assert_eq!(arr[0].flight.stops, 4);
    }

    #[test]
    fn smart_beats_conventional_on_long_paths() {
        let mut smart = Fabric::new(&NocConfig::smart_mesh(8, 8, 4));
        let mut conv = Fabric::new(&NocConfig::conventional_mesh(8, 8));
        smart.inject(flight(1, 0, 63, 1), 0);
        conv.inject(flight(1, 0, 63, 1), 0);
        let s = drain(&mut smart, 100)[0].now;
        let c = drain(&mut conv, 100)[0].now;
        assert!(s * 2 <= c, "smart {s} vs conventional {c}");
    }

    #[test]
    fn turning_flit_takes_two_smart_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(&cfg);
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
        let mut fab = Fabric::new(&cfg);
        fab.inject(flight(1, 0, 6, 1), 0); // A: wants 0 -> 4 in one SMART-hop
        fab.inject(flight(2, 1, 6, 1), 0); // B: local at router 1
        let arr = drain(&mut fab, 40);
        assert_eq!(arr.len(), 2);
        let a = arr.iter().find(|a| a.flight.id == PacketId(1)).unwrap();
        let b = arr.iter().find(|a| a.flight.id == PacketId(2)).unwrap();
        // A is delayed relative to running alone (which would be ~4 cycles).
        assert!(a.now > b.now || a.flight.stops > 2, "a {a:?} b {b:?}");
        assert!(fab.counters().premature_stops >= 1);
    }

    #[test]
    fn next_event_bounds_every_state_change_from_below() {
        // Corner to corner: 4 SMART-hops with stops at intermediate routers.
        let arrival = walk_lone_packet_by_next_event(NocConfig::smart_mesh(8, 8, 4), 0, 63);
        assert_eq!(arrival.flight.stops, 4);
    }

    #[test]
    fn next_event_opens_a_skip_window_under_partial_occupancy() {
        // Two 4-flit packets from the same router: the SSR winner holds the
        // claimed links for the full packet length, so the loser's head sees
        // a future (ready, link-free) cycle.
        let cfg = NocConfig::smart_mesh(8, 1, 4);
        check_skip_window_under_partial_occupancy(cfg, &[(0, 7, 4), (0, 7, 4)]);
    }

    #[test]
    fn event_counters_split_bypass_and_stop_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(&cfg);
        // 4 hops east in one SMART-hop: 3 routers bypassed, 1 latch at the
        // destination.
        fab.inject(flight(1, 0, 4, 1), 0);
        drain(&mut fab, 20);
        let c = *fab.counters();
        assert_eq!(c.ssr_broadcasts, 1);
        assert_eq!(c.ssr_hops, 4);
        assert_eq!(c.bypass_hops, 3);
        assert_eq!(c.stop_hops, 1);
        assert_eq!(
            c.crossbar_traversals, 4,
            "every router on the path is crossed"
        );
        assert_eq!(c.link_flit_hops, 4);
        assert_eq!(c.buffer_reads, 1);
        assert_eq!(
            c.buffer_writes, 1,
            "injection only; the bypass never latches"
        );
        assert_eq!(c.premature_stops, 0);
        assert_eq!(c.express_traversals, 0, "no express links on SMART");
    }

    #[test]
    fn buffer_writes_counted_only_at_stops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(&cfg);
        fab.inject(flight(1, 0, 4, 1), 0);
        drain(&mut fab, 20);
        // One injection write, no intermediate stop writes (the single
        // SMART-hop goes straight to the destination).
        assert_eq!(fab.counters().buffer_writes, 1);
    }

    /// The round-based SSR arbitration that `travel` replaced, kept as its
    /// oracle: links are claimed in rounds of increasing distance from each
    /// SSR's start, so a flit claiming the link out of its own router
    /// (round 0) beats every flit bypassing through that router. Returns
    /// each SSR's travel and the number of premature stops.
    fn round_based_travel(routes: &RouteTable, hpc_max: u16, ssrs: &[Ssr]) -> (Vec<u16>, u64) {
        let mut claimed = std::collections::HashSet::new();
        let mut travel = vec![0; ssrs.len()];
        let mut active = vec![true; ssrs.len()];
        let mut premature = 0;
        for round in 0..hpc_max {
            for (i, ssr) in ssrs.iter().enumerate() {
                if !active[i] || round >= ssr.want_hops {
                    active[i] = false;
                    continue;
                }
                let at = routes.advance(ssr.start, ssr.dir, round);
                if claimed.insert((at, ssr.dir)) {
                    travel[i] += 1;
                } else {
                    active[i] = false;
                    if travel[i] > 0 {
                        premature += 1;
                    }
                }
            }
        }
        (travel, premature)
    }

    /// The hops `travel` gives every SSR, and the premature stops they
    /// imply.
    fn one_pass_travel(routes: &RouteTable, nodes: usize, ssrs: &[Ssr]) -> (Vec<u16>, u64) {
        let mut started = vec![0; nodes];
        for ssr in ssrs {
            started[ssr.start.index()] |= dir_bit(ssr.dir);
        }
        let hops: Vec<u16> = ssrs
            .iter()
            .map(|ssr| travel(routes, &started, ssr, |_| {}).1)
            .collect();
        let premature = ssrs
            .iter()
            .zip(&hops)
            .filter(|(s, &h)| h < s.want_hops)
            .count();
        (hops, premature as u64)
    }

    /// A random SSR set as switch allocation grants it: at most one SSR per
    /// (router, direction), each wanting 1..=min(HPCmax, hops to the mesh
    /// edge), listed in a random order.
    fn random_ssrs(rng: &mut SplitMix64, mesh: Mesh, hpc_max: u16, density: f64) -> Vec<Ssr> {
        let mut ssrs = Vec::new();
        for start in mesh.nodes() {
            let c = mesh.coord(start);
            for dir in Direction::CARDINAL {
                let to_edge = match dir {
                    Direction::East => mesh.width() - 1 - c.x,
                    Direction::West => c.x,
                    Direction::North => mesh.height() - 1 - c.y,
                    _ => c.y,
                };
                if to_edge == 0 || !rng.gen_bool(density) {
                    continue;
                }
                let want_hops = 1 + rng.next_below(u64::from(to_edge.min(hpc_max))) as u16;
                ssrs.push(Ssr {
                    start,
                    dir,
                    want_hops,
                });
            }
        }
        for i in (1..ssrs.len()).rev() {
            ssrs.swap(i, rng.index(i + 1));
        }
        ssrs
    }

    #[test]
    fn one_pass_arbitration_matches_the_round_based_rule() {
        let mut rng = SplitMix64::new(0x55_2c);
        for (width, height) in [(8, 8), (8, 1)] {
            let mesh = Mesh::new(width, height);
            for hpc_max in 1..=4 {
                let routes = RouteTable::new(mesh, hpc_max, false);
                for case in 0..200 {
                    let density = [0.1, 0.5, 0.9][case % 3];
                    let ssrs = random_ssrs(&mut rng, mesh, hpc_max, density);
                    assert_eq!(
                        one_pass_travel(&routes, mesh.len(), &ssrs),
                        round_based_travel(&routes, hpc_max, &ssrs),
                        "{width}x{height} HPCmax {hpc_max} case {case}: {ssrs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fig2c_chain_stops_each_flit_at_the_next_start() {
        // Three eastbound SSRs on one line, each wanting a full SMART-hop:
        // the two upstream flits lose the link out of the next SSR's start
        // router; the front one travels its whole SMART-hop.
        let mesh = Mesh::new(8, 1);
        let routes = RouteTable::new(mesh, 4, false);
        let ssr = |start, want_hops| Ssr {
            start: NodeId(start),
            dir: Direction::East,
            want_hops,
        };
        let chain = [ssr(0, 4), ssr(1, 4), ssr(2, 4)];
        let expected = (vec![1, 1, 4], 2);
        assert_eq!(one_pass_travel(&routes, mesh.len(), &chain), expected);
        assert_eq!(round_based_travel(&routes, 4, &chain), expected);
        // A start beyond the SMART-hop does not truncate it.
        let apart = [ssr(0, 3), ssr(3, 4)];
        assert_eq!(
            one_pass_travel(&routes, mesh.len(), &apart),
            (vec![3, 4], 0)
        );
    }
}
