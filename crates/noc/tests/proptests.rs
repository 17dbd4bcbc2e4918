//! Randomized property tests of the NoC substrate, driven by a deterministic
//! seeded PRNG (the offline build has no `proptest`): zero-load latencies of
//! the cycle-driven fabrics match the analytical model, routing always
//! terminates, and multicast trees cover every member exactly once.

mod analytical;

use analytical::zero_load_latency;
use loco_noc::{
    Coord, Mesh, NetMessage, Network, NocConfig, NodeId, RouterKind, SplitMix64, VirtualMesh,
    VirtualNetwork,
};

fn deliver_one(cfg: NocConfig, src: NodeId, dest: NodeId) -> (u64, u32) {
    let mut net: Network<()> = Network::new(cfg);
    net.inject(NetMessage::unicast(
        src,
        dest,
        VirtualNetwork::Request,
        8,
        (),
    ))
    .expect("inject into empty network");
    for _ in 0..20_000 {
        net.tick();
        if let Some(d) = net.eject(dest).pop() {
            return (d.latency, d.stops);
        }
    }
    panic!("message from {src} to {dest} never arrived");
}

/// An uncontended packet's latency on each fabric equals the analytical
/// zero-load latency plus a small constant injection overhead.
#[test]
fn zero_load_latency_matches_analytical_model() {
    let mut rng = SplitMix64::new(0x50c1);
    for case in 0..64 {
        let width = 2 + rng.next_below(8) as u16;
        let height = 2 + rng.next_below(8) as u16;
        let mesh = Mesh::new(width, height);
        let src = NodeId(rng.next_below(mesh.len() as u64) as u16);
        let dest = NodeId(rng.next_below(mesh.len() as u64) as u16);
        let kind = match rng.next_below(3) {
            0 => RouterKind::Smart,
            1 => RouterKind::Conventional,
            _ => RouterKind::HighRadix,
        };
        if src == dest {
            continue;
        }
        let cfg = match kind {
            RouterKind::Smart => NocConfig::smart_mesh(width, height, 4),
            RouterKind::Conventional => NocConfig::conventional_mesh(width, height),
            RouterKind::HighRadix => NocConfig::highradix_mesh(width, height, 4),
        };
        let expected = zero_load_latency(&cfg, src, dest);
        let (latency, _) = deliver_one(cfg, src, dest);
        // Allow the 1-cycle injection plus up to 2 cycles of model slack
        // (ejection / pipeline rounding).
        assert!(
            latency >= expected,
            "case {case} ({kind:?} {width}x{height} {src}->{dest}): latency {latency} < analytical {expected}"
        );
        assert!(
            latency <= expected + 3,
            "case {case} ({kind:?} {width}x{height} {src}->{dest}): latency {latency} >> analytical {expected}"
        );
    }
}

/// SMART never takes more stops than the XY hop count and never more cycles
/// than the conventional fabric; corner to corner on 8x8 and 16x16 it is at
/// least twice as fast (Section 2's single-cycle multi-hop argument: 8 vs
/// 29 cycles on 8x8, 16 vs 61 on 16x16).
#[test]
fn smart_dominates_conventional() {
    for side in [8u16, 16] {
        let corner = NodeId(side * side - 1);
        let (smart, _) = deliver_one(NocConfig::smart_mesh(side, side, 4), NodeId(0), corner);
        let (conv, _) = deliver_one(NocConfig::conventional_mesh(side, side), NodeId(0), corner);
        assert!(
            2 * smart <= conv,
            "{side}x{side} corner to corner: SMART {smart} vs conventional {conv}"
        );
    }
    let mut rng = SplitMix64::new(0x50c2);
    for case in 0..64 {
        let width = 2 + rng.next_below(7) as u16;
        let height = 2 + rng.next_below(7) as u16;
        let mesh = Mesh::new(width, height);
        let src = NodeId(rng.next_below(mesh.len() as u64) as u16);
        let dest = NodeId(rng.next_below(mesh.len() as u64) as u16);
        if src == dest {
            continue;
        }
        let (smart_lat, smart_stops) =
            deliver_one(NocConfig::smart_mesh(width, height, 4), src, dest);
        let (conv_lat, conv_stops) =
            deliver_one(NocConfig::conventional_mesh(width, height), src, dest);
        assert!(
            smart_lat <= conv_lat,
            "case {case}: {smart_lat} > {conv_lat}"
        );
        assert!(smart_stops <= conv_stops, "case {case}");
        assert_eq!(conv_stops as u16, mesh.hops(src, dest), "case {case}");
        assert_eq!(
            smart_stops as u16,
            mesh.smart_hops(src, dest, 4),
            "case {case}"
        );
    }
}

/// Every virtual mesh (any legal cluster shape and home offset) is covered
/// exactly once by the XY-tree broadcast, from any root.
#[test]
fn vms_broadcast_covers_every_member_exactly_once() {
    let mut rng = SplitMix64::new(0x50c3);
    for case in 0..64 {
        let mesh = Mesh::new(8, 8);
        let cw = 1u16 << rng.next_below(3); // 1, 2, 4
        let ch = 1u16 << rng.next_below(3);
        let offset = Coord::new(
            (rng.next_below(8) as u16) % cw,
            (rng.next_below(8) as u16) % ch,
        );
        let vms = VirtualMesh::new(mesh, cw, ch, offset);
        if vms.len() <= 1 {
            continue;
        }
        let members = vms.members().to_vec();
        let root = members[rng.index(members.len())];

        let mut net: Network<u8> = Network::new(NocConfig::smart_mesh(8, 8, 4));
        let group = net.register_multicast_group(members.clone());
        net.inject(NetMessage::multicast(
            root,
            group,
            VirtualNetwork::Broadcast,
            8,
            0,
        ))
        .unwrap();
        let mut seen = std::collections::HashMap::new();
        for _ in 0..2_000 {
            net.tick();
            for &m in &members {
                for d in net.eject(m) {
                    *seen.entry(d.receiver).or_insert(0u32) += 1;
                }
            }
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(
            seen.len(),
            members.len() - 1,
            "case {case}: missing receivers"
        );
        assert!(
            seen.values().all(|&c| c == 1),
            "case {case}: duplicate deliveries: {seen:?}"
        );
        assert!(!seen.contains_key(&root), "case {case}");
    }
}

/// Mesh routing helpers are self-consistent: following `xy_next_dir` step by
/// step reaches the destination in exactly `hops` steps.
#[test]
fn xy_routing_reaches_destination() {
    let mut rng = SplitMix64::new(0x50c4);
    for case in 0..64 {
        let width = 1 + rng.next_below(16) as u16;
        let height = 1 + rng.next_below(16) as u16;
        let mesh = Mesh::new(width, height);
        let a = NodeId(rng.next_below(mesh.len() as u64) as u16);
        let b = NodeId(rng.next_below(mesh.len() as u64) as u16);
        let mut cur = a;
        let mut steps = 0;
        while let Some(dir) = mesh.xy_next_dir(cur, b) {
            cur = mesh
                .neighbor(cur, dir)
                .expect("route stays inside the mesh");
            steps += 1;
            assert!(steps <= mesh.hops(a, b), "case {case}: route overshoots");
        }
        assert_eq!(cur, b, "case {case}");
        assert_eq!(steps, mesh.hops(a, b), "case {case}");
    }
}
