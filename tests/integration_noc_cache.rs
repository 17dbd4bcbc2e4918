//! Integration tests across the NoC and cache layers: protocol messages
//! travelling through the real fabric, VMS multicast groups derived from the
//! cache organization, and back-pressure behaviour.

use loco_cache::{ClusterShape, LineAddr, Organization, OrganizationKind};
use loco_noc::{Coord, Mesh, NetMessage, Network, NocConfig, NodeId, VirtualMesh, VirtualNetwork};

#[test]
fn organization_vms_matches_virtual_mesh_membership() {
    // The cache organization's per-line home nodes must be exactly the
    // virtual mesh the NoC broadcasts on.
    let mesh = Mesh::new(8, 8);
    let org = Organization::loco(mesh, OrganizationKind::LocoCcVms, ClusterShape::new(4, 4));
    for hnid in 0..16u64 {
        let line = LineAddr(hnid);
        let from_org: std::collections::BTreeSet<NodeId> =
            org.vms_members(line).into_iter().collect();
        let offset = Coord::new((hnid % 4) as u16, (hnid / 4) as u16);
        let vms = VirtualMesh::new(mesh, 4, 4, offset);
        let from_noc: std::collections::BTreeSet<NodeId> = vms.members().iter().copied().collect();
        assert_eq!(from_org, from_noc, "hnid {hnid}");
    }
}

#[test]
fn protocol_sized_messages_travel_every_fabric() {
    // A 40-byte data response (3 flits on 16-byte links) and an 8-byte
    // control request must both arrive on all three router kinds.
    for cfg in [
        NocConfig::smart_mesh(8, 8, 4),
        NocConfig::conventional_mesh(8, 8),
        NocConfig::highradix_mesh(8, 8, 4),
    ] {
        let mut net: Network<&str> = Network::new(cfg);
        net.inject(NetMessage::unicast(
            NodeId(0),
            NodeId(27),
            VirtualNetwork::Request,
            8,
            "req",
        ))
        .unwrap();
        net.inject(NetMessage::unicast(
            NodeId(27),
            NodeId(0),
            VirtualNetwork::Response,
            40,
            "data",
        ))
        .unwrap();
        let mut got = 0;
        for _ in 0..500 {
            net.tick();
            got += net.eject(NodeId(27)).len() + net.eject(NodeId(0)).len();
            if got == 2 {
                break;
            }
        }
        assert_eq!(got, 2, "{:?}", cfg.router);
    }
}

#[test]
fn vms_broadcast_over_the_real_fabric_reaches_all_home_nodes_quickly() {
    let mesh = Mesh::new(8, 8);
    let org = Organization::loco(mesh, OrganizationKind::LocoCcVms, ClusterShape::new(4, 4));
    let line = LineAddr(5);
    let members = org.vms_members(line);
    let mut net: Network<u64> = Network::new(NocConfig::smart_mesh(8, 8, 4));
    let group = net.register_multicast_group(members.clone());
    let root = org.home_node(NodeId(0), line);
    net.inject(NetMessage::multicast(
        root,
        group,
        VirtualNetwork::Broadcast,
        8,
        99,
    ))
    .unwrap();
    let mut latencies = Vec::new();
    for _ in 0..200 {
        net.tick();
        for &m in &members {
            for d in net.eject(m) {
                latencies.push(d.latency);
            }
        }
    }
    assert_eq!(latencies.len(), members.len() - 1);
    // Figure 3: the whole broadcast completes within a handful of SMART-hops
    // (8 cycles best case plus fork overheads).
    assert!(
        latencies.iter().all(|&l| l <= 24),
        "broadcast latencies {latencies:?}"
    );
}

#[test]
fn sustained_injection_backpressure_never_loses_messages() {
    let cfg = NocConfig::smart_mesh(4, 4, 4);
    let mut net: Network<u32> = Network::new(cfg);
    let mut sent = 0u32;
    let mut received = 0u32;
    let mut next_id = 0u32;
    // All nodes hammer node 15 for a while; injection failures are retried.
    let mut backlog: Vec<NetMessage<u32>> = Vec::new();
    for cycle in 0..400u32 {
        if cycle < 200 {
            for src in 0..15u16 {
                let m = NetMessage::unicast(
                    NodeId(src),
                    NodeId(15),
                    VirtualNetwork::Request,
                    8,
                    next_id,
                );
                next_id += 1;
                backlog.push(m);
            }
        }
        let mut still = Vec::new();
        for m in backlog.drain(..) {
            match net.inject(m.clone()) {
                Ok(()) => sent += 1,
                Err(_) => still.push(m),
            }
        }
        backlog = still;
        net.tick();
        received += net.eject(NodeId(15)).len() as u32;
    }
    // Drain what is still in flight.
    for _ in 0..5_000 {
        if !net.is_busy() && backlog.is_empty() {
            break;
        }
        let mut still = Vec::new();
        for m in backlog.drain(..) {
            match net.inject(m.clone()) {
                Ok(()) => sent += 1,
                Err(_) => still.push(m),
            }
        }
        backlog = still;
        net.tick();
        received += net.eject(NodeId(15)).len() as u32;
    }
    assert_eq!(received, sent, "every accepted message must be delivered");
    assert!(
        sent >= 1_000,
        "the fabric should have absorbed a lot of traffic"
    );
}

#[test]
fn conventional_fabric_is_consistently_slower_than_smart_for_protocol_traffic() {
    let run = |cfg: NocConfig| -> f64 {
        let mut net: Network<u32> = Network::new(cfg);
        let pairs: Vec<(u16, u16)> = vec![(0, 63), (7, 56), (3, 60), (12, 51), (21, 42)];
        for (i, &(s, d)) in pairs.iter().enumerate() {
            net.inject(NetMessage::unicast(
                NodeId(s),
                NodeId(d),
                VirtualNetwork::Request,
                8,
                i as u32,
            ))
            .unwrap();
        }
        let mut latencies = Vec::new();
        for _ in 0..300 {
            net.tick();
            latencies.extend(net.eject_all().into_iter().map(|d| d.latency));
        }
        assert_eq!(latencies.len(), pairs.len());
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let smart = run(NocConfig::smart_mesh(8, 8, 4));
    let conv = run(NocConfig::conventional_mesh(8, 8));
    assert!(
        smart * 2.0 < conv,
        "smart {smart:.1} vs conventional {conv:.1}"
    );
}
