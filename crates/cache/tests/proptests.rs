//! Randomized property tests of the cache substrate, driven by a
//! deterministic seeded PRNG (the offline build has no `proptest`): the
//! set-associative array never violates its geometry, LRU eviction picks the
//! oldest line, sharer sets behave like sets, and the address→home-node map
//! always stays inside the requester's cluster.

use loco_cache::{
    Address, CacheArray, CacheGeometry, ClusterShape, Eviction, LineAddr, Organization,
    OrganizationKind, SharerSet,
};
use loco_noc::{Mesh, NodeId, SplitMix64};
use std::collections::HashSet;

fn small_geometry(ways: usize, sets: usize) -> CacheGeometry {
    CacheGeometry {
        size_bytes: (ways * sets * 32) as u64,
        ways,
        line_bytes: 32,
        latency: 1,
    }
}

/// No set ever holds more lines than the associativity, regardless of the
/// insertion sequence, and lookups after insertion always hit until an
/// eviction removes the line.
#[test]
fn cache_array_never_exceeds_associativity() {
    let mut rng = SplitMix64::new(0xca11);
    for case in 0..128 {
        let ways = 1 + rng.index(8);
        let sets = 1usize << rng.next_below(4);
        let n_lines = 1 + rng.index(199);
        let mut cache: CacheArray<u8> = CacheArray::new(small_geometry(ways, sets));
        let mut resident: HashSet<(usize, u64)> = HashSet::new();
        for t in 0..n_lines {
            let line = rng.next_below(64);
            let set = (line as usize) % sets;
            match cache.insert(set, LineAddr(line), 0, t as u64) {
                Eviction::Victim(v) => {
                    assert!(
                        resident.remove(&(set, v.addr.0)),
                        "case {case}: evicted a non-resident line"
                    );
                }
                Eviction::None => {}
            }
            resident.insert((set, line));
            assert!(cache.peek(set, LineAddr(line)).is_some(), "case {case}");
        }
        assert_eq!(cache.occupancy(), resident.len(), "case {case}");
        for set in 0..sets {
            let in_set = resident.iter().filter(|(s, _)| *s == set).count();
            assert!(in_set <= ways, "case {case}: set {set} overflows");
        }
    }
}

/// The LRU victim is always the least-recently-touched line of the set.
#[test]
fn lru_evicts_the_oldest_line() {
    let mut rng = SplitMix64::new(0xca12);
    for case in 0..128 {
        let ways = 2 + rng.index(7);
        let touches = 1 + rng.index(63);
        let mut cache: CacheArray<u8> = CacheArray::new(small_geometry(ways, 1));
        let mut order: Vec<u64> = Vec::new(); // most recent last
        let mut now = 0u64;
        for _ in 0..touches {
            let line = rng.next_below(16);
            now += 1;
            if cache.peek(0, LineAddr(line)).is_some() {
                cache.lookup_mut(0, LineAddr(line), now);
                order.retain(|&l| l != line);
                order.push(line);
            } else {
                match cache.insert(0, LineAddr(line), 0, now) {
                    Eviction::Victim(v) => {
                        assert_eq!(v.addr.0, order[0], "case {case}: must evict the LRU line");
                        order.remove(0);
                    }
                    Eviction::None => {}
                }
                order.push(line);
            }
        }
    }
}

/// SharerSet behaves like a set of node ids below 256.
#[test]
fn sharer_set_matches_hashset() {
    let mut rng = SplitMix64::new(0xca13);
    for case in 0..128 {
        let ops = rng.index(300);
        let mut s = SharerSet::new();
        let mut reference: HashSet<u16> = HashSet::new();
        for _ in 0..ops {
            let node = rng.next_below(256) as u16;
            if rng.gen_bool(0.5) {
                s.insert(NodeId(node));
                reference.insert(node);
            } else {
                s.remove(NodeId(node));
                reference.remove(&node);
            }
            assert_eq!(s.len(), reference.len(), "case {case}");
            assert_eq!(
                s.contains(NodeId(node)),
                reference.contains(&node),
                "case {case}"
            );
        }
        let collected: HashSet<u16> = s.iter().map(|n| n.0).collect();
        assert_eq!(collected, reference, "case {case}");
    }
}

/// For every LOCO cluster shape, the home node of any address and any
/// requester lies inside the requester's cluster, and the VMS for that
/// address has exactly one member per cluster (the home of each).
#[test]
fn home_node_mapping_respects_clusters() {
    let shapes = [
        ClusterShape::new(4, 4),
        ClusterShape::new(4, 1),
        ClusterShape::new(8, 1),
        ClusterShape::new(2, 2),
    ];
    let mut rng = SplitMix64::new(0xca14);
    for case in 0..128 {
        let addr = rng.next_u64();
        let requester = rng.next_below(64) as u16;
        let shape = shapes[rng.index(shapes.len())];
        let org = Organization::loco(Mesh::new(8, 8), OrganizationKind::LocoCcVms, shape);
        let line = Address(addr).line(32);
        let home = org.home_node(NodeId(requester), line);
        assert_eq!(
            org.cluster_of(home),
            org.cluster_of(NodeId(requester)),
            "case {case}"
        );
        let members = org.vms_members(line);
        assert_eq!(members.len(), org.num_clusters(), "case {case}");
        let clusters: HashSet<usize> = members.iter().map(|&m| org.cluster_of(m)).collect();
        assert_eq!(clusters.len(), org.num_clusters(), "case {case}");
        assert!(members.contains(&home), "case {case}");
    }
}

/// Address field decomposition is lossless for every hnid width / set count
/// combination used by the organizations.
#[test]
fn address_decomposition_is_lossless() {
    let mut rng = SplitMix64::new(0xca15);
    for case in 0..128 {
        let raw = rng.next_u64();
        let hnid_bits = rng.next_below(7) as u32;
        let sets = 1usize << rng.next_below(10);
        let line = Address(raw).line(32);
        let rebuilt = ((line.tag(hnid_bits, sets) * sets as u64
            + line.set_index(hnid_bits, sets) as u64)
            << hnid_bits)
            | line.hnid(hnid_bits);
        assert_eq!(rebuilt, line.0, "case {case}");
        assert!(line.set_index(hnid_bits, sets) < sets, "case {case}");
    }
}
