//! Protocol-level integration tests: the L1/L2/directory/memory controllers
//! are wired together through an idealized instant-delivery bus (no NoC), so
//! these tests check coherence behaviour — single-writer, read-after-write
//! visibility, invalidation of sharers, IVR chains — independent of network
//! timing.

use loco::{Benchmark, OrganizationKind, SystemConfig};
use loco_cache::{
    Address, ClusterShape, DirectoryConfig, DirectoryController, L1Controller, L2Config,
    L2Controller, MemoryConfig, MemoryController, MemoryMap, MoesiState, Organization,
    OrganizationKind as Org, Outgoing, ProtocolMsg, Unit,
};
use loco_noc::{Mesh, NodeId};
use std::collections::VecDeque;

/// A tiny testbench: every tile has an L1 and an L2; directories and memory
/// controllers sit at the Table-1 edge nodes; messages are delivered in FIFO
/// order with no network delay.
struct Testbench {
    org: Organization,
    l1s: Vec<L1Controller>,
    l2s: Vec<L2Controller>,
    dirs: Vec<(NodeId, DirectoryController)>,
    mems: Vec<(NodeId, MemoryController)>,
    queue: VecDeque<ProtocolMsg>,
    time: u64,
}

impl Testbench {
    fn new(org: Organization) -> Self {
        let memmap = MemoryMap::asplos(org.mesh());
        let n = org.mesh().len();
        Testbench {
            org,
            l1s: (0..n)
                .map(|i| {
                    L1Controller::new(
                        NodeId(i as u16),
                        loco_cache::CacheGeometry::asplos_l1(),
                        org,
                    )
                })
                .collect(),
            l2s: (0..n)
                .map(|i| {
                    L2Controller::new(NodeId(i as u16), L2Config::default(), org, memmap.clone())
                })
                .collect(),
            dirs: memmap
                .controllers()
                .iter()
                .map(|&c| (c, DirectoryController::new(c, DirectoryConfig::default())))
                .collect(),
            mems: memmap
                .controllers()
                .iter()
                .map(|&c| (c, MemoryController::new(c, MemoryConfig::default())))
                .collect(),
            queue: VecDeque::new(),
            time: 0,
        }
    }

    fn push_all(&mut self, out: Vec<Outgoing>, from: NodeId) {
        for o in out {
            // Broadcasts are expanded to every other home node of the VMS.
            if matches!(
                o.msg.kind,
                loco_cache::MsgKind::BcastGetS | loco_cache::MsgKind::BcastGetM
            ) {
                for member in self.org.vms_members(o.msg.addr) {
                    if member != from {
                        let mut m = o.msg;
                        m.dst = loco_cache::Agent::l2(member);
                        self.queue.push_back(m);
                    }
                }
            } else {
                self.queue.push_back(o.msg);
            }
        }
    }

    /// Issues a core access and drains the protocol to quiescence.
    fn access(&mut self, core: u16, addr: u64, write: bool) {
        self.time += 100;
        let mut out = Vec::new();
        let res = self.l1s[core as usize].access(Address(addr), write, self.time, &mut out);
        self.push_all(out, NodeId(core));
        if res == loco_cache::L1Access::Hit {
            return;
        }
        // Alternate between draining the message queue and advancing the
        // memory controllers until the access completes (DRAM responses are
        // released by `MemoryController::tick`).
        for _ in 0..32 {
            self.drain();
            if !self.l1s[core as usize].is_blocked() {
                return;
            }
            self.time += 250;
            let time = self.time;
            let mut fired = Vec::new();
            for (node, mem) in &mut self.mems {
                let mut out = Vec::new();
                mem.tick(time, &mut out);
                fired.push((*node, out));
            }
            for (node, out) in fired {
                self.push_all(out, node);
            }
        }
        panic!("core {core} access to {addr:#x} never completed");
    }

    fn drain(&mut self) {
        let mut steps = 0;
        while let Some(msg) = self.queue.pop_front() {
            steps += 1;
            assert!(steps < 100_000, "protocol did not quiesce");
            self.time += 1;
            let node = msg.dst.node;
            let mut out = Vec::new();
            match msg.dst.unit {
                Unit::L1 => {
                    self.l1s[node.index()].handle(msg, self.time, &mut out);
                }
                Unit::L2 => self.l2s[node.index()].handle(msg, self.time, &mut out),
                Unit::Dir => {
                    self.dirs
                        .iter_mut()
                        .find(|(n, _)| *n == node)
                        .expect("directory node")
                        .1
                        .handle(msg, &mut out);
                }
                Unit::Mem => {
                    self.mems
                        .iter_mut()
                        .find(|(n, _)| *n == node)
                        .expect("memory node")
                        .1
                        .handle(msg, self.time, &mut out);
                }
            }
            self.push_all(out, node);
        }
    }

    /// All L2 slices holding `addr` and their states.
    fn holders(&self, addr: u64) -> Vec<(NodeId, MoesiState)> {
        let line = Address(addr).line(32);
        self.l2s
            .iter()
            .filter_map(|l2| l2.line_state(line).map(|s| (l2.node(), s)))
            .collect()
    }
}

fn loco_vms_org() -> Organization {
    Organization::loco(Mesh::new(8, 8), Org::LocoCcVms, ClusterShape::new(4, 4))
}

#[test]
fn read_then_remote_read_creates_exactly_one_owner_and_one_sharer() {
    let mut tb = Testbench::new(loco_vms_org());
    // Core 0 (cluster 0) reads, then core 36 (cluster 3) reads the same line.
    tb.access(0, 0x8000, false);
    let holders = tb.holders(0x8000);
    assert_eq!(
        holders.len(),
        1,
        "one cluster caches the line after a cold read"
    );
    assert!(holders[0].1.is_owner());

    tb.access(36, 0x8000, false);
    let holders = tb.holders(0x8000);
    assert_eq!(holders.len(), 2, "the reader's cluster replicates the line");
    let owners = holders.iter().filter(|(_, s)| s.is_owner()).count();
    assert_eq!(owners, 1, "exactly one owner across clusters: {holders:?}");
}

#[test]
fn write_invalidates_every_other_cluster() {
    let mut tb = Testbench::new(loco_vms_org());
    // Three clusters read the line.
    tb.access(0, 0x9000, false);
    tb.access(36, 0x9000, false);
    tb.access(60, 0x9000, false);
    assert!(tb.holders(0x9000).len() >= 2);
    // A core in cluster 1 writes.
    tb.access(7, 0x9000, true);
    let holders = tb.holders(0x9000);
    assert_eq!(
        holders.len(),
        1,
        "only the writer's cluster keeps a copy: {holders:?}"
    );
    assert_eq!(holders[0].1, MoesiState::M);
    // The writer's home node is in the writer's cluster.
    let org = loco_vms_org();
    assert_eq!(org.cluster_of(holders[0].0), org.cluster_of(NodeId(7)));
}

#[test]
fn write_after_read_by_same_cluster_is_a_local_upgrade() {
    let mut tb = Testbench::new(loco_vms_org());
    tb.access(1, 0xa000, false);
    tb.access(2, 0xa000, true); // same cluster as core 1
    let holders = tb.holders(0xa000);
    assert_eq!(holders.len(), 1);
    assert_eq!(holders[0].1, MoesiState::M);
}

#[test]
fn directory_based_private_baseline_maintains_single_writer() {
    let mut tb = Testbench::new(Organization::private(Mesh::new(8, 8)));
    tb.access(0, 0xb000, false);
    tb.access(9, 0xb000, false);
    tb.access(18, 0xb000, true);
    let holders = tb.holders(0xb000);
    assert_eq!(holders.len(), 1, "writer is the only holder: {holders:?}");
    assert_eq!(holders[0].0, NodeId(18));
    assert_eq!(holders[0].1, MoesiState::M);
}

#[test]
fn shared_baseline_keeps_a_single_l2_copy_chip_wide() {
    let mut tb = Testbench::new(Organization::shared(Mesh::new(8, 8)));
    tb.access(0, 0xc000, false);
    tb.access(13, 0xc000, false);
    tb.access(42, 0xc000, true);
    let holders = tb.holders(0xc000);
    assert_eq!(
        holders.len(),
        1,
        "the shared LLC never replicates: {holders:?}"
    );
}

#[test]
fn repeated_writes_from_alternating_clusters_converge() {
    let mut tb = Testbench::new(loco_vms_org());
    for round in 0..6u16 {
        let core = if round % 2 == 0 { 3 } else { 59 };
        tb.access(core, 0xd000, true);
        let holders = tb.holders(0xd000);
        assert_eq!(holders.len(), 1, "round {round}: {holders:?}");
        assert_eq!(holders[0].1, MoesiState::M);
    }
}

#[test]
fn ivr_full_simulation_preserves_forward_progress_under_pressure() {
    // System-level check (through the real NoC): a capacity-thrashing
    // benchmark with IVR still completes and produces migrations. The L2
    // slice is shrunk to 4 KB so the short trace already overflows it.
    let mut cfg = SystemConfig {
        mesh_width: 4,
        mesh_height: 4,
        cluster: ClusterShape::new(2, 2),
        ..SystemConfig::asplos_64(OrganizationKind::LocoCcVmsIvr)
    };
    cfg.l2.geometry.size_bytes = 4 * 1024;
    let spec = Benchmark::Canneal.spec();
    let traces = loco::TraceGenerator::new(42).generate(&spec, cfg.num_cores(), 300);
    let r = loco::CmpSystem::new(cfg, traces).run(10_000_000);
    assert!(r.completed);
    assert!(r.cache.ivr_migrations > 0);
    // Migration chains terminate: accepted + denied accounting is sane.
    assert!(r.cache.ivr_accepted + r.cache.ivr_denied <= r.cache.ivr_migrations * 2);
}
