//! Closed-form, zero-load latency estimates for the three router kinds:
//! the oracle of the property-based tests (the simulated zero-load latency
//! must match the analytical value within a small constant
//! injection/ejection overhead), and a written-down statement of the timing
//! model.

use loco_noc::{NocConfig, NodeId, RouterKind};

/// Zero-load (no contention) latency, in cycles, of a single-flit message
/// from `src` to `dest` under `cfg`, excluding NIC injection/ejection
/// overhead.
pub fn zero_load_latency(cfg: &NocConfig, src: NodeId, dest: NodeId) -> u64 {
    if src == dest {
        return 1;
    }
    let mesh = cfg.mesh;
    match cfg.router {
        RouterKind::Conventional => {
            // 2 cycles per hop: 1 in the router, 1 on the link.
            2 * u64::from(mesh.hops(src, dest))
        }
        RouterKind::Smart => {
            // 2 cycles per SMART-hop: SSR, then single-cycle multi-hop ST+LT.
            2 * u64::from(mesh.smart_hops(src, dest, cfg.hpc_max))
        }
        RouterKind::HighRadix => {
            // Express links reach hpc_max hops in 1 cycle, but every stop
            // pays the multi-stage router pipeline.
            let express_hops = u64::from(mesh.smart_hops(src, dest, cfg.hpc_max));
            express_hops * (u64::from(cfg.router_pipeline) + 1)
        }
    }
}

/// Zero-load latency of a multi-flit message: head latency plus
/// serialization of the remaining flits at the destination.
pub fn zero_load_latency_bytes(cfg: &NocConfig, src: NodeId, dest: NodeId, bytes: u32) -> u64 {
    zero_load_latency(cfg, src, dest) + u64::from(cfg.flits_for(bytes) - 1)
}

/// Zero-load completion time of a VMS broadcast from `root` over home nodes
/// spaced `cluster_w x cluster_h` apart on a mesh of `clusters_x x clusters_y`
/// clusters: the longest root-to-leaf path of the XY tree.
pub fn zero_load_broadcast_latency(
    cfg: &NocConfig,
    root_col: u16,
    root_row: u16,
    clusters_x: u16,
    clusters_y: u16,
) -> u64 {
    let horiz_levels = root_col.max(clusters_x.saturating_sub(1).saturating_sub(root_col));
    let vert_levels = root_row.max(clusters_y.saturating_sub(1).saturating_sub(root_row));
    let per_level = match cfg.router {
        RouterKind::Conventional => 2 * u64::from(cfg.hpc_max.max(1)),
        RouterKind::Smart => 2,
        RouterKind::HighRadix => u64::from(cfg.router_pipeline) + 1,
    };
    // Each tree level is one home-to-home segment (<= hpc_max physical hops).
    (u64::from(horiz_levels) + u64::from(vert_levels)) * per_level
}

#[test]
fn smart_corner_to_corner_is_8_cycles() {
    let cfg = NocConfig::smart_mesh(8, 8, 4);
    assert_eq!(zero_load_latency(&cfg, NodeId(0), NodeId(63)), 8);
}

#[test]
fn conventional_corner_to_corner_is_28_cycles() {
    let cfg = NocConfig::conventional_mesh(8, 8);
    assert_eq!(zero_load_latency(&cfg, NodeId(0), NodeId(63)), 28);
}

#[test]
fn highradix_pays_pipeline_per_stop() {
    let cfg = NocConfig::highradix_mesh(8, 8, 4);
    // 14 hops = 4 express hops, each 4+1 cycles.
    assert_eq!(zero_load_latency(&cfg, NodeId(0), NodeId(63)), 20);
}

#[test]
fn serialization_adds_flits_minus_one() {
    let cfg = NocConfig::smart_mesh(8, 8, 4);
    let head = zero_load_latency(&cfg, NodeId(0), NodeId(4));
    assert_eq!(
        zero_load_latency_bytes(&cfg, NodeId(0), NodeId(4), 40),
        head + 2
    );
}

#[test]
fn broadcast_latency_smart_2x2_clusters() {
    let cfg = NocConfig::smart_mesh(8, 8, 4);
    // Corner-rooted broadcast over 2x2 clusters: 1 horizontal + 1
    // vertical level, 2 cycles each.
    assert_eq!(zero_load_broadcast_latency(&cfg, 0, 0, 2, 2), 4);
    // Centre-rooted on 4x4 clusters: 2 + 2 levels.
    assert_eq!(zero_load_broadcast_latency(&cfg, 1, 2, 4, 4), 8);
}
