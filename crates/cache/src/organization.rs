//! Cache organizations: private, distributed shared, and the three LOCO
//! variants (CC, CC+VMS, CC+VMS+IVR), plus the address→home-node mapping and
//! cluster geometry they imply.

use crate::address::LineAddr;
use loco_noc::{Coord, Mesh, NodeId};

/// Which cache organization the CMP uses (Section 4.2 of the paper
/// evaluates all five).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrganizationKind {
    /// Per-tile private L2; global coherence through a directory at the
    /// memory controllers.
    Private,
    /// Chip-wide distributed shared L2 (static home tile per address).
    Shared,
    /// LOCO local cache clustering only; inter-cluster coherence through the
    /// directory at the memory controllers.
    LocoCc,
    /// LOCO clustering plus VMS broadcast for the global data search.
    LocoCcVms,
    /// LOCO clustering, VMS broadcast and inter-cluster victim replacement.
    LocoCcVmsIvr,
}

impl OrganizationKind {
    /// Label used in experiment tables (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            OrganizationKind::Private => "Private Cache",
            OrganizationKind::Shared => "Shared Cache",
            OrganizationKind::LocoCc => "LOCO CC",
            OrganizationKind::LocoCcVms => "LOCO CC+VMS",
            OrganizationKind::LocoCcVmsIvr => "LOCO CC+VMS+IVR",
        }
    }
}

/// Cluster geometry (width x height in tiles). The paper evaluates 4x4,
/// 4x1 and 8x1 clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterShape {
    /// Cluster width in tiles.
    pub w: u16,
    /// Cluster height in tiles.
    pub h: u16,
}

impl ClusterShape {
    /// A `w x h` cluster.
    pub fn new(w: u16, h: u16) -> Self {
        assert!(w > 0 && h > 0, "cluster dimensions must be non-zero");
        ClusterShape { w, h }
    }

    /// Number of tiles per cluster.
    pub fn tiles(self) -> usize {
        self.w as usize * self.h as usize
    }
}

/// A fully specified cache organization on a given mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Organization {
    kind: OrganizationKind,
    mesh: Mesh,
    cluster: ClusterShape,
}

impl Organization {
    /// Private per-tile L2 organization.
    pub fn private(mesh: Mesh) -> Self {
        Organization {
            kind: OrganizationKind::Private,
            mesh,
            cluster: ClusterShape::new(1, 1),
        }
    }

    /// Chip-wide distributed shared L2 organization.
    pub fn shared(mesh: Mesh) -> Self {
        Organization {
            kind: OrganizationKind::Shared,
            mesh,
            cluster: ClusterShape::new(mesh.width(), mesh.height()),
        }
    }

    /// A LOCO organization with the given variant and cluster shape.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a LOCO variant, if the cluster does not evenly
    /// tile the mesh, or if the cluster size is not a power of two (the HNid
    /// field must be a whole number of address bits).
    pub fn loco(mesh: Mesh, kind: OrganizationKind, cluster: ClusterShape) -> Self {
        assert!(
            matches!(
                kind,
                OrganizationKind::LocoCc
                    | OrganizationKind::LocoCcVms
                    | OrganizationKind::LocoCcVmsIvr
            ),
            "loco() requires a LOCO organization kind"
        );
        assert!(
            mesh.width().is_multiple_of(cluster.w) && mesh.height().is_multiple_of(cluster.h),
            "cluster {}x{} must evenly tile the {}x{} mesh",
            cluster.w,
            cluster.h,
            mesh.width(),
            mesh.height()
        );
        assert!(
            cluster.tiles().is_power_of_two(),
            "cluster size must be a power of two tiles"
        );
        Organization {
            kind,
            mesh,
            cluster,
        }
    }

    /// The organization kind.
    pub fn kind(&self) -> OrganizationKind {
        self.kind
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The cluster shape (1x1 for private, the whole chip for shared).
    pub fn cluster(&self) -> ClusterShape {
        self.cluster
    }

    /// Number of clusters on the chip.
    pub fn num_clusters(&self) -> usize {
        self.mesh.len() / self.cluster.tiles()
    }

    /// Clusters per mesh row.
    pub fn clusters_x(&self) -> u16 {
        self.mesh.width() / self.cluster.w
    }

    /// Clusters per mesh column.
    pub fn clusters_y(&self) -> u16 {
        self.mesh.height() / self.cluster.h
    }

    /// Number of HNid bits (log2 of the number of home-node candidates the
    /// address selects between).
    pub fn hnid_bits(&self) -> u32 {
        match self.kind {
            OrganizationKind::Private => 0,
            OrganizationKind::Shared => (self.mesh.len() as u64).trailing_zeros(),
            _ => (self.cluster.tiles() as u64).trailing_zeros(),
        }
    }

    /// The cluster index containing `node`.
    pub fn cluster_of(&self, node: NodeId) -> usize {
        let c = self.mesh.coord(node);
        let cx = (c.x / self.cluster.w) as usize;
        let cy = (c.y / self.cluster.h) as usize;
        cy * self.clusters_x() as usize + cx
    }

    /// All tiles belonging to cluster `idx`.
    pub fn cluster_nodes(&self, idx: usize) -> Vec<NodeId> {
        let cx = (idx % self.clusters_x() as usize) as u16;
        let cy = (idx / self.clusters_x() as usize) as u16;
        let ox = cx * self.cluster.w;
        let oy = cy * self.cluster.h;
        let mut out = Vec::with_capacity(self.cluster.tiles());
        for y in 0..self.cluster.h {
            for x in 0..self.cluster.w {
                out.push(self.mesh.node_at(Coord::new(ox + x, oy + y)));
            }
        }
        out
    }

    /// The home node for `line` inside cluster `idx` (LOCO), or the chip-wide
    /// home (shared); for private organizations the home of any line is the
    /// requesting tile itself, so this returns the HNid-selected tile of the
    /// 1x1 "cluster", i.e. the cluster's only node.
    pub fn home_in_cluster(&self, idx: usize, line: LineAddr) -> NodeId {
        match self.kind {
            OrganizationKind::Shared => {
                NodeId((line.hnid(self.hnid_bits()) % self.mesh.len() as u64) as u16)
            }
            _ => {
                let hnid = line.hnid(self.hnid_bits()) as u16;
                let lx = hnid % self.cluster.w;
                let ly = hnid / self.cluster.w;
                let cx = (idx % self.clusters_x() as usize) as u16;
                let cy = (idx / self.clusters_x() as usize) as u16;
                self.mesh.node_at(Coord::new(
                    cx * self.cluster.w + lx,
                    cy * self.cluster.h + ly,
                ))
            }
        }
    }

    /// The home L2 a request from `requester` for `line` is sent to.
    pub fn home_node(&self, requester: NodeId, line: LineAddr) -> NodeId {
        match self.kind {
            OrganizationKind::Private => requester,
            OrganizationKind::Shared => self.home_in_cluster(0, line),
            _ => self.home_in_cluster(self.cluster_of(requester), line),
        }
    }

    /// The home nodes of `line` in every cluster — the members of the
    /// virtual mesh (VMS) the line's global searches are broadcast on.
    pub fn vms_members(&self, line: LineAddr) -> Vec<NodeId> {
        (0..self.num_clusters())
            .map(|c| self.home_in_cluster(c, line))
            .collect()
    }

    /// A stable identifier of the VMS for `line` (its HNid value); lines with
    /// equal HNid share a virtual mesh and hence a multicast group.
    pub fn vms_id(&self, line: LineAddr) -> u64 {
        line.hnid(self.hnid_bits())
    }

    /// Number of distinct virtual meshes (= cluster size for LOCO).
    pub fn num_vms(&self) -> usize {
        match self.kind {
            OrganizationKind::Shared | OrganizationKind::Private => 0,
            _ => self.cluster.tiles(),
        }
    }

    /// Whether global data search uses VMS broadcasts.
    pub fn uses_vms(&self) -> bool {
        matches!(
            self.kind,
            OrganizationKind::LocoCcVms | OrganizationKind::LocoCcVmsIvr
        )
    }

    /// Whether evictions use inter-cluster victim replacement.
    pub fn uses_ivr(&self) -> bool {
        matches!(self.kind, OrganizationKind::LocoCcVmsIvr)
    }

    /// Whether global coherence goes through the directory at the memory
    /// controllers (private, LOCO CC) rather than broadcasts.
    pub fn uses_global_directory(&self) -> bool {
        matches!(
            self.kind,
            OrganizationKind::Private | OrganizationKind::LocoCc
        )
    }

    /// Whether the home L2 is the only L2 copy on the chip (shared cache).
    pub fn is_chip_wide_shared(&self) -> bool {
        self.kind == OrganizationKind::Shared
    }
}

/// Placement of the memory controllers and the address interleaving across
/// them (Table 1: four controllers, one on each edge of the chip).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryMap {
    controllers: Vec<NodeId>,
}

impl MemoryMap {
    /// The paper's placement: one controller at the midpoint of each chip
    /// edge.
    pub fn asplos(mesh: Mesh) -> Self {
        let mx = mesh.width() / 2;
        let my = mesh.height() / 2;
        MemoryMap {
            controllers: vec![
                mesh.node_at(Coord::new(mx, 0)),
                mesh.node_at(Coord::new(mx, mesh.height() - 1)),
                mesh.node_at(Coord::new(0, my)),
                mesh.node_at(Coord::new(mesh.width() - 1, my)),
            ],
        }
    }

    /// A custom placement.
    ///
    /// # Panics
    ///
    /// Panics if `controllers` is empty.
    pub fn new(controllers: Vec<NodeId>) -> Self {
        assert!(
            !controllers.is_empty(),
            "at least one memory controller required"
        );
        MemoryMap { controllers }
    }

    /// All memory-controller nodes.
    pub fn controllers(&self) -> &[NodeId] {
        &self.controllers
    }

    /// The controller responsible for `line` (address-interleaved).
    pub fn controller_for(&self, line: LineAddr) -> NodeId {
        self.controllers[(line.0 % self.controllers.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn private_home_is_requester() {
        let org = Organization::private(mesh8());
        assert_eq!(org.home_node(NodeId(13), LineAddr(0xabc)), NodeId(13));
        assert_eq!(org.num_clusters(), 64);
        assert_eq!(org.hnid_bits(), 0);
    }

    #[test]
    fn shared_home_is_chip_wide_interleaved() {
        let org = Organization::shared(mesh8());
        assert_eq!(org.hnid_bits(), 6);
        let l = LineAddr(0b101_110);
        assert_eq!(org.home_node(NodeId(0), l), NodeId(0b101110));
        // Every requester maps to the same home.
        assert_eq!(org.home_node(NodeId(63), l), NodeId(0b101110));
        assert_eq!(org.num_clusters(), 1);
    }

    #[test]
    fn loco_4x4_home_stays_in_requesters_cluster() {
        let org = Organization::loco(
            mesh8(),
            OrganizationKind::LocoCcVms,
            ClusterShape::new(4, 4),
        );
        assert_eq!(org.num_clusters(), 4);
        assert_eq!(org.hnid_bits(), 4);
        for req in mesh8().nodes() {
            for raw in [0u64, 5, 15, 255, 1000] {
                let home = org.home_node(req, LineAddr(raw));
                assert_eq!(
                    org.cluster_of(home),
                    org.cluster_of(req),
                    "home {home} outside requester {req}'s cluster"
                );
            }
        }
    }

    #[test]
    fn loco_hnid_selects_distinct_homes_within_cluster() {
        let org = Organization::loco(mesh8(), OrganizationKind::LocoCc, ClusterShape::new(4, 4));
        let homes: std::collections::HashSet<NodeId> = (0..16u64)
            .map(|h| org.home_node(NodeId(0), LineAddr(h)))
            .collect();
        assert_eq!(homes.len(), 16, "all 16 tiles of the cluster are homes");
    }

    #[test]
    fn vms_members_one_per_cluster_same_hnid() {
        let org = Organization::loco(
            mesh8(),
            OrganizationKind::LocoCcVms,
            ClusterShape::new(4, 4),
        );
        let line = LineAddr(11);
        let members = org.vms_members(line);
        assert_eq!(members.len(), 4);
        // All members have the same position within their cluster.
        let mesh = mesh8();
        let offsets: std::collections::HashSet<(u16, u16)> = members
            .iter()
            .map(|&m| {
                let c = mesh.coord(m);
                (c.x % 4, c.y % 4)
            })
            .collect();
        assert_eq!(offsets.len(), 1);
        assert_eq!(org.vms_id(line), 11);
    }

    #[test]
    fn cluster_shapes_4x1_and_8x1() {
        let org41 = Organization::loco(
            mesh8(),
            OrganizationKind::LocoCcVmsIvr,
            ClusterShape::new(4, 1),
        );
        assert_eq!(org41.num_clusters(), 16);
        assert_eq!(org41.hnid_bits(), 2);
        let org81 = Organization::loco(
            mesh8(),
            OrganizationKind::LocoCcVmsIvr,
            ClusterShape::new(8, 1),
        );
        assert_eq!(org81.num_clusters(), 8);
        assert_eq!(org81.hnid_bits(), 3);
    }

    #[test]
    fn cluster_nodes_partition_the_mesh() {
        let org = Organization::loco(
            Mesh::new(16, 16),
            OrganizationKind::LocoCcVms,
            ClusterShape::new(4, 4),
        );
        let mut seen = std::collections::HashSet::new();
        for c in 0..org.num_clusters() {
            for n in org.cluster_nodes(c) {
                assert_eq!(org.cluster_of(n), c);
                assert!(seen.insert(n));
            }
        }
        assert_eq!(seen.len(), 256);
    }

    #[test]
    fn organization_capability_flags() {
        let m = mesh8();
        assert!(Organization::private(m).uses_global_directory());
        assert!(!Organization::private(m).uses_vms());
        assert!(!Organization::shared(m).uses_global_directory());
        let cc = Organization::loco(m, OrganizationKind::LocoCc, ClusterShape::new(4, 4));
        assert!(cc.uses_global_directory() && !cc.uses_vms() && !cc.uses_ivr());
        let vms = Organization::loco(m, OrganizationKind::LocoCcVms, ClusterShape::new(4, 4));
        assert!(!vms.uses_global_directory() && vms.uses_vms() && !vms.uses_ivr());
        let ivr = Organization::loco(m, OrganizationKind::LocoCcVmsIvr, ClusterShape::new(4, 4));
        assert!(ivr.uses_vms() && ivr.uses_ivr());
    }

    #[test]
    #[should_panic(expected = "LOCO organization kind")]
    fn loco_constructor_rejects_baselines() {
        Organization::loco(mesh8(), OrganizationKind::Shared, ClusterShape::new(4, 4));
    }

    #[test]
    fn memory_map_places_four_edge_controllers() {
        let mm = MemoryMap::asplos(mesh8());
        assert_eq!(mm.controllers().len(), 4);
        let mesh = mesh8();
        for &c in mm.controllers() {
            let coord = mesh.coord(c);
            assert!(
                coord.x == 0 || coord.x == 7 || coord.y == 0 || coord.y == 7,
                "controller {c} not on an edge"
            );
        }
        // Interleaving covers all controllers.
        let used: std::collections::HashSet<NodeId> =
            (0..16u64).map(|l| mm.controller_for(LineAddr(l))).collect();
        assert_eq!(used.len(), 4);
    }
}
