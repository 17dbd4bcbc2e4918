//! The target-system configuration of Table 1 and its builders.

use loco_cache::{
    CacheGeometry, ClusterShape, DirectoryConfig, L2Config, MemoryConfig, MemoryMap, Organization,
    OrganizationKind,
};
use loco_noc::{Mesh, NocConfig, RouterKind};

/// Complete configuration of a simulated CMP.
///
/// The `asplos_64` constructor reproduces Table 1 of the paper: 2-way
/// in-order cores, 16 KB 4-way L1s (1 cycle), 64 KB 8-way inclusive L2
/// slices (4 cycles), MSI/MOESI coherence, an 8x8 mesh (set `mesh_width` /
/// `mesh_height` for the 16x16 CMP) with 5 VNs x 4 VCs and 16-byte links,
/// `HPCmax` = 4, a 10-cycle directory and four 200-cycle memory controllers
/// on the chip edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Mesh width in tiles.
    pub mesh_width: u16,
    /// Mesh height in tiles.
    pub mesh_height: u16,
    /// Cache organization under test.
    pub organization: OrganizationKind,
    /// LOCO cluster shape (ignored for the private/shared baselines).
    pub cluster: ClusterShape,
    /// Router micro-architecture of the NoC.
    pub router: RouterKind,
    /// Maximum hops per cycle (SMART) / express-link span (high-radix).
    pub hpc_max: u16,
    /// L1 geometry.
    pub l1: CacheGeometry,
    /// L2 slice configuration.
    pub l2: L2Config,
    /// Global directory configuration.
    pub dir: DirectoryConfig,
    /// Memory-controller configuration.
    pub mem: MemoryConfig,
    /// Model barrier synchronization (full-system replay mode).
    pub full_system: bool,
}

impl SystemConfig {
    /// The paper's 64-core CMP (8x8 mesh, SMART NoC, 4x4 clusters).
    pub fn asplos_64(organization: OrganizationKind) -> Self {
        SystemConfig {
            mesh_width: 8,
            mesh_height: 8,
            organization,
            cluster: ClusterShape::new(4, 4),
            router: RouterKind::Smart,
            hpc_max: 4,
            l1: CacheGeometry::asplos_l1(),
            l2: L2Config::default(),
            dir: DirectoryConfig::default(),
            mem: MemoryConfig::default(),
            full_system: false,
        }
    }

    /// Replaces the router micro-architecture (Figures 12 and 13 compare
    /// SMART against conventional and high-radix NoCs).
    pub fn with_router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// Replaces the LOCO cluster shape (Figure 14 compares 4x1, 8x1, 4x4).
    pub fn with_cluster(mut self, cluster: ClusterShape) -> Self {
        self.cluster = cluster;
        self
    }

    /// Enables the synchronization-aware full-system replay mode
    /// (Figure 16).
    pub fn with_full_system(mut self, enabled: bool) -> Self {
        self.full_system = enabled;
        self
    }

    /// Number of cores / tiles.
    pub fn num_cores(&self) -> usize {
        self.mesh_width as usize * self.mesh_height as usize
    }

    /// The mesh.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.mesh_width, self.mesh_height)
    }

    /// The cache organization object for this configuration.
    pub fn organization(&self) -> Organization {
        match self.organization {
            OrganizationKind::Private => Organization::private(self.mesh()),
            OrganizationKind::Shared => Organization::shared(self.mesh()),
            kind => Organization::loco(self.mesh(), kind, self.cluster),
        }
    }

    /// The memory-controller placement.
    pub fn memory_map(&self) -> MemoryMap {
        MemoryMap::asplos(self.mesh())
    }

    /// The NoC configuration.
    pub fn noc_config(&self) -> NocConfig {
        match self.router {
            RouterKind::Smart => {
                NocConfig::smart_mesh(self.mesh_width, self.mesh_height, self.hpc_max)
            }
            RouterKind::Conventional => {
                NocConfig::conventional_mesh(self.mesh_width, self.mesh_height)
            }
            RouterKind::HighRadix => {
                NocConfig::highradix_mesh(self.mesh_width, self.mesh_height, self.hpc_max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_64_core_configuration() {
        let c = SystemConfig::asplos_64(OrganizationKind::LocoCcVms);
        assert_eq!(c.num_cores(), 64);
        assert_eq!(c.l1.size_bytes, 16 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.latency, 1);
        assert_eq!(c.l2.geometry.size_bytes, 64 * 1024);
        assert_eq!(c.l2.geometry.ways, 8);
        assert_eq!(c.l2.geometry.latency, 4);
        assert_eq!(c.l1.line_bytes, 32);
        assert_eq!(c.dir.latency, 10);
        assert_eq!(c.mem.latency, 200);
        assert_eq!(c.hpc_max, 4);
        assert_eq!(c.memory_map().controllers().len(), 4);
        let noc = c.noc_config();
        assert_eq!(loco_noc::VirtualNetwork::ALL.len(), 5);
        assert_eq!(noc.vcs_per_vn, 4);
        assert_eq!(noc.link_bytes, 16);
    }

    #[test]
    fn builders_adjust_router_and_cluster() {
        let c = SystemConfig::asplos_64(OrganizationKind::LocoCcVmsIvr)
            .with_router(RouterKind::HighRadix)
            .with_cluster(ClusterShape::new(8, 1))
            .with_full_system(true);
        assert_eq!(c.router, RouterKind::HighRadix);
        assert_eq!(c.cluster, ClusterShape::new(8, 1));
        assert!(c.full_system);
        assert_eq!(c.organization().num_clusters(), 8);
    }

    #[test]
    fn organization_construction_respects_kind() {
        assert_eq!(
            SystemConfig::asplos_64(OrganizationKind::Private)
                .organization()
                .num_clusters(),
            64
        );
        assert_eq!(
            SystemConfig::asplos_64(OrganizationKind::Shared)
                .organization()
                .num_clusters(),
            1
        );
        assert_eq!(
            SystemConfig::asplos_64(OrganizationKind::LocoCc)
                .organization()
                .num_clusters(),
            4
        );
    }
}
