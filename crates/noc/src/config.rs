//! Network configuration: router kind, mesh dimensions and the timing /
//! buffering parameters from Table 1 of the paper.

use crate::topology::Mesh;

/// Link width in bytes (Table 1: 16-byte links).
pub const LINK_BYTES: u32 = 16;

/// Buffer capacity, in packets, of one input port for one virtual network:
/// Table 1's 4 VCs per VN, each 4 packets deep.
pub const LANE_PACKETS: usize = 16;

/// Which router micro-architecture the network uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterKind {
    /// State-of-the-art conventional router: 1 cycle in the router plus
    /// 1 cycle on the link, i.e. 2 cycles per hop in the best case.
    Conventional,
    /// SMART router: SSR setup followed by a single-cycle multi-hop traversal
    /// of up to `hpc_max` hops (2 cycles per SMART-hop in the best case).
    Smart,
    /// High-radix / Flattened-Butterfly-like router: dedicated express links
    /// to every router within `hpc_max` hops per dimension, but a 4-stage
    /// router pipeline at every stop and no bypassing.
    HighRadix,
}

impl RouterKind {
    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            RouterKind::Conventional => "Conventional NoC",
            RouterKind::Smart => "SMART NoC",
            RouterKind::HighRadix => "High-Radix Routers",
        }
    }
}

/// Full configuration of a [`crate::Network`].
///
/// The `smart_mesh` / `conventional_mesh` / `highradix_mesh` constructors
/// pick the router; the rest of Table 1 (5 virtual networks, [`LANE_PACKETS`]
/// of buffering per VN, [`LINK_BYTES`]-byte links) is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh dimensions.
    pub mesh: Mesh,
    /// Router micro-architecture.
    pub router: RouterKind,
    /// Maximum hops per cycle for SMART / express-link reach for high-radix.
    pub hpc_max: u16,
}

impl NocConfig {
    /// SMART mesh with the paper's Table-1 parameters.
    pub fn smart_mesh(width: u16, height: u16, hpc_max: u16) -> Self {
        NocConfig {
            mesh: Mesh::new(width, height),
            router: RouterKind::Smart,
            hpc_max,
        }
    }

    /// Conventional mesh (2 cycles per hop) with Table-1 parameters.
    pub fn conventional_mesh(width: u16, height: u16) -> Self {
        NocConfig {
            router: RouterKind::Conventional,
            ..Self::smart_mesh(width, height, 1)
        }
    }

    /// High-radix (Flattened-Butterfly-like) mesh: express links spanning up
    /// to `hpc_max` hops, 4-stage router pipeline.
    pub fn highradix_mesh(width: u16, height: u16, hpc_max: u16) -> Self {
        NocConfig {
            router: RouterKind::HighRadix,
            ..Self::smart_mesh(width, height, hpc_max)
        }
    }

    /// Router pipeline depth in cycles for packets that stop at a router:
    /// 4 for high-radix routers (multi-stage arbiters and crossbars), 1 for
    /// conventional and SMART routers.
    pub fn router_pipeline(&self) -> u8 {
        match self.router {
            RouterKind::HighRadix => 4,
            RouterKind::Conventional | RouterKind::Smart => 1,
        }
    }

    /// Number of flits a message of `bytes` bytes occupies on this network's
    /// links (at least one).
    pub fn flits_for(&self, bytes: u32) -> u32 {
        bytes.div_ceil(LINK_BYTES).max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.hpc_max == 0 {
            return Err("hpc_max must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::VirtualNetwork;

    #[test]
    fn table1_defaults() {
        let c = NocConfig::smart_mesh(8, 8, 4);
        assert_eq!(VirtualNetwork::ALL.len(), 5);
        assert_eq!(LANE_PACKETS, 4 * 4); // 4 VCs per VN, 4 packets deep
        assert_eq!(LINK_BYTES, 16);
        assert_eq!(c.hpc_max, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn flit_sizing() {
        let c = NocConfig::smart_mesh(4, 4, 4);
        assert_eq!(c.flits_for(8), 1); // control message
        assert_eq!(c.flits_for(16), 1);
        assert_eq!(c.flits_for(40), 3); // 32B line + 8B header
        assert_eq!(c.flits_for(0), 1);
    }

    #[test]
    fn highradix_has_deep_pipeline() {
        let c = NocConfig::highradix_mesh(8, 8, 4);
        assert_eq!(c.router_pipeline(), 4);
        assert_eq!(c.router, RouterKind::HighRadix);
    }

    #[test]
    fn validation_rejects_zero_hpc() {
        let mut c = NocConfig::smart_mesh(4, 4, 4);
        c.hpc_max = 0;
        assert!(c.validate().is_err());
    }
}
