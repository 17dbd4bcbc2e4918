//! # loco-cache — cache hierarchy and coherence substrate for LOCO
//!
//! This crate implements the memory-system side of the LOCO reproduction
//! (Kwon, Krishna, Peh — ASPLOS 2014):
//!
//! * set-associative [`array::CacheArray`]s with LRU replacement and
//!   IVR-ready last-access timestamps,
//! * MSI [`l1::L1Controller`]s and MOESI [`l2::L2Controller`]s (the *home
//!   node* controllers) exchanging [`msg::ProtocolMsg`]s,
//! * the five cache [`organization::Organization`]s evaluated by the paper —
//!   private, distributed shared, LOCO CC, LOCO CC+VMS and
//!   LOCO CC+VMS+IVR — and their address→home-node maps,
//! * the global [`directory::DirectoryController`] (private baseline and
//!   LOCO CC) and off-chip [`mem::MemoryController`]s,
//! * inter-cluster victim replacement (IVR, Section 3.3) inside the L2
//!   controller.
//!
//! The controllers are pure message-driven state machines: they never touch
//! a network directly. The `loco-sim` crate wires them to the `loco-noc`
//! fabric and drives the cycle loop.
//!
//! ```rust
//! use loco_cache::organization::{ClusterShape, Organization, OrganizationKind};
//! use loco_cache::address::LineAddr;
//! use loco_noc::{Mesh, NodeId};
//!
//! // The paper's 64-core CMP with 4x4 LOCO clusters.
//! let org = Organization::loco(
//!     Mesh::new(8, 8),
//!     OrganizationKind::LocoCcVmsIvr,
//!     ClusterShape::new(4, 4),
//! );
//! // The home node of a line is always inside the requester's cluster.
//! let home = org.home_node(NodeId(0), LineAddr(0x2a));
//! assert_eq!(org.cluster_of(home), org.cluster_of(NodeId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod array;
pub mod directory;
pub mod l1;
pub mod l2;
pub mod line;
pub mod mem;
pub mod msg;
pub mod organization;
pub mod stats;

pub use address::{Address, LineAddr, LINE_BYTES};
pub use array::{CacheArray, CacheGeometry, Entry, Eviction};
pub use directory::{DirectoryController, DIRECTORY_LATENCY};
pub use l1::{L1Access, L1Controller, L1Fill};
pub use l2::{L2Config, L2Controller, L2Meta};
pub use line::{MoesiState, MsiState, SharerSet};
pub use mem::{MemoryConfig, MemoryController};
pub use msg::{Agent, MsgKind, Outgoing, ProtocolMsg, ResponseSource, Unit};
pub use organization::{ClusterShape, MemoryMap, Organization, OrganizationKind};
pub use stats::CacheStats;
