//! # loco-noc — cycle-driven network-on-chip models for the LOCO reproduction
//!
//! This crate implements the on-chip-network substrate that the LOCO paper
//! (Kwon, Krishna, Peh — ASPLOS 2014) builds on:
//!
//! * a **conventional** mesh NoC with a 2-cycle-per-hop router/link pipeline,
//! * the **SMART** NoC (Single-cycle Multi-hop Asynchronous Repeated
//!   Traversal): routers broadcast SMART Setup Requests (SSRs) up to
//!   `HPCmax` hops, and flits traverse the pre-set multi-hop path in a single
//!   cycle, stopping prematurely when they lose SSR arbitration to a nearer
//!   flit,
//! * a **high-radix** (Flattened-Butterfly-like) mesh where each router has
//!   dedicated express links to every router within `HPCmax` hops per
//!   dimension, at the cost of a deeper (4-stage) router pipeline,
//! * **VMS multicast**: XY-tree broadcasts over a registered set of home
//!   nodes (a *Virtual Mesh with SMART*), the mechanism LOCO uses for global
//!   data search.
//!
//! The model is packet-granular: each [`NetMessage`] occupies an output link
//! for [`NocConfig::flits_for`]`(size_bytes)` cycles (serialization), and
//! head-latency is modelled cycle by cycle through router buffers, switch
//! allocation, SSR arbitration and link traversal. This mirrors GARNET's
//! behaviour closely enough to reproduce the latency/contention trends of
//! the paper while keeping the simulator tractable (see `DESIGN.md` §9).
//!
//! The three router kinds are one concrete [`router::Fabric`] over one
//! [`router::RouterCore`]. The core holds the buffers, the arbiters and the
//! link occupancy, and it runs the switch-allocation scan into one winner
//! list; the fabric adds injection and the `next_event` probe. Each router
//! kind adds only its policy: the reach of a route, whether downstream
//! back-pressure applies, and the traversal of the winners. Two traversals
//! serve the three kinds: the hop engine (private module `hop`) for the
//! conventional and high-radix routers, which differ only in constants set
//! when the fabric is built, and the SMART engine (private module `smart`).
//! A head's route depends only on (router, destination), so it is computed
//! once, when the packet is buffered (`DESIGN.md` §5).
//!
//! ## Quick example
//!
//! ```rust
//! use loco_noc::{Network, NocConfig, NetMessage, NodeId, VirtualNetwork};
//!
//! // An 8x8 SMART mesh with HPCmax = 4, as in the paper's 64-core CMP.
//! let cfg = NocConfig::smart_mesh(8, 8, 4);
//! let mut net: Network<()> = Network::new(cfg);
//! net.inject(NetMessage::unicast(NodeId(0), NodeId(63), VirtualNetwork::Request, 8, ()))
//!     .unwrap();
//! // Run until the message pops out at the far corner.
//! let delivered = loop {
//!     net.tick();
//!     let out = net.eject(NodeId(63));
//!     if !out.is_empty() {
//!         break out;
//!     }
//! };
//! // 14 hops with HPCmax=4 is 4 SMART-hops = 8 cycles in the best case
//! // (plus injection/ejection overhead at the endpoints).
//! assert!(delivered[0].latency <= 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
#[cfg(test)]
mod conventional;
pub mod fx;
#[cfg(test)]
mod highradix;
mod hop;
pub mod message;
pub mod network;
pub mod rng;
pub mod router;
mod smart;
pub mod stats;
pub mod topology;
pub mod vms;
pub mod wheel;

pub use config::{NocConfig, RouterKind};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use message::{Delivered, Destination, MulticastGroupId, NetMessage, VirtualNetwork};
pub use network::{InjectError, Network};
pub use rng::SplitMix64;
pub use stats::{FabricCounters, NetworkStats};
pub use topology::{Coord, Direction, Mesh, NodeId};
pub use vms::VirtualMesh;
pub use wheel::TimingWheel;
