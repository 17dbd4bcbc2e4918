//! # loco — Locality-Oblivious Cache Organization (ASPLOS 2014)
//!
//! A from-scratch Rust reproduction of *"Locality-Oblivious Cache
//! Organization leveraging Single-Cycle Multi-Hop NoCs"* (Kwon, Krishna,
//! Peh — ASPLOS 2014).
//!
//! LOCO is a co-design of the on-chip network and the cache-coherence
//! protocol: cores are grouped into clusters that share a distributed L2
//! (reachable in 1–2 SMART-hops, i.e. 2–4 cycles), global data search is a
//! broadcast over a *virtual mesh* (VMS) connecting the home nodes of all
//! clusters, and evicted lines migrate to other clusters instead of being
//! dropped (inter-cluster victim replacement, IVR).
//!
//! This crate is the front door of the workspace:
//!
//! * [`campaign`] — the plan/execute/assemble campaign engine: a
//!   [`campaign::Scenario`] names one simulation at some
//!   [`ExperimentParams`], and [`campaign::Scenario::system`] builds it;
//!   enumerate the scenarios a set of figures needs (read off the assembly
//!   code itself), execute them on all cores with [`campaign::Executor`],
//!   and assemble the figures from the [`campaign::ResultSet`] (the
//!   `reproduce` CLI of `loco-bench` is its command-line front end),
//! * [`ExperimentParams`] — the scale of a campaign (mesh, trace length,
//!   seed, cycle budget, working-set scaling),
//! * re-exports of the substrate crates (`loco-noc`, `loco-cache`,
//!   `loco-sim`, `loco-energy`, `loco-workloads`) — including
//!   [`EnergyParams`] / [`EnergyBreakdown`], the event-level energy model
//!   over the simulator's counters.
//!
//! ```rust
//! use loco::{Benchmark, ExperimentParams, OrganizationKind, Scenario};
//!
//! // A quick 16-core LOCO run of the `lu` benchmark model.
//! let params = ExperimentParams::quick();
//! let scenario = Scenario::default_trace(&params, Benchmark::Lu, OrganizationKind::LocoCcVmsIvr);
//! let results = scenario.system(&params).run(params.max_cycles);
//! assert!(results.completed);
//! assert!(results.runtime_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod json;
pub mod report;

pub use campaign::{CampaignPlan, Executor, FigureSpec, ResultSet, Scenario};
pub use experiments::ExperimentParams;
pub use report::{Figure, Series};

pub use loco_cache::{
    Address, CacheGeometry, CacheStats, ClusterShape, LineAddr, MoesiState, MsiState, Organization,
    OrganizationKind,
};
pub use loco_energy::{CacheEnergy, EnergyBreakdown, EnergyParams, NetworkEnergy};
pub use loco_noc::{
    FabricCounters, FxBuildHasher, FxHashMap, FxHashSet, Mesh, NetworkStats, NocConfig, NodeId,
    RouterKind, SplitMix64, VirtualMesh,
};
pub use loco_sim::{CmpSystem, SimResults, SystemConfig};
pub use loco_workloads::{
    Benchmark, BenchmarkSpec, CoreTrace, MultiProgramWorkload, SharingPattern, StressKind,
    TraceGenerator,
};
