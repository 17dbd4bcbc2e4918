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
//! * [`SimulationBuilder`] — run one workload on one configuration,
//! * [`campaign`] — the plan/execute/assemble campaign engine: enumerate
//!   the [`campaign::Scenario`]s a set of figures needs, execute them on
//!   all cores with [`campaign::Executor`], and assemble the figures from
//!   the [`campaign::ResultSet`] (the `reproduce` CLI of `loco-bench` is
//!   its command-line front end),
//! * [`ExperimentParams`] — the scale of a campaign (mesh, trace length,
//!   seed, cycle budget, working-set scaling),
//! * re-exports of the substrate crates (`loco-noc`, `loco-cache`,
//!   `loco-sim`, `loco-energy`, `loco-workloads`) — including
//!   [`EnergyParams`] / [`EnergyBreakdown`], the event-level energy model
//!   over the simulator's counters.
//!
//! ```rust
//! use loco::SimulationBuilder;
//! use loco::OrganizationKind;
//! use loco::Benchmark;
//!
//! // A quick 16-core LOCO run of the `lu` benchmark model.
//! let results = SimulationBuilder::new()
//!     .mesh(4, 4)
//!     .cluster(2, 2)
//!     .organization(OrganizationKind::LocoCcVmsIvr)
//!     .benchmark(Benchmark::Lu)
//!     .memory_ops_per_core(200)
//!     .run();
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
    Address, CacheGeometry, CacheStats, ClusterShape, LineAddr, MoesiState, MsiState,
    Organization, OrganizationKind,
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

/// A fluent facade for configuring and running one simulation.
///
/// Defaults correspond to the paper's 64-core CMP running full LOCO
/// (CC+VMS+IVR) on a SMART NoC with 4x4 clusters.
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    mesh_width: u16,
    mesh_height: u16,
    cluster: ClusterShape,
    organization: OrganizationKind,
    router: RouterKind,
    benchmark: Benchmark,
    mem_ops_per_core: u64,
    seed: u64,
    full_system: bool,
    max_cycles: u64,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// Starts from the paper's 64-core LOCO configuration.
    pub fn new() -> Self {
        SimulationBuilder {
            mesh_width: 8,
            mesh_height: 8,
            cluster: ClusterShape::new(4, 4),
            organization: OrganizationKind::LocoCcVmsIvr,
            router: RouterKind::Smart,
            benchmark: Benchmark::Lu,
            mem_ops_per_core: 2_000,
            seed: 42,
            full_system: false,
            max_cycles: 50_000_000,
        }
    }

    /// Sets the mesh dimensions (e.g. `mesh(8, 8)` for 64 cores).
    pub fn mesh(mut self, width: u16, height: u16) -> Self {
        self.mesh_width = width;
        self.mesh_height = height;
        self
    }

    /// Sets the LOCO cluster shape.
    pub fn cluster(mut self, w: u16, h: u16) -> Self {
        self.cluster = ClusterShape::new(w, h);
        self
    }

    /// Sets the cache organization.
    pub fn organization(mut self, org: OrganizationKind) -> Self {
        self.organization = org;
        self
    }

    /// Sets the NoC router micro-architecture.
    pub fn router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// Sets the benchmark model to replay.
    pub fn benchmark(mut self, benchmark: Benchmark) -> Self {
        self.benchmark = benchmark;
        self
    }

    /// Sets the number of memory operations generated per core.
    pub fn memory_ops_per_core(mut self, ops: u64) -> Self {
        self.mem_ops_per_core = ops;
        self
    }

    /// Sets the trace-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the synchronization-aware full-system replay mode.
    pub fn full_system(mut self, enabled: bool) -> Self {
        self.full_system = enabled;
        self
    }

    /// Sets the simulation cycle budget.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// The [`SystemConfig`] this builder describes.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::asplos_64(self.organization)
            .with_router(self.router)
            .with_cluster(self.cluster)
            .with_full_system(self.full_system);
        cfg.mesh_width = self.mesh_width;
        cfg.mesh_height = self.mesh_height;
        cfg
    }

    /// Builds the system (without running it), e.g. to step it manually.
    pub fn build(&self) -> CmpSystem {
        let cfg = self.system_config();
        let spec = self.benchmark.spec();
        let traces = TraceGenerator::new(self.seed)
            .with_barriers(self.full_system)
            .generate(&spec, cfg.num_cores(), self.mem_ops_per_core);
        CmpSystem::new(cfg, traces)
    }

    /// Builds and runs the simulation to completion.
    pub fn run(&self) -> SimResults {
        self.build().run(self.max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_paper() {
        let b = SimulationBuilder::new();
        let cfg = b.system_config();
        assert_eq!(cfg.num_cores(), 64);
        assert_eq!(cfg.organization, OrganizationKind::LocoCcVmsIvr);
        assert_eq!(cfg.router, RouterKind::Smart);
        assert_eq!(cfg.cluster, ClusterShape::new(4, 4));
    }

    #[test]
    fn builder_runs_a_small_simulation() {
        let r = SimulationBuilder::new()
            .mesh(4, 4)
            .cluster(2, 2)
            .benchmark(Benchmark::Blackscholes)
            .memory_ops_per_core(100)
            .run();
        assert!(r.completed);
        assert!(r.instructions > 0);
    }

    #[test]
    fn builder_step_by_step_matches_run() {
        let builder = SimulationBuilder::new()
            .mesh(4, 4)
            .cluster(2, 2)
            .memory_ops_per_core(50)
            .seed(7);
        let full = builder.run();
        let mut sys = builder.build();
        while !sys.all_finished() {
            sys.step();
        }
        assert_eq!(sys.results().runtime_cycles, full.runtime_cycles);
    }
}
