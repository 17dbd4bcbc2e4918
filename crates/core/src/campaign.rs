//! The campaign engine: **plan → execute → assemble**.
//!
//! The paper's evaluation is one large sweep of independent simulations
//! (5 cache organizations × 3 NoCs × benchmarks × cluster shapes across
//! Figures 6–16). This module runs it in three decoupled phases:
//!
//! 1. **Plan** — every figure is described by a [`FigureSpec`] whose
//!    [`FigureSpec::enumerate`] pass is *pure*: it returns the [`Scenario`]s
//!    the figure needs, without running anything. Scenarios from several
//!    figures are deduplicated into one [`CampaignPlan`] (composing fig06
//!    and fig11 over the same matrix enumerates each shared scenario once).
//! 2. **Execute** — an [`Executor`] shards the plan across
//!    `std::thread::scope` workers pulling jobs from an atomic index. Each
//!    worker constructs its own `TraceGenerator` and `CmpSystem` (every
//!    scenario is an independent, fully deterministic simulation), and the
//!    results are merged into a [`ResultSet`] — a `Scenario`-keyed map of
//!    `Arc<SimResults>` — **in plan order**, so the result set is identical
//!    whatever the worker count or completion order.
//! 3. **Assemble** — [`FigureSpec::assemble`] is pure again: it reads a
//!    completed [`ResultSet`] and builds the [`Figure`]s. Figures assembled
//!    from an 8-thread execution are byte-identical to a 1-thread one
//!    (locked in by `tests/campaign.rs` and the `scripts/verify.sh` smoke).
//!
//! A scenario that exhausts its cycle budget is not a valid data point:
//! [`ResultSet::incomplete`] names every such run, and `reproduce` refuses
//! to emit figures while any exist.
//!
//! # `Send` invariant
//!
//! The executor relies on [`CmpSystem`], `TraceGenerator` and
//! [`SimResults`] being [`Send`] — they are plain owned data (no `Rc`, no
//! `RefCell`, no raw pointers anywhere in the workspace), and the
//! `assert_send` checks below turn any future regression into a compile
//! error. Anyone adding interior mutability or shared handles to the
//! simulator must keep these types `Send` (or consciously remove the
//! parallel executor).

use crate::experiments::ExperimentParams;
use crate::report::{Figure, Series};
use loco_cache::{ClusterShape, OrganizationKind};
use loco_energy::{EnergyBreakdown, EnergyParams};
use loco_noc::{FxHashMap, FxHashSet, RouterKind};
use loco_sim::{CmpSystem, SimResults};
use loco_workloads::{Benchmark, MultiProgramWorkload, StressKind, TraceGenerator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// Compile-time lock-in of the `Send` bounds the executor needs (see the
// module docs). These calls are never executed; they fail to *compile* if a
// bound regresses.
fn assert_send<T: Send>() {}
#[allow(dead_code)]
fn send_invariants() {
    assert_send::<CmpSystem>();
    assert_send::<SimResults>();
    assert_send::<TraceGenerator>();
    assert_send::<Scenario>();
    assert_send::<ResultSet>();
}

/// One fully-specified simulation configuration — the unit of work of a
/// campaign and the key of a [`ResultSet`].
///
/// This is the public promotion of the old private `RunKey`: everything that
/// distinguishes one run from another at fixed [`ExperimentParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// A single-benchmark trace-driven (or full-system) run.
    Trace {
        /// The benchmark model to replay.
        benchmark: Benchmark,
        /// The cache organization.
        org: OrganizationKind,
        /// The NoC router micro-architecture.
        router: RouterKind,
        /// The LOCO cluster shape.
        cluster: ClusterShape,
        /// Whether the synchronization-aware full-system mode is on.
        full_system: bool,
    },
    /// A Table-2 multi-program consolidation workload (Figure 15). The
    /// cluster shape follows the paper (it matches the per-task thread
    /// count) and is derived from the workload, not stored here.
    MultiProgram {
        /// Index into Table 2 (0–9, `MultiProgramWorkload::table2_entry`).
        workload: usize,
        /// The cache organization.
        org: OrganizationKind,
    },
    /// A stall-heavy stress run (Figure 19): a small 4x4 mesh under full
    /// LOCO (CC+VMS), either barrier-phased (full-system replay, a barrier
    /// every few memory ops) or DRAM-bound (huge working set, the DRAM
    /// latency stretched to 800 cycles). These are ROADMAP's named blind
    /// spot — workloads whose run time is dominated by globally-quiet
    /// phases with stragglers still in the NoC, where the event-driven
    /// scheduler's fine-grained horizon pays off. The mesh and memory
    /// timing are fixed by the scenario (not by [`ExperimentParams`]) so
    /// the stress stays stall-shaped at every campaign scale.
    StallStress {
        /// Barrier-phased or DRAM-bound.
        kind: StressKind,
        /// The NoC router micro-architecture.
        router: RouterKind,
    },
}

impl Scenario {
    /// The figures' most common shape: SMART NoC, the campaign's default
    /// cluster, trace-driven.
    pub fn default_trace(
        params: &ExperimentParams,
        benchmark: Benchmark,
        org: OrganizationKind,
    ) -> Self {
        Scenario::Trace {
            benchmark,
            org,
            router: RouterKind::Smart,
            cluster: params.cluster,
            full_system: false,
        }
    }

    /// A short human-readable label (diagnostics, panic messages).
    pub fn label(&self) -> String {
        match self {
            Scenario::Trace {
                benchmark,
                org,
                router,
                cluster,
                full_system,
            } => format!(
                "{}/{}/{}/{}x{}{}",
                benchmark.name(),
                org.label(),
                router.label(),
                cluster.w,
                cluster.h,
                if *full_system { "/full-system" } else { "" }
            ),
            Scenario::MultiProgram { workload, org } => {
                format!("W{}/{}", workload, org.label())
            }
            Scenario::StallStress { kind, router } => {
                format!("stress-{}/{}", kind.name(), router.label())
            }
        }
    }
}

/// Runs one [`Scenario`] from scratch: generates the traces, builds the
/// system and simulates. Pure with respect to its inputs — the same
/// `(params, scenario)` pair always produces bit-identical [`SimResults`]
/// (the foundation of the thread-count invariance guarantee).
pub fn run_scenario(params: &ExperimentParams, scenario: Scenario) -> SimResults {
    match scenario {
        Scenario::Trace {
            benchmark,
            org,
            router,
            cluster,
            full_system,
        } => {
            let spec = params.scaled_spec(benchmark);
            let traces = TraceGenerator::new(params.seed)
                .with_barriers(full_system)
                .generate(&spec, params.num_cores(), params.mem_ops_per_core);
            let cfg = params.system(org, router, cluster, full_system);
            let mut sys = CmpSystem::new(cfg, traces);
            sys.run(params.max_cycles)
        }
        Scenario::MultiProgram { workload, org } => {
            run_multiprogram_workload(params, &MultiProgramWorkload::table2_entry(workload), org)
        }
        Scenario::StallStress { kind, router } => run_stall_stress(params, kind, router),
    }
}

/// Builds (without running) the system of one stall-heavy stress scenario:
/// a fixed 16-core (4x4) mesh with 2x2 LOCO clusters under CC+VMS, working
/// set and caches scaled together exactly as trace scenarios are.
/// DRAM-bound runs stretch the memory latency to 800 cycles (min gap 8) so
/// nearly the whole run is exposed off-chip stall; barrier-phased runs
/// enable the full-system replay mode. Exposed so the benchmark and the
/// equivalence suite can drive the exact campaign configuration manually
/// (e.g. to read the scheduler's skip diagnostics or to time `run` against
/// `run_naive`).
pub fn stall_stress_system(
    params: &ExperimentParams,
    kind: StressKind,
    router: RouterKind,
) -> CmpSystem {
    let spec = kind.spec().scaled_down(params.working_set_scale.max(1));
    let full_system = kind.full_system();
    let fixed_mesh = ExperimentParams {
        mesh_width: 4,
        mesh_height: 4,
        ..*params
    };
    let mut cfg = fixed_mesh.system(
        OrganizationKind::LocoCcVms,
        router,
        ClusterShape::new(2, 2),
        full_system,
    );
    if kind == StressKind::DramBound {
        cfg.mem.latency = 800;
        cfg.mem.min_gap = 8;
    }
    let traces = TraceGenerator::new(params.seed)
        .with_barriers(full_system)
        .generate(&spec, cfg.num_cores(), params.mem_ops_per_core);
    CmpSystem::new(cfg, traces)
}

/// Runs one stall-heavy stress scenario (see [`stall_stress_system`]).
pub fn run_stall_stress(params: &ExperimentParams, kind: StressKind, router: RouterKind) -> SimResults {
    stall_stress_system(params, kind, router).run(params.max_cycles)
}

/// Runs one multi-program workload under one organization. The cluster size
/// follows the paper: it matches the per-task thread count (4x1, 8x1 or
/// 4x4); below 64 cores (the `quick()` mesh) the campaign's default cluster
/// is used and the workload is truncated to fit.
fn run_multiprogram_workload(
    params: &ExperimentParams,
    workload: &MultiProgramWorkload,
    org: OrganizationKind,
) -> SimResults {
    let threads = workload.threads_per_task();
    let cluster = if params.num_cores() < 64 {
        params.cluster
    } else {
        match threads {
            4 => ClusterShape::new(4, 1),
            8 => ClusterShape::new(8, 1),
            _ => ClusterShape::new(4, 4),
        }
    };
    let mut traces = workload.generate_traces_scaled(
        params.mem_ops_per_core,
        params.seed,
        params.working_set_scale.max(1),
    );
    let mut groups: Vec<usize> = Vec::new();
    for a in workload.assign_cores() {
        for _ in &a.cores {
            groups.push(a.task_id);
        }
    }
    // The quick() configuration has fewer cores than the 64-core workload
    // definition: truncate to fit.
    if params.num_cores() < traces.len() {
        traces.truncate(params.num_cores());
        groups.truncate(params.num_cores());
    }
    let cfg = params.system(org, RouterKind::Smart, cluster, false);
    let mut sys = CmpSystem::with_groups(cfg, traces, groups);
    sys.run(params.max_cycles)
}

/// A deduplicated, ordered set of [`Scenario`]s — the output of the plan
/// phase and the input of the execute phase.
///
/// Scenarios keep their first-seen order, so a plan composed from the same
/// figures in the same order is always identical (and so is everything
/// derived from it downstream).
#[derive(Debug, Default, Clone)]
pub struct CampaignPlan {
    scenarios: Vec<Scenario>,
    seen: FxHashSet<Scenario>,
}

impl CampaignPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one scenario; returns `true` if it was not already planned.
    pub fn add(&mut self, scenario: Scenario) -> bool {
        if self.seen.insert(scenario) {
            self.scenarios.push(scenario);
            true
        } else {
            false
        }
    }

    /// Adds every scenario of an iterator (duplicates are dropped).
    pub fn extend(&mut self, scenarios: impl IntoIterator<Item = Scenario>) {
        for s in scenarios {
            self.add(s);
        }
    }

    /// Adds everything a figure needs.
    pub fn add_figure(&mut self, spec: &FigureSpec, params: &ExperimentParams) {
        self.extend(spec.enumerate(params));
    }

    /// The planned scenarios, in first-seen order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of distinct scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// Completed simulation results, keyed by [`Scenario`] and kept in
/// insertion order (plan order, for an [`Executor`] result).
///
/// Results are shared via [`Arc`], so a figure reading the same baseline
/// run eight times never deep-clones a `SimResults`.
#[derive(Debug, Default, Clone)]
pub struct ResultSet {
    entries: Vec<(Scenario, Arc<SimResults>)>,
    index: FxHashMap<Scenario, usize>,
}

impl ResultSet {
    /// An empty result set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces, keeping its position) one result.
    pub fn insert(&mut self, scenario: Scenario, result: Arc<SimResults>) {
        match self.index.get(&scenario) {
            Some(&i) => self.entries[i].1 = result,
            None => {
                self.index.insert(scenario, self.entries.len());
                self.entries.push((scenario, result));
            }
        }
    }

    /// The result of one scenario, if present.
    pub fn get(&self, scenario: &Scenario) -> Option<&SimResults> {
        self.index.get(scenario).map(|&i| self.entries[i].1.as_ref())
    }

    /// The result of one scenario.
    ///
    /// # Panics
    ///
    /// Panics (with the scenario's label) if the scenario was never
    /// executed — i.e. the plan the caller executed did not cover the
    /// figure being assembled.
    pub fn expect(&self, scenario: &Scenario) -> &SimResults {
        self.get(scenario)
            .unwrap_or_else(|| panic!("no result for scenario {} — was it planned?", scenario.label()))
    }

    /// Number of completed scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no results are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(scenario, result)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Scenario, &Arc<SimResults>)> {
        self.entries.iter().map(|(s, r)| (s, r))
    }

    /// The scenarios whose simulation hit its `max_cycles` budget before
    /// every core finished, in insertion order. Their results are
    /// truncated and must not be plotted.
    pub fn incomplete(&self) -> Vec<Scenario> {
        self.iter()
            .filter(|(_, r)| !r.completed)
            .map(|(s, _)| *s)
            .collect()
    }
}

/// Executes a [`CampaignPlan`] across a pool of worker threads.
///
/// Workers pull scenario indices from a shared atomic counter, run each
/// scenario in a private, freshly-built `CmpSystem`, and deposit the result
/// into that scenario's slot. The final [`ResultSet`] is assembled from the
/// slots in plan order, so the outcome is bit-identical for any worker
/// count (`tests/campaign.rs` locks this in).
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

/// Largest explicit worker count [`Executor::try_new`] accepts. Worker
/// threads beyond the scenario count never run anything, and a parse-able
/// but senseless `--threads` value (say, millions) would otherwise silently
/// degrade into thousands of idle OS threads; front-ends should reject it
/// loudly instead (the `reproduce` CLI does).
pub const MAX_EXPLICIT_THREADS: usize = 1024;

impl Executor {
    /// An executor with an explicit worker count (`0` means "all cores",
    /// i.e. `std::thread::available_parallelism`).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Executor { threads }
    }

    /// Like [`Executor::new`], but rejects worker counts that parse yet make
    /// no sense (anything above [`MAX_EXPLICIT_THREADS`]) instead of
    /// silently spawning that many OS threads. `0` still means "all cores".
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending value and the
    /// accepted range.
    pub fn try_new(threads: usize) -> Result<Self, String> {
        if threads > MAX_EXPLICIT_THREADS {
            return Err(format!(
                "{threads} worker threads makes no sense (accepted: 0 for all \
                 cores, or 1..={MAX_EXPLICIT_THREADS})"
            ));
        }
        Ok(Self::new(threads))
    }

    /// An executor using every available core.
    pub fn all_cores() -> Self {
        Self::new(0)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every scenario of the plan and returns the completed results.
    pub fn execute(&self, params: &ExperimentParams, plan: &CampaignPlan) -> ResultSet {
        let scenarios = plan.scenarios();
        let n = scenarios.len();
        let workers = self.threads.min(n).max(1);
        let mut slots: Vec<Option<Arc<SimResults>>> = Vec::with_capacity(n);
        if workers <= 1 {
            // Inline fast path: no thread or lock overhead for sequential
            // execution.
            slots.extend(
                scenarios
                    .iter()
                    .map(|&s| Some(Arc::new(run_scenario(params, s)))),
            );
        } else {
            let locked: Vec<Mutex<Option<Arc<SimResults>>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = Arc::new(run_scenario(params, scenarios[i]));
                        *locked[i].lock().expect("slot lock") = Some(result);
                    });
                }
            });
            slots.extend(
                locked
                    .into_iter()
                    .map(|m| m.into_inner().expect("slot lock")),
            );
        }
        let mut results = ResultSet::new();
        for (i, &scenario) in scenarios.iter().enumerate() {
            let r = slots[i].take().expect("every planned scenario was executed");
            results.insert(scenario, r);
        }
        results
    }
}

/// A declarative description of one figure of the paper: which scenarios it
/// needs ([`FigureSpec::enumerate`]) and how the figure is built from their
/// results ([`FigureSpec::assemble`]). Both passes are pure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FigureSpec {
    /// Figure 6: private-cache runtime normalized to the shared cache.
    Fig06 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 7: L2 hit-latency increase over the private baseline.
    Fig07 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 8: L2 MPKI, shared cache vs LOCO.
    Fig08 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 9: on-chip search delay, directory indirection vs VMS.
    Fig09 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 10: normalized off-chip accesses, with and without IVR.
    Fig10 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 11: runtime of each LOCO feature vs the shared cache.
    Fig11 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figures 12a+12b: L2 hit latency and search delay under the three
    /// NoCs (assembles two figures).
    Fig12 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 13: LOCO runtime under the three NoCs.
    Fig13 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 14: the cluster-shape sweep (assembles four sub-figures).
    Fig14 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
        /// The cluster shapes to sweep.
        shapes: Vec<ClusterShape>,
    },
    /// Figures 15a+15b: the Table-2 multi-program workloads (assembles two
    /// figures).
    Fig15 {
        /// Table-2 workload indices (0–9).
        workloads: Vec<usize>,
    },
    /// Figures 16a+16b: full-system MPKI and runtime (assembles two
    /// figures).
    Fig16 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figures 17a+17b: event-level energy of each cache organization
    /// (17a: energy per instruction by organization across the benchmarks;
    /// 17b: the network/cache/DRAM component breakdown per organization,
    /// averaged over the benchmarks). Uses [`EnergyParams::default`] — the
    /// paper-calibrated per-event costs.
    Fig17Energy {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 18: the energy-delay product of full LOCO by cluster shape,
    /// normalized to the shared-cache baseline (pairing Figure 14's
    /// performance sweep with an energy-efficiency axis).
    Fig18Edp {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
        /// The cluster shapes to sweep.
        shapes: Vec<ClusterShape>,
    },
    /// Figure 19 (reproduction extra): runtime of the stall-heavy stress
    /// workloads ([`Scenario::StallStress`]: barrier-phased, DRAM-bound)
    /// under the three NoCs, normalized per workload to the SMART NoC.
    /// These scenarios open ROADMAP's named blind spot — small meshes with
    /// long global stalls — and double as the campaign-level exercise of
    /// the event-driven scheduler's fine-grained skip horizon.
    Fig19Stall,
}

/// The three router kinds of the NoC-comparison figures, in paper order.
const NOC_SWEEP: [RouterKind; 3] = [RouterKind::Smart, RouterKind::Conventional, RouterKind::HighRadix];

/// The organizations of the energy-breakdown figure, in paper order.
const ENERGY_ORGS: [OrganizationKind; 5] = [
    OrganizationKind::Private,
    OrganizationKind::Shared,
    OrganizationKind::LocoCc,
    OrganizationKind::LocoCcVms,
    OrganizationKind::LocoCcVmsIvr,
];

impl FigureSpec {
    /// The figure's identifier ("fig06" … "fig18").
    pub fn id(&self) -> &'static str {
        match self {
            FigureSpec::Fig06 { .. } => "fig06",
            FigureSpec::Fig07 { .. } => "fig07",
            FigureSpec::Fig08 { .. } => "fig08",
            FigureSpec::Fig09 { .. } => "fig09",
            FigureSpec::Fig10 { .. } => "fig10",
            FigureSpec::Fig11 { .. } => "fig11",
            FigureSpec::Fig12 { .. } => "fig12",
            FigureSpec::Fig13 { .. } => "fig13",
            FigureSpec::Fig14 { .. } => "fig14",
            FigureSpec::Fig15 { .. } => "fig15",
            FigureSpec::Fig16 { .. } => "fig16",
            FigureSpec::Fig17Energy { .. } => "fig17",
            FigureSpec::Fig18Edp { .. } => "fig18",
            FigureSpec::Fig19Stall => "fig19",
        }
    }

    /// The figure number (6–16 mirror the paper; 17–18 are the energy
    /// figures this reproduction adds on top of the evaluation).
    pub fn number(&self) -> u32 {
        match self {
            FigureSpec::Fig06 { .. } => 6,
            FigureSpec::Fig07 { .. } => 7,
            FigureSpec::Fig08 { .. } => 8,
            FigureSpec::Fig09 { .. } => 9,
            FigureSpec::Fig10 { .. } => 10,
            FigureSpec::Fig11 { .. } => 11,
            FigureSpec::Fig12 { .. } => 12,
            FigureSpec::Fig13 { .. } => 13,
            FigureSpec::Fig14 { .. } => 14,
            FigureSpec::Fig15 { .. } => 15,
            FigureSpec::Fig16 { .. } => 16,
            FigureSpec::Fig17Energy { .. } => 17,
            FigureSpec::Fig18Edp { .. } => 18,
            FigureSpec::Fig19Stall => 19,
        }
    }

    /// A short human-readable title (what `reproduce --list-figures`
    /// prints).
    pub fn title(&self) -> &'static str {
        match self {
            FigureSpec::Fig06 { .. } => "Normalized runtime of private vs. shared caches",
            FigureSpec::Fig07 { .. } => "Increase of L2 access latency over Private Cache",
            FigureSpec::Fig08 { .. } => "L2 cache misses per 1000 instructions",
            FigureSpec::Fig09 { .. } => "Global search delay for data cached on-chip",
            FigureSpec::Fig10 { .. } => "Normalized off-chip memory accesses",
            FigureSpec::Fig11 { .. } => "Normalized runtimes of LOCO against Shared Cache",
            FigureSpec::Fig12 { .. } => "LOCO L2 hit latency and search delay under alternative NoCs",
            FigureSpec::Fig13 { .. } => "LOCO runtime under alternative NoCs",
            FigureSpec::Fig14 { .. } => "LOCO by cluster size (latency, MPKI, search delay, runtime)",
            FigureSpec::Fig15 { .. } => "Multi-program workloads (off-chip accesses, runtime)",
            FigureSpec::Fig16 { .. } => "Full-system simulation (MPKI, runtime)",
            FigureSpec::Fig17Energy { .. } => {
                "Energy per instruction and breakdown by cache organization"
            }
            FigureSpec::Fig18Edp { .. } => "Energy-delay product by cluster size",
            FigureSpec::Fig19Stall => "Stall-heavy stress workloads (barrier/DRAM-bound) under alternative NoCs",
        }
    }

    /// Every scenario this figure reads — the pure *plan* pass. The order
    /// is deterministic (it mirrors the assembly loops), and duplicates
    /// within one figure are fine: [`CampaignPlan::extend`] deduplicates.
    pub fn enumerate(&self, params: &ExperimentParams) -> Vec<Scenario> {
        let mut out = Vec::new();
        match self {
            FigureSpec::Fig06 { benchmarks } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Shared));
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Private));
                }
            }
            FigureSpec::Fig07 { benchmarks } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Private));
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Shared));
                    out.push(Scenario::default_trace(params, b, OrganizationKind::LocoCcVmsIvr));
                }
            }
            FigureSpec::Fig08 { benchmarks } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Shared));
                    out.push(Scenario::default_trace(params, b, OrganizationKind::LocoCcVmsIvr));
                }
            }
            FigureSpec::Fig09 { benchmarks } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::LocoCc));
                    out.push(Scenario::default_trace(params, b, OrganizationKind::LocoCcVms));
                }
            }
            FigureSpec::Fig10 { benchmarks } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Shared));
                    out.push(Scenario::default_trace(params, b, OrganizationKind::LocoCcVms));
                    out.push(Scenario::default_trace(params, b, OrganizationKind::LocoCcVmsIvr));
                }
            }
            FigureSpec::Fig11 { benchmarks } => {
                for &b in benchmarks {
                    for org in [
                        OrganizationKind::Shared,
                        OrganizationKind::LocoCc,
                        OrganizationKind::LocoCcVms,
                        OrganizationKind::LocoCcVmsIvr,
                    ] {
                        out.push(Scenario::default_trace(params, b, org));
                    }
                }
            }
            FigureSpec::Fig12 { benchmarks } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Private));
                    for router in NOC_SWEEP {
                        out.push(Scenario::Trace {
                            benchmark: b,
                            org: OrganizationKind::LocoCcVmsIvr,
                            router,
                            cluster: params.cluster,
                            full_system: false,
                        });
                    }
                }
            }
            FigureSpec::Fig13 { benchmarks } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Shared));
                    for router in NOC_SWEEP {
                        out.push(Scenario::Trace {
                            benchmark: b,
                            org: OrganizationKind::LocoCcVmsIvr,
                            router,
                            cluster: params.cluster,
                            full_system: false,
                        });
                    }
                }
            }
            FigureSpec::Fig14 { benchmarks, shapes } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Private));
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Shared));
                    for &shape in shapes {
                        out.push(Scenario::Trace {
                            benchmark: b,
                            org: OrganizationKind::LocoCcVmsIvr,
                            router: RouterKind::Smart,
                            cluster: shape,
                            full_system: false,
                        });
                    }
                }
            }
            FigureSpec::Fig15 { workloads } => {
                for &w in workloads {
                    for org in [
                        OrganizationKind::Shared,
                        OrganizationKind::LocoCc,
                        OrganizationKind::LocoCcVmsIvr,
                    ] {
                        out.push(Scenario::MultiProgram { workload: w, org });
                    }
                }
            }
            FigureSpec::Fig16 { benchmarks } => {
                for &b in benchmarks {
                    for org in [
                        OrganizationKind::Shared,
                        OrganizationKind::LocoCc,
                        OrganizationKind::LocoCcVms,
                        OrganizationKind::LocoCcVmsIvr,
                    ] {
                        out.push(Scenario::Trace {
                            benchmark: b,
                            org,
                            router: RouterKind::Smart,
                            cluster: params.cluster,
                            full_system: true,
                        });
                    }
                }
            }
            FigureSpec::Fig17Energy { benchmarks } => {
                for &b in benchmarks {
                    for org in ENERGY_ORGS {
                        out.push(Scenario::default_trace(params, b, org));
                    }
                }
            }
            FigureSpec::Fig18Edp { benchmarks, shapes } => {
                for &b in benchmarks {
                    out.push(Scenario::default_trace(params, b, OrganizationKind::Shared));
                    for &shape in shapes {
                        out.push(Scenario::Trace {
                            benchmark: b,
                            org: OrganizationKind::LocoCcVmsIvr,
                            router: RouterKind::Smart,
                            cluster: shape,
                            full_system: false,
                        });
                    }
                }
            }
            FigureSpec::Fig19Stall => {
                for kind in StressKind::ALL {
                    for router in NOC_SWEEP {
                        out.push(Scenario::StallStress { kind, router });
                    }
                }
            }
        }
        out
    }

    /// Builds the figure(s) from a completed result set — the pure
    /// *assemble* pass. Figures with sub-parts (12, 14, 15, 16) return more
    /// than one [`Figure`]; the rest return exactly one.
    ///
    /// # Panics
    ///
    /// Panics if a scenario from [`FigureSpec::enumerate`] is missing from
    /// `results`.
    pub fn assemble(&self, params: &ExperimentParams, results: &ResultSet) -> Vec<Figure> {
        let get_default = |b: Benchmark, org: OrganizationKind| -> &SimResults {
            results.expect(&Scenario::default_trace(params, b, org))
        };
        let bench_labels =
            |benchmarks: &[Benchmark]| benchmarks.iter().map(|b| b.name().to_string()).collect();
        match self {
            FigureSpec::Fig06 { benchmarks } => {
                let mut fig = Figure::new(
                    "fig06",
                    "Normalized runtime of private caches vs. shared caches",
                    "runtime normalized to Shared Cache",
                );
                fig.x_labels = bench_labels(benchmarks);
                let mut private = Vec::new();
                for &b in benchmarks {
                    let shared = get_default(b, OrganizationKind::Shared);
                    let priv_r = get_default(b, OrganizationKind::Private);
                    private.push(priv_r.runtime_normalized_to(shared));
                }
                fig.push_series(Series::new("Private Cache", private));
                fig.push_average_column();
                vec![fig]
            }
            FigureSpec::Fig07 { benchmarks } => {
                let mut fig = Figure::new(
                    format!("fig07-{}", params.label()),
                    "Increase of L2 access latency over Private Cache",
                    "cycles",
                );
                fig.x_labels = bench_labels(benchmarks);
                let (mut shared_v, mut loco_v) = (Vec::new(), Vec::new());
                for &b in benchmarks {
                    let private = get_default(b, OrganizationKind::Private);
                    let shared = get_default(b, OrganizationKind::Shared);
                    let loco = get_default(b, OrganizationKind::LocoCcVmsIvr);
                    shared_v.push((shared.avg_l2_hit_latency - private.avg_l2_hit_latency).max(0.0));
                    loco_v.push((loco.avg_l2_hit_latency - private.avg_l2_hit_latency).max(0.0));
                }
                fig.push_series(Series::new("Shared Cache", shared_v));
                fig.push_series(Series::new("LOCO", loco_v));
                fig.push_average_column();
                vec![fig]
            }
            FigureSpec::Fig08 { benchmarks } => {
                let mut fig = Figure::new(
                    format!("fig08-{}", params.label()),
                    "L2 cache misses per 1000 instructions",
                    "MPKI",
                );
                fig.x_labels = bench_labels(benchmarks);
                let (mut shared_v, mut loco_v) = (Vec::new(), Vec::new());
                for &b in benchmarks {
                    shared_v.push(get_default(b, OrganizationKind::Shared).l2_mpki);
                    loco_v.push(get_default(b, OrganizationKind::LocoCcVmsIvr).l2_mpki);
                }
                fig.push_series(Series::new("Shared Cache", shared_v));
                fig.push_series(Series::new("LOCO", loco_v));
                fig.push_average_column();
                vec![fig]
            }
            FigureSpec::Fig09 { benchmarks } => {
                let mut fig = Figure::new(
                    format!("fig09-{}", params.label()),
                    "Global search delay for data cached on-chip",
                    "cycles",
                );
                fig.x_labels = bench_labels(benchmarks);
                let (mut cc, mut vms) = (Vec::new(), Vec::new());
                for &b in benchmarks {
                    cc.push(get_default(b, OrganizationKind::LocoCc).avg_search_delay);
                    vms.push(get_default(b, OrganizationKind::LocoCcVms).avg_search_delay);
                }
                fig.push_series(Series::new("LOCO CC", cc));
                fig.push_series(Series::new("LOCO CC+VMS", vms));
                fig.push_average_column();
                vec![fig]
            }
            FigureSpec::Fig10 { benchmarks } => {
                let mut fig = Figure::new(
                    format!("fig10-{}", params.label()),
                    "Normalized off-chip memory accesses",
                    "normalized to Shared Cache",
                );
                fig.x_labels = bench_labels(benchmarks);
                let (mut vms, mut ivr) = (Vec::new(), Vec::new());
                for &b in benchmarks {
                    let shared = get_default(b, OrganizationKind::Shared);
                    vms.push(get_default(b, OrganizationKind::LocoCcVms).offchip_normalized_to(shared));
                    ivr.push(
                        get_default(b, OrganizationKind::LocoCcVmsIvr).offchip_normalized_to(shared),
                    );
                }
                fig.push_series(Series::new("LOCO CC+VMS", vms));
                fig.push_series(Series::new("LOCO CC+VMS+IVR", ivr));
                fig.push_average_column();
                vec![fig]
            }
            FigureSpec::Fig11 { benchmarks } => {
                let mut fig = Figure::new(
                    format!("fig11-{}", params.label()),
                    "Normalized runtimes of LOCO against baseline Shared Cache",
                    "runtime normalized to Shared Cache",
                );
                fig.x_labels = bench_labels(benchmarks);
                let mut series: Vec<(OrganizationKind, Vec<f64>)> = vec![
                    (OrganizationKind::Shared, Vec::new()),
                    (OrganizationKind::LocoCc, Vec::new()),
                    (OrganizationKind::LocoCcVms, Vec::new()),
                    (OrganizationKind::LocoCcVmsIvr, Vec::new()),
                ];
                for &b in benchmarks {
                    let shared = get_default(b, OrganizationKind::Shared);
                    for (org, values) in &mut series {
                        let r = get_default(b, *org);
                        values.push(r.runtime_normalized_to(shared));
                    }
                }
                for (org, values) in series {
                    fig.push_series(Series::new(org.label(), values));
                }
                fig.push_average_column();
                vec![fig]
            }
            FigureSpec::Fig12 { benchmarks } => {
                let mut latency = Figure::new(
                    format!("fig12a-{}", params.label()),
                    "LOCO L2 hit latency under alternative NoCs",
                    "cycles over Private Cache",
                );
                let mut search = Figure::new(
                    format!("fig12b-{}", params.label()),
                    "LOCO global on-chip data search delay under alternative NoCs",
                    "cycles",
                );
                latency.x_labels = bench_labels(benchmarks);
                search.x_labels = bench_labels(benchmarks);
                for router in NOC_SWEEP {
                    let (mut lat_v, mut sea_v) = (Vec::new(), Vec::new());
                    for &b in benchmarks {
                        let private = get_default(b, OrganizationKind::Private);
                        let r = results.expect(&Scenario::Trace {
                            benchmark: b,
                            org: OrganizationKind::LocoCcVmsIvr,
                            router,
                            cluster: params.cluster,
                            full_system: false,
                        });
                        lat_v.push((r.avg_l2_hit_latency - private.avg_l2_hit_latency).max(0.0));
                        sea_v.push(r.avg_search_delay);
                    }
                    latency.push_series(Series::new(format!("LOCO + {}", router.label()), lat_v));
                    search.push_series(Series::new(format!("LOCO + {}", router.label()), sea_v));
                }
                latency.push_average_column();
                search.push_average_column();
                vec![latency, search]
            }
            FigureSpec::Fig13 { benchmarks } => {
                let mut fig = Figure::new(
                    format!("fig13-{}", params.label()),
                    "LOCO runtime under alternative NoCs",
                    "runtime normalized to Shared Cache on SMART NoC",
                );
                fig.x_labels = bench_labels(benchmarks);
                for router in NOC_SWEEP {
                    let mut v = Vec::new();
                    for &b in benchmarks {
                        let shared = get_default(b, OrganizationKind::Shared);
                        let r = results.expect(&Scenario::Trace {
                            benchmark: b,
                            org: OrganizationKind::LocoCcVmsIvr,
                            router,
                            cluster: params.cluster,
                            full_system: false,
                        });
                        v.push(r.runtime_normalized_to(shared));
                    }
                    fig.push_series(Series::new(format!("LOCO + {}", router.label()), v));
                }
                fig.push_average_column();
                vec![fig]
            }
            FigureSpec::Fig14 { benchmarks, shapes } => {
                let mut latency = Figure::new(
                    "fig14a",
                    "L2 hit latency increase by cluster size",
                    "cycles over Private Cache",
                );
                let mut mpki =
                    Figure::new("fig14b", "L2 misses per 1000 instructions by cluster size", "MPKI");
                let mut search = Figure::new("fig14c", "Global search delay by cluster size", "cycles");
                let mut runtime = Figure::new(
                    "fig14d",
                    "Normalized runtime by cluster size",
                    "runtime normalized to Shared Cache",
                );
                let x: Vec<String> = bench_labels(benchmarks);
                latency.x_labels = x.clone();
                mpki.x_labels = x.clone();
                search.x_labels = x.clone();
                runtime.x_labels = x;
                for &shape in shapes {
                    let label = format!("Cluster Size:{}x{}", shape.w, shape.h);
                    let (mut lv, mut mv, mut sv, mut rv) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                    for &b in benchmarks {
                        let private = get_default(b, OrganizationKind::Private);
                        let shared = get_default(b, OrganizationKind::Shared);
                        let r = results.expect(&Scenario::Trace {
                            benchmark: b,
                            org: OrganizationKind::LocoCcVmsIvr,
                            router: RouterKind::Smart,
                            cluster: shape,
                            full_system: false,
                        });
                        lv.push((r.avg_l2_hit_latency - private.avg_l2_hit_latency).max(0.0));
                        mv.push(r.l2_mpki);
                        sv.push(r.avg_search_delay);
                        rv.push(r.runtime_normalized_to(shared));
                    }
                    latency.push_series(Series::new(label.clone(), lv));
                    mpki.push_series(Series::new(label.clone(), mv));
                    search.push_series(Series::new(label.clone(), sv));
                    runtime.push_series(Series::new(label, rv));
                }
                for f in [&mut latency, &mut mpki, &mut search, &mut runtime] {
                    f.push_average_column();
                }
                vec![latency, mpki, search, runtime]
            }
            FigureSpec::Fig15 { workloads } => {
                let mut offchip = Figure::new(
                    "fig15a",
                    "Multi-program workloads: normalized off-chip memory accesses",
                    "normalized to Shared Cache",
                );
                let mut runtime = Figure::new(
                    "fig15b",
                    "Multi-program workloads: normalized runtime",
                    "normalized to Shared Cache",
                );
                let labels: Vec<String> = workloads.iter().map(|w| format!("W{w}")).collect();
                offchip.x_labels = labels.clone();
                runtime.x_labels = labels;
                let orgs = [
                    OrganizationKind::Shared,
                    OrganizationKind::LocoCc,
                    OrganizationKind::LocoCcVmsIvr,
                ];
                let mut off_series: Vec<Vec<f64>> = vec![Vec::new(); orgs.len()];
                let mut run_series: Vec<Vec<f64>> = vec![Vec::new(); orgs.len()];
                for &w in workloads {
                    let shared = results.expect(&Scenario::MultiProgram {
                        workload: w,
                        org: OrganizationKind::Shared,
                    });
                    for (i, &org) in orgs.iter().enumerate() {
                        let r = results.expect(&Scenario::MultiProgram { workload: w, org });
                        off_series[i].push(r.offchip_normalized_to(shared));
                        run_series[i].push(r.runtime_normalized_to(shared));
                    }
                }
                for (i, org) in orgs.iter().enumerate() {
                    let label = if *org == OrganizationKind::LocoCc {
                        "Clustered Cache".to_string()
                    } else {
                        org.label().to_string()
                    };
                    offchip.push_series(Series::new(label.clone(), off_series[i].clone()));
                    runtime.push_series(Series::new(label, run_series[i].clone()));
                }
                offchip.push_average_column();
                runtime.push_average_column();
                vec![offchip, runtime]
            }
            FigureSpec::Fig16 { benchmarks } => {
                let get_fs = |b: Benchmark, org: OrganizationKind| -> &SimResults {
                    results.expect(&Scenario::Trace {
                        benchmark: b,
                        org,
                        router: RouterKind::Smart,
                        cluster: params.cluster,
                        full_system: true,
                    })
                };
                let mut mpki = Figure::new(
                    "fig16a",
                    "Full system simulation: L2 misses per 1000 instructions",
                    "MPKI",
                );
                mpki.x_labels = bench_labels(benchmarks);
                let (mut shared_v, mut loco_v) = (Vec::new(), Vec::new());
                for &b in benchmarks {
                    shared_v.push(get_fs(b, OrganizationKind::Shared).l2_mpki);
                    loco_v.push(get_fs(b, OrganizationKind::LocoCcVmsIvr).l2_mpki);
                }
                mpki.push_series(Series::new("Shared", shared_v));
                mpki.push_series(Series::new("LOCO", loco_v));
                mpki.push_average_column();

                let mut runtime = Figure::new(
                    "fig16b",
                    "Full system simulation: normalized runtime against Shared Cache",
                    "runtime normalized to Shared Cache",
                );
                runtime.x_labels = bench_labels(benchmarks);
                let orgs = [
                    OrganizationKind::LocoCc,
                    OrganizationKind::LocoCcVms,
                    OrganizationKind::LocoCcVmsIvr,
                ];
                let mut series: Vec<Vec<f64>> = vec![Vec::new(); orgs.len()];
                for &b in benchmarks {
                    let shared = get_fs(b, OrganizationKind::Shared);
                    for (i, &org) in orgs.iter().enumerate() {
                        series[i].push(get_fs(b, org).runtime_normalized_to(shared));
                    }
                }
                for (i, org) in orgs.iter().enumerate() {
                    runtime.push_series(Series::new(org.label(), series[i].clone()));
                }
                runtime.push_average_column();
                vec![mpki, runtime]
            }
            FigureSpec::Fig17Energy { benchmarks } => {
                let energy = EnergyParams::default();
                let breakdown = |b: Benchmark, org: OrganizationKind| -> EnergyBreakdown {
                    energy.breakdown(get_default(b, org))
                };
                // 17a: energy per instruction, per organization, across the
                // benchmark x-axis (nJ so the magnitudes stay readable).
                let mut epi = Figure::new(
                    format!("fig17a-{}", params.label()),
                    "Energy per instruction by cache organization",
                    "nJ / instruction",
                );
                epi.x_labels = bench_labels(benchmarks);
                for org in ENERGY_ORGS {
                    let v: Vec<f64> = benchmarks
                        .iter()
                        .map(|&b| breakdown(b, org).epi_fj() / 1e6)
                        .collect();
                    epi.push_series(Series::new(org.label(), v));
                }
                epi.push_average_column();
                // 17b: the subsystem breakdown per organization, averaged
                // over the benchmarks (the stacked-bar view of 17a).
                let mut parts = Figure::new(
                    format!("fig17b-{}", params.label()),
                    "Energy breakdown by subsystem (benchmark average)",
                    "nJ / instruction",
                );
                parts.x_labels = ENERGY_ORGS.iter().map(|o| o.label().to_string()).collect();
                let n = benchmarks.len().max(1) as f64;
                let component = |f: &dyn Fn(&EnergyBreakdown) -> u64| -> Vec<f64> {
                    ENERGY_ORGS
                        .iter()
                        .map(|&org| {
                            benchmarks
                                .iter()
                                .map(|&b| {
                                    let bd = breakdown(b, org);
                                    if bd.instructions == 0 {
                                        0.0
                                    } else {
                                        f(&bd) as f64 / bd.instructions as f64 / 1e6
                                    }
                                })
                                .sum::<f64>()
                                / n
                        })
                        .collect()
                };
                parts.push_series(Series::new("NoC", component(&|b| b.network.total_fj())));
                parts.push_series(Series::new("L1", component(&|b| b.cache.l1_fj)));
                parts.push_series(Series::new("L2", component(&|b| b.cache.l2_fj)));
                parts.push_series(Series::new(
                    "Directory",
                    component(&|b| b.cache.directory_fj),
                ));
                parts.push_series(Series::new(
                    "VMS+IVR",
                    component(&|b| b.cache.vms_fj + b.cache.ivr_fj),
                ));
                parts.push_series(Series::new("DRAM", component(&|b| b.dram_fj)));
                vec![epi, parts]
            }
            FigureSpec::Fig18Edp { benchmarks, shapes } => {
                let energy = EnergyParams::default();
                let mut fig = Figure::new(
                    format!("fig18-{}", params.label()),
                    "Energy-delay product of LOCO by cluster size",
                    "EDP normalized to Shared Cache",
                );
                fig.x_labels = bench_labels(benchmarks);
                for &shape in shapes {
                    let mut v = Vec::new();
                    for &b in benchmarks {
                        let shared =
                            energy.breakdown(get_default(b, OrganizationKind::Shared));
                        let r = results.expect(&Scenario::Trace {
                            benchmark: b,
                            org: OrganizationKind::LocoCcVmsIvr,
                            router: RouterKind::Smart,
                            cluster: shape,
                            full_system: false,
                        });
                        v.push(energy.breakdown(r).edp_normalized_to(&shared));
                    }
                    fig.push_series(Series::new(
                        format!("Cluster Size:{}x{}", shape.w, shape.h),
                        v,
                    ));
                }
                fig.push_average_column();
                vec![fig]
            }
            FigureSpec::Fig19Stall => {
                let mut fig = Figure::new(
                    "fig19",
                    "Stall-heavy stress workloads under alternative NoCs",
                    "runtime normalized to SMART NoC",
                );
                fig.x_labels = StressKind::ALL.iter().map(|k| k.name().to_string()).collect();
                for router in NOC_SWEEP {
                    let mut v = Vec::new();
                    for kind in StressKind::ALL {
                        let smart = results.expect(&Scenario::StallStress {
                            kind,
                            router: RouterKind::Smart,
                        });
                        let r = results.expect(&Scenario::StallStress { kind, router });
                        v.push(r.runtime_normalized_to(smart));
                    }
                    fig.push_series(Series::new(format!("LOCO + {}", router.label()), v));
                }
                fig.push_average_column();
                vec![fig]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        ExperimentParams::quick().with_mem_ops(100)
    }

    #[test]
    fn plan_deduplicates_across_figures() {
        let params = quick();
        let benchmarks = vec![Benchmark::Lu, Benchmark::Blackscholes];
        let fig06 = FigureSpec::Fig06 {
            benchmarks: benchmarks.clone(),
        };
        let fig11 = FigureSpec::Fig11 { benchmarks };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&fig06, &params);
        let after_fig06 = plan.len();
        assert_eq!(after_fig06, 4); // {Shared, Private} x 2 benchmarks
        plan.add_figure(&fig11, &params);
        // fig11 adds {LocoCc, LocoCcVms, LocoCcVmsIvr} x 2; Shared is shared.
        assert_eq!(plan.len(), after_fig06 + 6);
    }

    #[test]
    fn executor_covers_the_whole_plan() {
        let params = quick();
        let spec = FigureSpec::Fig09 {
            benchmarks: vec![Benchmark::Barnes],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        let results = Executor::new(1).execute(&params, &plan);
        assert_eq!(results.len(), plan.len());
        for s in plan.scenarios() {
            assert!(results.get(s).is_some(), "missing {}", s.label());
        }
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].series.len(), 2);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let params = quick();
        let spec = FigureSpec::Fig08 {
            benchmarks: vec![Benchmark::Lu, Benchmark::Blackscholes],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        let serial = Executor::new(1).execute(&params, &plan);
        let parallel = Executor::new(4).execute(&params, &plan);
        for s in plan.scenarios() {
            assert_eq!(
                format!("{:?}", serial.expect(s)),
                format!("{:?}", parallel.expect(s)),
                "scenario {} diverged across worker counts",
                s.label()
            );
        }
        assert_eq!(
            spec.assemble(&params, &serial),
            spec.assemble(&params, &parallel)
        );
    }

    #[test]
    fn multiprogram_scenarios_execute_and_assemble() {
        let params = quick();
        let spec = FigureSpec::Fig15 { workloads: vec![0] };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        assert_eq!(plan.len(), 3);
        let results = Executor::new(2).execute(&params, &plan);
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].series.len(), 3);
    }

    #[test]
    fn incomplete_names_truncated_runs_in_plan_order() {
        let params = quick();
        let spec = FigureSpec::Fig06 {
            benchmarks: vec![Benchmark::Lu, Benchmark::Barnes],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        let full = Executor::new(2).execute(&params, &plan);
        assert!(full.incomplete().is_empty());
        let truncated = ExperimentParams {
            max_cycles: 50,
            ..params
        };
        let cut = Executor::new(2).execute(&truncated, &plan);
        assert_eq!(cut.incomplete(), plan.scenarios());
        // A mixed set reports only its truncated runs, in insertion order.
        let mut mixed = ResultSet::new();
        for (i, s) in plan.scenarios().iter().enumerate() {
            let from = if i % 2 == 0 { &cut } else { &full };
            mixed.insert(*s, Arc::new(from.expect(s).clone()));
        }
        let expected: Vec<Scenario> = plan.scenarios().iter().step_by(2).copied().collect();
        assert_eq!(mixed.incomplete(), expected);
    }

    #[test]
    #[should_panic(expected = "was it planned")]
    fn assembling_from_an_incomplete_result_set_names_the_scenario() {
        let params = quick();
        let spec = FigureSpec::Fig06 {
            benchmarks: vec![Benchmark::Lu],
        };
        spec.assemble(&params, &ResultSet::new());
    }

    #[test]
    fn executor_zero_means_all_cores() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(3).threads(), 3);
    }

    #[test]
    fn energy_figure_rides_the_existing_scenario_axes() {
        let params = quick();
        let spec = FigureSpec::Fig17Energy {
            benchmarks: vec![Benchmark::Lu],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        assert_eq!(plan.len(), 5, "one scenario per organization");
        // The scenarios are plain default traces: composing with fig11
        // re-enumerates nothing new beyond Private.
        plan.add_figure(
            &FigureSpec::Fig11 {
                benchmarks: vec![Benchmark::Lu],
            },
            &params,
        );
        assert_eq!(plan.len(), 5);
        let results = Executor::new(2).execute(&params, &plan);
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].id, format!("fig17a-{}", params.label()));
        assert_eq!(figs[0].series.len(), 5, "one series per organization");
        assert_eq!(figs[1].series.len(), 6, "one series per subsystem");
        // Every run executes instructions and touches DRAM, so energy is
        // strictly positive everywhere.
        for s in &figs[0].series {
            for v in &s.values {
                assert!(*v > 0.0 && v.is_finite(), "{}: {v}", s.label);
            }
        }
    }

    #[test]
    fn edp_figure_normalizes_against_shared() {
        let params = quick();
        let spec = FigureSpec::Fig18Edp {
            benchmarks: vec![Benchmark::Lu],
            shapes: vec![ClusterShape::new(2, 2)],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        assert_eq!(plan.len(), 2, "Shared baseline + one shape");
        let results = Executor::new(1).execute(&params, &plan);
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 1);
        let v = figs[0].series[0].values[0];
        assert!(v > 0.0 && v.is_finite());
    }

    #[test]
    fn stall_stress_figure_sweeps_kinds_by_router() {
        let params = quick();
        let spec = FigureSpec::Fig19Stall;
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        assert_eq!(plan.len(), 6, "2 stress kinds x 3 routers");
        let results = Executor::new(2).execute(&params, &plan);
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].series.len(), 3, "one series per router");
        // SMART is the normalization baseline, so its series is exactly 1.
        let smart = &figs[0].series[0];
        assert!(smart.label.contains("SMART"), "{}", smart.label);
        for v in &smart.values {
            assert!((v - 1.0).abs() < 1e-12, "SMART must normalize to 1, got {v}");
        }
        for s in &figs[0].series {
            for v in &s.values {
                assert!(*v > 0.0 && v.is_finite(), "{}: {v}", s.label);
            }
        }
    }

    #[test]
    fn stall_stress_scenarios_are_stall_shaped() {
        let params = quick();
        // DRAM-bound: nearly every access goes off-chip, and the stretched
        // latency dominates the runtime.
        let dram = run_stall_stress(&params, StressKind::DramBound, RouterKind::Smart);
        assert!(dram.completed);
        assert!(
            dram.offchip_accesses * 2 > dram.cache.l2_misses,
            "DRAM-bound must miss past the L2 ({} offchip of {} L2 misses)",
            dram.offchip_accesses,
            dram.cache.l2_misses
        );
        assert!(
            dram.avg_miss_latency > 800.0,
            "the stretched DRAM latency must dominate misses (got {:.0})",
            dram.avg_miss_latency
        );
        // Barrier-phased: the barriers must actually fire.
        let barrier = run_stall_stress(&params, StressKind::BarrierPhased, RouterKind::Smart);
        assert!(barrier.completed);
        assert!(
            barrier.cache.instructions > 0 && barrier.runtime_cycles > 0,
            "barrier-phased run must make progress"
        );
    }

    // `Executor::try_new`'s rejection contract is covered by
    // `tests/campaign.rs::senseless_thread_counts_are_rejected_with_a_clear_error`
    // (through the public re-export the CLI actually uses).

    #[test]
    fn every_figure_has_an_id_number_and_title() {
        let specs = [
            FigureSpec::Fig06 { benchmarks: vec![] },
            FigureSpec::Fig17Energy { benchmarks: vec![] },
            FigureSpec::Fig18Edp {
                benchmarks: vec![],
                shapes: vec![],
            },
        ];
        assert_eq!(specs[0].id(), "fig06");
        assert_eq!(specs[1].id(), "fig17");
        assert_eq!(specs[1].number(), 17);
        assert_eq!(specs[2].id(), "fig18");
        assert_eq!(specs[2].number(), 18);
        for s in &specs {
            assert!(!s.title().is_empty());
        }
    }
}
