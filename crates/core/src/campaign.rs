//! The campaign engine: **plan → execute → assemble**.
//!
//! The paper's evaluation is one large sweep of independent simulations
//! (5 cache organizations × 3 NoCs × benchmarks × cluster shapes across
//! Figures 6–16). This module runs it in three decoupled phases:
//!
//! 1. **Plan** — every figure is described by a [`FigureSpec`] whose
//!    [`FigureSpec::enumerate`] pass is *pure*: it returns the [`Scenario`]s
//!    the figure needs, without running anything. The plan is not written
//!    down separately: `enumerate` runs the assembly code against blank
//!    results and records every scenario it reads. Scenarios from several
//!    figures are deduplicated into one [`CampaignPlan`] (composing fig06
//!    and fig11 over the same matrix enumerates each shared scenario once).
//!    A full-system read whose traces reach no barrier is the same machine
//!    as its trace-mode twin; where the trace figures read that twin, it
//!    is read under the twin's key and simulated once (DESIGN.md §8).
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
//! Figures are data: a new figure is one `panel` declaration per panel
//! (id, title, y label, x axis, series and the value at each point), and
//! its title lives only there — [`FigureSpec::title`] reads it back.
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
use loco_workloads::{Benchmark, BenchmarkSpec, MultiProgramWorkload, StressKind, TraceGenerator};
use std::panic::AssertUnwindSafe;
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
/// campaign and the key of a [`ResultSet`]: everything that distinguishes
/// one run from another at fixed [`ExperimentParams`].
///
/// [`Scenario::system`] is the one place a scenario's [`CmpSystem`] is
/// built.
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

    /// Builds this scenario's system at `params`, ready to run or to step
    /// by hand. Caches and working sets shrink together by
    /// `params.working_set_scale` (DESIGN.md §3), and every core replays a
    /// trace generated from `params.seed`. Building generates nothing: each
    /// core's ops are generated as the run reaches them (DESIGN.md §1).
    ///
    /// * `Trace`: the benchmark on the `params` mesh, one barrier group.
    /// * `MultiProgram`: the Table-2 workload on the SMART NoC, one barrier
    ///   group per task instance. The cluster matches the per-task thread
    ///   count (4x1, 8x1 or 4x4); below 64 cores (the `quick()` mesh) the
    ///   campaign's default cluster is used and the workload is truncated
    ///   to fit.
    /// * `StallStress`: a fixed 16-core (4x4) mesh with 2x2 clusters under
    ///   CC+VMS. DRAM-bound runs stretch the memory latency to 800 cycles
    ///   (min gap 8), so nearly the whole run is exposed off-chip stall;
    ///   barrier-phased runs enable the full-system replay mode.
    pub fn system(&self, params: &ExperimentParams) -> CmpSystem {
        let scale = params.working_set_scale.max(1);
        // A single-program trace set: every core in barrier group 0.
        let traces = |spec: BenchmarkSpec, full_system: bool, cores: usize| {
            let traces = TraceGenerator::new(params.seed)
                .with_barriers(full_system)
                .generate(&spec.scaled_down(scale), cores, params.mem_ops_per_core);
            let groups = vec![0; traces.len()];
            (traces, groups)
        };
        let (cfg, (traces, groups)) = match *self {
            Scenario::Trace {
                benchmark,
                org,
                router,
                cluster,
                full_system,
            } => (
                params.system(org, router, cluster, full_system),
                traces(benchmark.spec(), full_system, params.num_cores()),
            ),
            Scenario::MultiProgram { workload, org } => {
                let workload = MultiProgramWorkload::table2_entry(workload);
                let cluster = if params.num_cores() < 64 {
                    params.cluster
                } else {
                    match workload.threads_per_task() {
                        4 => ClusterShape::new(4, 1),
                        8 => ClusterShape::new(8, 1),
                        _ => ClusterShape::new(4, 4),
                    }
                };
                let mut traces =
                    workload.generate_traces_scaled(params.mem_ops_per_core, params.seed, scale);
                let mut groups: Vec<usize> = workload
                    .assign_cores()
                    .iter()
                    .flat_map(|a| a.cores.iter().map(move |_| a.task_id))
                    .collect();
                traces.truncate(params.num_cores());
                groups.truncate(params.num_cores());
                (
                    params.system(org, RouterKind::Smart, cluster, false),
                    (traces, groups),
                )
            }
            Scenario::StallStress { kind, router } => {
                let fixed_mesh = ExperimentParams {
                    mesh_width: 4,
                    mesh_height: 4,
                    ..*params
                };
                let mut cfg = fixed_mesh.system(
                    OrganizationKind::LocoCcVms,
                    router,
                    ClusterShape::new(2, 2),
                    kind.full_system(),
                );
                if kind == StressKind::DramBound {
                    cfg.mem.latency = 800;
                    cfg.mem.min_gap = 8;
                }
                let cores = cfg.num_cores();
                (cfg, traces(kind.spec(), kind.full_system(), cores))
            }
        };
        CmpSystem::with_groups(cfg, traces, groups)
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

/// Runs one [`Scenario`] from scratch: builds its system and simulates.
/// Pure with respect to its inputs — the same `(params, scenario)` pair
/// always produces bit-identical [`SimResults`] (the foundation of the
/// thread-count invariance guarantee).
pub fn run_scenario(params: &ExperimentParams, scenario: Scenario) -> SimResults {
    scenario.system(params).run(params.max_cycles)
}

/// Builds (without running) the system of one stall-heavy stress scenario,
/// [`Scenario::system`] of [`Scenario::StallStress`]. Exposed so the
/// benchmark can drive the exact campaign configuration manually (e.g. to
/// read the scheduler's skip diagnostics or to time `run` against
/// `run_naive`).
pub fn stall_stress_system(
    params: &ExperimentParams,
    kind: StressKind,
    router: RouterKind,
) -> CmpSystem {
    Scenario::StallStress { kind, router }.system(params)
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
        self.index
            .get(scenario)
            .map(|&i| self.entries[i].1.as_ref())
    }

    /// The result of one scenario.
    ///
    /// # Panics
    ///
    /// Panics (with the scenario's label) if the scenario was never
    /// executed — i.e. the plan the caller executed did not cover the
    /// figure being assembled.
    pub fn expect(&self, scenario: &Scenario) -> &SimResults {
        self.get(scenario).unwrap_or_else(|| {
            panic!(
                "no result for scenario {} — was it planned?",
                scenario.label()
            )
        })
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
    ///
    /// # Panics
    ///
    /// If a scenario panics, with a message naming its
    /// [`Scenario::label`] and the original panic message. With several
    /// failures, the first in plan order is reported.
    pub fn execute(&self, params: &ExperimentParams, plan: &CampaignPlan) -> ResultSet {
        let scenarios = plan.scenarios();
        let n = scenarios.len();
        let workers = self.threads.min(n).max(1);
        let mut results = ResultSet::new();
        if workers <= 1 {
            // Inline fast path: no thread or lock overhead for sequential
            // execution.
            for &s in scenarios {
                results.insert(s, run_named(params, s).unwrap_or_else(|e| panic!("{e}")));
            }
            return results;
        }
        let slots: Vec<Mutex<Option<Outcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = run_named(params, scenarios[i]);
                    *slots[i].lock().expect("slot lock") = Some(result);
                });
            }
        });
        for (slot, &s) in slots.into_iter().zip(scenarios) {
            let r = slot
                .into_inner()
                .expect("slot lock")
                .expect("every planned scenario was executed");
            results.insert(s, r.unwrap_or_else(|e| panic!("{e}")));
        }
        results
    }
}

/// A scenario's result, or the message of the panic it raised.
type Outcome = Result<Arc<SimResults>, String>;

/// Runs one scenario, turning a panic inside it into an error that names the
/// scenario: unwinding through the executor would lose which one failed.
fn run_named(params: &ExperimentParams, scenario: Scenario) -> Outcome {
    std::panic::catch_unwind(AssertUnwindSafe(|| run_scenario(params, scenario)))
        .map(Arc::new)
        .map_err(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("(non-string panic payload)");
            format!("scenario {} panicked: {msg}", scenario.label())
        })
}

/// A declarative description of one figure of the paper: how the figure is
/// built from its scenarios' results ([`FigureSpec::assemble`]), and so
/// which scenarios it needs ([`FigureSpec::enumerate`]). Both passes are
/// pure.
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

/// The organizations of the energy-breakdown figure, in paper order.
const ENERGY_ORGS: [OrganizationKind; 5] = [
    OrganizationKind::Private,
    OrganizationKind::Shared,
    OrganizationKind::LocoCc,
    OrganizationKind::LocoCcVms,
    OrganizationKind::LocoCcVmsIvr,
];

/// One panel, headed by its id, title and y-axis label: `value(series, x)`
/// for every series at every x, then an `AVG` column.
fn panel<X: Copy, S: Copy>(
    (id, title, y_label): (String, &str, &str),
    xs: &[(String, X)],
    series: &[(String, S)],
    value: impl Fn(S, X) -> f64,
) -> Figure {
    let mut fig = Figure::new(id, title, y_label);
    fig.x_labels = xs.iter().map(|(label, _)| label.clone()).collect();
    for (label, s) in series {
        let values = xs.iter().map(|&(_, x)| value(*s, x)).collect();
        fig.push_series(Series::new(label.clone(), values));
    }
    fig.push_average_column();
    fig
}

impl FigureSpec {
    /// The figure number (6–16 mirror the paper; 17–18 are the energy
    /// figures and 19 the stall-stress sweep this reproduction adds on top
    /// of the evaluation).
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

    /// The figure's title, as `reproduce --list-figures` prints it: the
    /// titles of its panels joined with `" / "`. It is read off the figure
    /// built over blank results, so each title is written once, in the
    /// panel that draws it.
    pub fn title(&self, params: &ExperimentParams) -> String {
        let blank = SimResults::default();
        let panels = self.build(params, &|_| &blank);
        panels
            .iter()
            .map(|f| f.title.as_str())
            .collect::<Vec<_>>()
            .join(" / ")
    }

    /// Every scenario this figure reads — the pure *plan* pass. It is not a
    /// second list: it runs [`FigureSpec::assemble`]'s own code against
    /// blank results and records what that code asks for, in the order it
    /// asks. Duplicates within one figure are fine: [`CampaignPlan::extend`]
    /// deduplicates.
    pub fn enumerate(&self, params: &ExperimentParams) -> Vec<Scenario> {
        let blank = SimResults::default();
        let read = Mutex::new(Vec::new());
        self.build(params, &|s| {
            read.lock().expect("plan lock").push(*s);
            &blank
        });
        read.into_inner().expect("plan lock")
    }

    /// Builds the figure(s) from a completed result set — the pure
    /// *assemble* pass. Figures with sub-parts (12, 14, 15, 16, 17) return
    /// more than one [`Figure`]; the rest return exactly one.
    ///
    /// # Panics
    ///
    /// Panics if a scenario from [`FigureSpec::enumerate`] is missing from
    /// `results`.
    pub fn assemble(&self, params: &ExperimentParams, results: &ResultSet) -> Vec<Figure> {
        self.build(params, &|s| results.expect(s))
    }

    /// The one body behind both passes: builds the figure(s), reading every
    /// scenario through `get`. Each figure is its `panel` declarations (the
    /// fig17b subsystem breakdown, which has no `AVG` column, is written
    /// out).
    ///
    /// The plan is whatever this code reads, so it must read the same
    /// scenarios whatever the values are: no read may depend on the value
    /// of an earlier one. Blank results are safe to read: every ratio
    /// helper of [`SimResults`] and [`EnergyBreakdown`] returns 0 for a 0
    /// denominator.
    fn build<'r>(
        &self,
        params: &ExperimentParams,
        get: &dyn Fn(&Scenario) -> &'r SimResults,
    ) -> Vec<Figure> {
        use OrganizationKind::{LocoCc, LocoCcVms, LocoCcVmsIvr, Private, Shared};
        let p = params.label();
        // A full-system trace that reaches no barrier is the plain trace,
        // and the system reads `full_system` only at a barrier, so such a
        // run is its trace-mode twin. For a benchmark of the trace-driven
        // suite the trace figures read that twin already: read it under
        // their key, and the machine is simulated once (DESIGN §8).
        let trace = |benchmark: Benchmark, org, router, cluster, full_system: bool| {
            let twin_is_read = Benchmark::TRACE_DRIVEN.contains(&benchmark)
                && benchmark
                    .spec()
                    .barriers_per_thread(params.mem_ops_per_core)
                    == 0;
            get(&Scenario::Trace {
                benchmark,
                org,
                router,
                cluster,
                full_system: full_system && !twin_is_read,
            })
        };
        let at = |b, org| get(&Scenario::default_trace(params, b, org));
        let loco = |b, router, cluster| trace(b, LocoCcVmsIvr, router, cluster, false);
        let over_private =
            |r: &SimResults, b| (r.avg_l2_hit_latency - at(b, Private).avg_l2_hit_latency).max(0.0);
        let bench = |bs: &[Benchmark]| -> Vec<(String, Benchmark)> {
            bs.iter().map(|&b| (b.name().to_string(), b)).collect()
        };
        let orgs = |os: &[OrganizationKind]| -> Vec<(String, OrganizationKind)> {
            os.iter().map(|&o| (o.label().to_string(), o)).collect()
        };
        // The three NoCs of the comparison figures, in paper order.
        let nocs = [
            RouterKind::Smart,
            RouterKind::Conventional,
            RouterKind::HighRadix,
        ]
        .map(|r| (format!("LOCO + {}", r.label()), r));
        let by_shape = |shapes: &[ClusterShape]| -> Vec<(String, ClusterShape)> {
            shapes
                .iter()
                .map(|&s| (format!("Cluster Size:{}x{}", s.w, s.h), s))
                .collect()
        };
        match self {
            FigureSpec::Fig06 { benchmarks } => vec![panel(
                (
                    "fig06".into(),
                    "Normalized runtime of private caches vs. shared caches",
                    "runtime normalized to Shared Cache",
                ),
                &bench(benchmarks),
                &orgs(&[Private]),
                |o, b| at(b, o).runtime_normalized_to(at(b, Shared)),
            )],
            FigureSpec::Fig07 { benchmarks } => vec![panel(
                (
                    format!("fig07-{p}"),
                    "Increase of L2 access latency over Private Cache",
                    "cycles",
                ),
                &bench(benchmarks),
                &[
                    ("Shared Cache".into(), Shared),
                    ("LOCO".into(), LocoCcVmsIvr),
                ],
                |o, b| over_private(at(b, o), b),
            )],
            FigureSpec::Fig08 { benchmarks } => vec![panel(
                (
                    format!("fig08-{p}"),
                    "L2 cache misses per 1000 instructions",
                    "MPKI",
                ),
                &bench(benchmarks),
                &[
                    ("Shared Cache".into(), Shared),
                    ("LOCO".into(), LocoCcVmsIvr),
                ],
                |o, b| at(b, o).l2_mpki,
            )],
            FigureSpec::Fig09 { benchmarks } => vec![panel(
                (
                    format!("fig09-{p}"),
                    "Global search delay for data cached on-chip",
                    "cycles",
                ),
                &bench(benchmarks),
                &orgs(&[LocoCc, LocoCcVms]),
                |o, b| at(b, o).avg_search_delay,
            )],
            FigureSpec::Fig10 { benchmarks } => vec![panel(
                (
                    format!("fig10-{p}"),
                    "Normalized off-chip memory accesses",
                    "normalized to Shared Cache",
                ),
                &bench(benchmarks),
                &orgs(&[LocoCcVms, LocoCcVmsIvr]),
                |o, b| at(b, o).offchip_normalized_to(at(b, Shared)),
            )],
            FigureSpec::Fig11 { benchmarks } => vec![panel(
                (
                    format!("fig11-{p}"),
                    "Normalized runtimes of LOCO against baseline Shared Cache",
                    "runtime normalized to Shared Cache",
                ),
                &bench(benchmarks),
                &orgs(&[Shared, LocoCc, LocoCcVms, LocoCcVmsIvr]),
                |o, b| at(b, o).runtime_normalized_to(at(b, Shared)),
            )],
            FigureSpec::Fig12 { benchmarks } => {
                let xs = bench(benchmarks);
                vec![
                    panel(
                        (
                            format!("fig12a-{p}"),
                            "LOCO L2 hit latency under alternative NoCs",
                            "cycles over Private Cache",
                        ),
                        &xs,
                        &nocs,
                        |r, b| over_private(loco(b, r, params.cluster), b),
                    ),
                    panel(
                        (
                            format!("fig12b-{p}"),
                            "LOCO global on-chip data search delay under alternative NoCs",
                            "cycles",
                        ),
                        &xs,
                        &nocs,
                        |r, b| loco(b, r, params.cluster).avg_search_delay,
                    ),
                ]
            }
            FigureSpec::Fig13 { benchmarks } => vec![panel(
                (
                    format!("fig13-{p}"),
                    "LOCO runtime under alternative NoCs",
                    "runtime normalized to Shared Cache on SMART NoC",
                ),
                &bench(benchmarks),
                &nocs,
                |r, b| loco(b, r, params.cluster).runtime_normalized_to(at(b, Shared)),
            )],
            FigureSpec::Fig14 { benchmarks, shapes } => {
                let (xs, series) = (bench(benchmarks), by_shape(shapes));
                let sized = |s, b| loco(b, RouterKind::Smart, s);
                vec![
                    panel(
                        (
                            "fig14a".into(),
                            "L2 hit latency increase by cluster size",
                            "cycles over Private Cache",
                        ),
                        &xs,
                        &series,
                        |s, b| over_private(sized(s, b), b),
                    ),
                    panel(
                        (
                            "fig14b".into(),
                            "L2 misses per 1000 instructions by cluster size",
                            "MPKI",
                        ),
                        &xs,
                        &series,
                        |s, b| sized(s, b).l2_mpki,
                    ),
                    panel(
                        (
                            "fig14c".into(),
                            "Global search delay by cluster size",
                            "cycles",
                        ),
                        &xs,
                        &series,
                        |s, b| sized(s, b).avg_search_delay,
                    ),
                    panel(
                        (
                            "fig14d".into(),
                            "Normalized runtime by cluster size",
                            "runtime normalized to Shared Cache",
                        ),
                        &xs,
                        &series,
                        |s, b| sized(s, b).runtime_normalized_to(at(b, Shared)),
                    ),
                ]
            }
            FigureSpec::Fig15 { workloads } => {
                let xs: Vec<(String, usize)> =
                    workloads.iter().map(|&w| (format!("W{w}"), w)).collect();
                let series = [
                    (Shared.label().to_string(), Shared),
                    ("Clustered Cache".to_string(), LocoCc),
                    (LocoCcVmsIvr.label().to_string(), LocoCcVmsIvr),
                ];
                let run = |org, workload| get(&Scenario::MultiProgram { workload, org });
                vec![
                    panel(
                        (
                            "fig15a".into(),
                            "Multi-program workloads: normalized off-chip memory accesses",
                            "normalized to Shared Cache",
                        ),
                        &xs,
                        &series,
                        |o, w| run(o, w).offchip_normalized_to(run(Shared, w)),
                    ),
                    panel(
                        (
                            "fig15b".into(),
                            "Multi-program workloads: normalized runtime",
                            "normalized to Shared Cache",
                        ),
                        &xs,
                        &series,
                        |o, w| run(o, w).runtime_normalized_to(run(Shared, w)),
                    ),
                ]
            }
            FigureSpec::Fig16 { benchmarks } => {
                let xs = bench(benchmarks);
                let full = |org, b| trace(b, org, RouterKind::Smart, params.cluster, true);
                vec![
                    panel(
                        (
                            "fig16a".into(),
                            "Full system simulation: L2 misses per 1000 instructions",
                            "MPKI",
                        ),
                        &xs,
                        &[("Shared".into(), Shared), ("LOCO".into(), LocoCcVmsIvr)],
                        |o, b| full(o, b).l2_mpki,
                    ),
                    panel(
                        (
                            "fig16b".into(),
                            "Full system simulation: normalized runtime against Shared Cache",
                            "runtime normalized to Shared Cache",
                        ),
                        &xs,
                        &orgs(&[LocoCc, LocoCcVms, LocoCcVmsIvr]),
                        |o, b| full(o, b).runtime_normalized_to(full(Shared, b)),
                    ),
                ]
            }
            FigureSpec::Fig17Energy { benchmarks } => {
                let energy = EnergyParams::default();
                let breakdown = |b, org| energy.breakdown(at(b, org));
                // 17a: energy per instruction (nJ, so the magnitudes stay
                // readable).
                let epi = panel(
                    (
                        format!("fig17a-{p}"),
                        "Energy per instruction by cache organization",
                        "nJ / instruction",
                    ),
                    &bench(benchmarks),
                    &orgs(&ENERGY_ORGS),
                    |o, b| breakdown(b, o).epi_fj() / 1e6,
                );
                // 17b: the subsystem breakdown per organization, averaged
                // over the benchmarks (the stacked-bar view of 17a).
                let mut parts = Figure::new(
                    format!("fig17b-{p}"),
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
                vec![panel(
                    (
                        format!("fig18-{p}"),
                        "Energy-delay product of LOCO by cluster size",
                        "EDP normalized to Shared Cache",
                    ),
                    &bench(benchmarks),
                    &by_shape(shapes),
                    |s, b| {
                        let shared = energy.breakdown(at(b, Shared));
                        energy
                            .breakdown(loco(b, RouterKind::Smart, s))
                            .edp_normalized_to(&shared)
                    },
                )]
            }
            FigureSpec::Fig19Stall => {
                let stall = |kind, router| get(&Scenario::StallStress { kind, router });
                vec![panel(
                    (
                        "fig19".into(),
                        "Stall-heavy stress workloads under alternative NoCs",
                        "runtime normalized to SMART NoC",
                    ),
                    &StressKind::ALL.map(|k| (k.name().to_string(), k)),
                    &nocs,
                    |r, k| stall(k, r).runtime_normalized_to(stall(k, RouterKind::Smart)),
                )]
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
            assert!(
                (v - 1.0).abs() < 1e-12,
                "SMART must normalize to 1, got {v}"
            );
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
        let stress = |kind| {
            run_scenario(
                &params,
                Scenario::StallStress {
                    kind,
                    router: RouterKind::Smart,
                },
            )
        };
        let dram = stress(StressKind::DramBound);
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
        let barrier = stress(StressKind::BarrierPhased);
        assert!(barrier.completed);
        assert!(
            barrier.cache.instructions > 0 && barrier.runtime_cycles > 0,
            "barrier-phased run must make progress"
        );
    }

    /// Stepping a scenario's system by hand until every core finishes gives
    /// exactly the results of `run_scenario`, for each kind of scenario.
    #[test]
    fn stepping_a_scenario_system_matches_run_scenario() {
        let params = quick();
        for scenario in [
            Scenario::default_trace(&params, Benchmark::Lu, OrganizationKind::LocoCcVmsIvr),
            Scenario::MultiProgram {
                workload: 0,
                org: OrganizationKind::LocoCcVmsIvr,
            },
            Scenario::StallStress {
                kind: StressKind::BarrierPhased,
                router: RouterKind::Smart,
            },
        ] {
            let mut sys = scenario.system(&params);
            while !sys.all_finished() {
                sys.step();
            }
            assert_eq!(
                format!("{:?}", sys.results()),
                format!("{:?}", run_scenario(&params, scenario)),
                "{}",
                scenario.label()
            );
        }
    }

    /// Why a barrier-free full-system read may be read as its trace-mode
    /// twin: the two systems are the same machine.
    #[test]
    fn a_barrier_free_full_system_run_is_its_trace_twin() {
        let params = quick();
        assert_eq!(
            Benchmark::Lu
                .spec()
                .barriers_per_thread(params.mem_ops_per_core),
            0
        );
        let lu = |full_system| Scenario::Trace {
            benchmark: Benchmark::Lu,
            org: OrganizationKind::LocoCcVmsIvr,
            router: RouterKind::Smart,
            cluster: params.cluster,
            full_system,
        };
        assert_eq!(
            format!("{:?}", lu(true).system(&params).run(params.max_cycles)),
            format!("{:?}", lu(false).system(&params).run(params.max_cycles))
        );
    }

    /// A full-system read is read under its trace-mode twin's key only when
    /// its traces reach no barrier and the benchmark is one the trace
    /// figures read. lu's barrier interval is 4,000 memory ops,
    /// blackscholes' 50,000; fft is not in the trace-driven suite.
    #[test]
    fn full_system_reads_keep_their_key_unless_the_twin_is_read() {
        // Whether each benchmark's reads keep `full_system` at 200 and at
        // 4,000 mem-ops/core.
        let keeps = [
            (Benchmark::Lu, [false, true]),
            (Benchmark::Blackscholes, [false, false]),
            (Benchmark::Fft, [true, true]),
        ];
        let spec = FigureSpec::Fig16 {
            benchmarks: keeps.iter().map(|&(b, _)| b).collect(),
        };
        for (i, mem_ops) in [200, 4_000].into_iter().enumerate() {
            for s in spec.enumerate(&quick().with_mem_ops(mem_ops)) {
                let Scenario::Trace {
                    benchmark,
                    full_system,
                    ..
                } = s
                else {
                    panic!("fig16 reads only trace scenarios: {}", s.label())
                };
                let (_, keep) = keeps
                    .iter()
                    .find(|&&(b, _)| b == benchmark)
                    .expect("fig16 reads");
                assert_eq!(full_system, keep[i], "{} at {mem_ops} mem-ops", s.label());
            }
        }
    }

    // `Executor::try_new`'s rejection contract is covered by
    // `tests/campaign.rs::senseless_thread_counts_are_rejected_with_a_clear_error`
    // (through the public re-export the CLI actually uses).

    /// Every figure has a number and a title, and every panel is
    /// well-formed: a non-empty title, an id unique across the campaign and
    /// an `AVG` column (all but the fig17b breakdown). The title is its
    /// panels' titles joined with " / ".
    #[test]
    fn every_figure_has_an_id_number_and_title() {
        let params = quick();
        let specs = every_figure();
        // The id `reproduce --list-figures` prints is the number, zero-padded.
        let ids: Vec<String> = specs
            .iter()
            .map(|s| format!("fig{:02}", s.number()))
            .collect();
        let expected: Vec<String> = (6..=19).map(|n| format!("fig{n:02}")).collect();
        assert_eq!(ids, expected);
        let blank = SimResults::default();
        let mut panel_ids = FxHashSet::default();
        for spec in &specs {
            let panels = spec.build(&params, &|_| &blank);
            for f in &panels {
                assert!(!f.title.is_empty(), "{} has no title", f.id);
                assert!(
                    panel_ids.insert(f.id.clone()),
                    "panel id {} is not unique",
                    f.id
                );
                if !f.id.starts_with("fig17b") {
                    assert_eq!(
                        f.x_labels.last().map(String::as_str),
                        Some("AVG"),
                        "{}",
                        f.id
                    );
                }
            }
            let titles: Vec<&str> = panels.iter().map(|f| f.title.as_str()).collect();
            assert_eq!(spec.title(&params), titles.join(" / "));
        }
    }

    /// One spec of every figure, over small axes.
    fn every_figure() -> Vec<FigureSpec> {
        let b = || vec![Benchmark::Lu, Benchmark::Barnes];
        let shapes = || vec![ClusterShape::new(2, 1), ClusterShape::new(2, 2)];
        vec![
            FigureSpec::Fig06 { benchmarks: b() },
            FigureSpec::Fig07 { benchmarks: b() },
            FigureSpec::Fig08 { benchmarks: b() },
            FigureSpec::Fig09 { benchmarks: b() },
            FigureSpec::Fig10 { benchmarks: b() },
            FigureSpec::Fig11 { benchmarks: b() },
            FigureSpec::Fig12 { benchmarks: b() },
            FigureSpec::Fig13 { benchmarks: b() },
            FigureSpec::Fig14 {
                benchmarks: b(),
                shapes: shapes(),
            },
            FigureSpec::Fig15 {
                workloads: vec![0, 5],
            },
            FigureSpec::Fig16 {
                benchmarks: vec![Benchmark::Lu, Benchmark::Fft],
            },
            FigureSpec::Fig17Energy { benchmarks: b() },
            FigureSpec::Fig18Edp {
                benchmarks: b(),
                shapes: shapes(),
            },
            FigureSpec::Fig19Stall,
        ]
    }

    /// The plan is read off blank results; assembling real results must
    /// read exactly the same scenarios, or a figure's reads depend on its
    /// values and the plan could miss one.
    #[test]
    fn the_blank_results_plan_is_the_real_plan() {
        let params = ExperimentParams::quick().with_mem_ops(120);
        let mut campaign = CampaignPlan::new();
        let specs = every_figure();
        for spec in &specs {
            campaign.add_figure(spec, &params);
        }
        let results = Executor::new(2).execute(&params, &campaign);
        for spec in &specs {
            let read = Mutex::new(FxHashSet::default());
            spec.build(&params, &|s| {
                read.lock().expect("read lock").insert(*s);
                results.expect(s)
            });
            let planned: FxHashSet<Scenario> = spec.enumerate(&params).into_iter().collect();
            assert_eq!(
                read.into_inner().expect("read lock"),
                planned,
                "fig{:02}",
                spec.number()
            );
        }
    }
}
