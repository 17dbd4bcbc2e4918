//! Scenario construction and the traced scenario pass shared by the
//! `campaign_paper64` and `stall16` workloads.
//!
//! The traced pass builds every scenario itself, so it can time trace
//! generation, system construction and the run separately and read the
//! scheduler's step counters. `generate` mirrors `loco::campaign::run_scenario`
//! and `stall_stress_system` through public API only; the fingerprint check
//! against the untraced run proves both paths simulate the same thing.

use crate::report::{percentile, Metrics};
use crate::trace::Tracer;
use crate::Oracle;
use loco::campaign::{FigureSpec, ResultSet, Scenario};
use loco::{
    ClusterShape, CmpSystem, CoreTrace, ExperimentParams, MultiProgramWorkload, OrganizationKind,
    RouterKind, SimResults, StressKind, SystemConfig, TraceGenerator,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One scenario's generated inputs, before the system is built.
pub struct Inputs {
    cfg: SystemConfig,
    traces: Vec<CoreTrace>,
    groups: Vec<usize>,
}

impl Inputs {
    pub fn mem_ops(&self) -> u64 {
        self.traces.iter().map(CoreTrace::memory_ops).sum()
    }

    pub fn build(self) -> CmpSystem {
        CmpSystem::with_groups(self.cfg, self.traces, self.groups)
    }
}

/// Divides the cache capacities by the working-set scale, as the campaign
/// does for every scenario (DESIGN.md §3).
fn scale_caches(cfg: &mut SystemConfig, params: &ExperimentParams) {
    let scale = params.working_set_scale.max(1);
    cfg.l1.size_bytes = (cfg.l1.size_bytes / scale).max(1024);
    cfg.l2.geometry.size_bytes = (cfg.l2.geometry.size_bytes / scale).max(2048);
}

fn system(
    params: &ExperimentParams,
    org: OrganizationKind,
    router: RouterKind,
    cluster: ClusterShape,
    full_system: bool,
) -> SystemConfig {
    let mut cfg = SystemConfig::asplos_64(org)
        .with_router(router)
        .with_cluster(cluster)
        .with_full_system(full_system);
    cfg.mesh_width = params.mesh_width;
    cfg.mesh_height = params.mesh_height;
    scale_caches(&mut cfg, params);
    cfg
}

/// Generates one scenario's traces and configuration.
pub fn generate(params: &ExperimentParams, scenario: Scenario) -> Inputs {
    match scenario {
        Scenario::Trace {
            benchmark,
            org,
            router,
            cluster,
            full_system,
        } => {
            let spec = benchmark
                .spec()
                .scaled_down(params.working_set_scale.max(1));
            let traces = TraceGenerator::new(params.seed)
                .with_barriers(full_system)
                .generate(&spec, params.num_cores(), params.mem_ops_per_core);
            let groups = vec![0; traces.len()];
            Inputs {
                cfg: system(params, org, router, cluster, full_system),
                traces,
                groups,
            }
        }
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
            let mut traces = workload.generate_traces_scaled(
                params.mem_ops_per_core,
                params.seed,
                params.working_set_scale.max(1),
            );
            let mut groups: Vec<usize> = workload
                .assign_cores()
                .iter()
                .flat_map(|a| a.cores.iter().map(move |_| a.task_id))
                .collect();
            traces.truncate(params.num_cores());
            groups.truncate(params.num_cores());
            Inputs {
                cfg: system(params, org, RouterKind::Smart, cluster, false),
                traces,
                groups,
            }
        }
        Scenario::StallStress { kind, router } => {
            let spec = kind.spec().scaled_down(params.working_set_scale.max(1));
            let full_system = kind.full_system();
            let mut cfg = SystemConfig::asplos_64(OrganizationKind::LocoCcVms)
                .with_router(router)
                .with_cluster(ClusterShape::new(2, 2))
                .with_full_system(full_system);
            cfg.mesh_width = 4;
            cfg.mesh_height = 4;
            scale_caches(&mut cfg, params);
            if kind == StressKind::DramBound {
                cfg.mem.latency = 800;
                cfg.mem.min_gap = 8;
            }
            let traces = TraceGenerator::new(params.seed)
                .with_barriers(full_system)
                .generate(&spec, cfg.num_cores(), params.mem_ops_per_core);
            let groups = vec![0; traces.len()];
            Inputs {
                cfg,
                traces,
                groups,
            }
        }
    }
}

/// What the traced pass learned about one scenario.
pub struct Record {
    pub scenario: Scenario,
    pub results: SimResults,
    pub steps: u64,
    pub cycles: u64,
    pub skipped_while_busy: u64,
    pub mem_ops: u64,
}

fn run_traced(params: &ExperimentParams, scenario: Scenario, op: usize, t: &mut Tracer) -> Record {
    t.span("scenario", &scenario.label(), op, |t| {
        let inputs = t.span("generate", "", op, |_| generate(params, scenario));
        let mem_ops = inputs.mem_ops();
        let mut sys = t.span("build", "", op, |_| inputs.build());
        let results = t.span("run", "", op, |_| sys.run(params.max_cycles));
        Record {
            scenario,
            results,
            steps: sys.steps_executed(),
            cycles: sys.cycle(),
            skipped_while_busy: sys.skipped_while_busy(),
            mem_ops,
        }
    })
}

/// Runs every scenario traced on `workers` threads (each worker records its
/// own spans), then assembles `specs` from the results in a span of its own.
/// Every result is checked by `oracle`. Returns the records in plan order
/// and the pass's wall time in seconds.
pub fn traced_pass(
    params: &ExperimentParams,
    scenarios: &[Scenario],
    specs: &[FigureSpec],
    workers: usize,
    tracer: &mut Tracer,
    oracle: &mut Oracle,
) -> (Vec<Record>, f64) {
    let start = Instant::now();
    let origin = tracer.origin();
    let records = tracer.span("pass", "", usize::MAX, |t| {
        let slots: Vec<Mutex<Option<Record>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let worker_tracers: Vec<Tracer> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.max(1))
                .map(|_| {
                    scope.spawn(|| {
                        let mut wt = Tracer::new(origin);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= scenarios.len() {
                                break wt;
                            }
                            let r = run_traced(params, scenarios[i], i, &mut wt);
                            *slots[i]
                                .lock()
                                .expect("slot lock poisoned by a panicking worker") = Some(r);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced worker panicked"))
                .collect()
        });
        for wt in worker_tracers {
            t.absorb(wt);
        }
        let records: Vec<Record> = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot lock poisoned by a panicking worker")
                    .expect("every scenario ran")
            })
            .collect();
        t.span("assemble", "", usize::MAX, |_| {
            let mut set = ResultSet::new();
            for r in &records {
                set.insert(r.scenario, Arc::new(r.results.clone()));
            }
            let figures: usize = specs.iter().map(|s| s.assemble(params, &set).len()).sum();
            std::hint::black_box(figures);
        });
        records
    });
    for r in &records {
        oracle.check(
            &r.scenario.label(),
            &crate::fingerprint(&r.results),
            r.results.completed,
        );
    }
    (records, start.elapsed().as_secs_f64())
}

/// Per-layer metrics of a traced scenario pass that took `pass_wall_s` on
/// `workers` threads.
pub fn layer_metrics(
    tracer: &Tracer,
    records: &[Record],
    pass_wall_s: f64,
    workers: usize,
    m: &mut Metrics,
) {
    let mut scenario_s = tracer.durations_secs("scenario");
    let serial_sum: f64 = scenario_s.iter().sum();
    scenario_s.sort_by(f64::total_cmp);
    m.push(
        "campaign.scenario_p50_s",
        percentile(&scenario_s, 0.50),
        "s",
    );
    m.push(
        "campaign.scenario_p90_s",
        percentile(&scenario_s, 0.90),
        "s",
    );
    m.push("campaign.scenario_max_s", percentile(&scenario_s, 1.0), "s");
    m.push("campaign.serial_sum_s", serial_sum, "s");
    m.push(
        "campaign.parallel_eff",
        serial_sum / (workers as f64 * pass_wall_s),
        "ratio",
    );
    m.push(
        "campaign.assemble_ms",
        tracer.self_secs("assemble") * 1e3,
        "ms",
    );

    let sum = |f: fn(&Record) -> u64| -> u64 { records.iter().map(f).sum() };
    m.push("workloads.trace_gen_s", tracer.self_secs("generate"), "s");
    m.push("workloads.mem_ops", sum(|r| r.mem_ops) as f64, "count");

    let run_s = tracer.self_secs("run");
    let steps = sum(|r| r.steps);
    let cycles = sum(|r| r.cycles);
    m.push("sim.build_s", tracer.self_secs("build"), "s");
    m.push("sim.run_s", run_s, "s");
    m.push("sim.steps", steps as f64, "count");
    m.push("sim.ns_per_step", run_s * 1e9 / steps.max(1) as f64, "ns");
    m.push("sim.cycles", cycles as f64, "count");
    m.push(
        "sim.skip_frac",
        1.0 - steps as f64 / cycles.max(1) as f64,
        "ratio",
    );
    m.push(
        "sim.skipped_while_busy",
        sum(|r| r.skipped_while_busy) as f64,
        "count",
    );
    m.push(
        "sim.kips",
        sum(|r| r.results.instructions) as f64 / run_s / 1e3,
        "kinstr/s",
    );

    let run_by_op: Vec<(usize, f64)> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "run")
        .map(|s| (s.op, s.dur_ns() as f64 * 1e-9))
        .collect();
    for kind in StressKind::ALL {
        let (mut secs, mut steps, mut cycles) = (0.0, 0u64, 0u64);
        for (i, r) in records.iter().enumerate() {
            if matches!(r.scenario, Scenario::StallStress { kind: k, .. } if k == kind) {
                secs += run_by_op
                    .iter()
                    .filter(|(op, _)| *op == i)
                    .map(|(_, s)| s)
                    .sum::<f64>();
                steps += r.steps;
                cycles += r.cycles;
            }
        }
        m.push(&format!("sim.{}.run_s", kind.name()), secs, "s");
        m.push(
            &format!("sim.{}.skip_frac", kind.name()),
            1.0 - steps as f64 / cycles.max(1) as f64,
            "ratio",
        );
    }

    m.push(
        "cache.l1_misses",
        sum(|r| r.results.cache.l1_misses) as f64,
        "count",
    );
    m.push(
        "cache.l2_misses",
        sum(|r| r.results.cache.l2_misses) as f64,
        "count",
    );
    m.push(
        "cache.offchip_accesses",
        sum(|r| r.results.offchip_accesses) as f64,
        "count",
    );
}

/// `noc.delivered_copies` and `noc.buffer_writes` summed over a pass's results.
pub fn noc_totals<'a>(results: impl Iterator<Item = &'a loco::NetworkStats>, m: &mut Metrics) {
    let (mut copies, mut writes) = (0u64, 0u64);
    for n in results {
        copies += n.delivered_copies;
        writes += n.fabric.buffer_writes;
    }
    m.push("noc.delivered_copies", copies as f64, "count");
    m.push("noc.buffer_writes", writes as f64, "count");
}
