//! The event-driven scheduler's contract: `CmpSystem::run` (cycle skipping)
//! must produce results bit-identical to `CmpSystem::run_naive` (one `step`
//! per cycle) on every organization, every router micro-architecture, and
//! the synchronization-heavy full-system mode. A skipped cycle is only legal
//! if the naive step at that cycle would have been a no-op; this suite is
//! the oracle for that claim (see the `loco_sim::system` module docs for the
//! per-component invariants).

use loco::{
    Benchmark, ClusterShape, CmpSystem, EnergyParams, ExperimentParams, OrganizationKind,
    RouterKind, Scenario, SimResults, SplitMix64, StressKind, SystemConfig, TraceGenerator,
};

const ALL_ORGS: [OrganizationKind; 5] = [
    OrganizationKind::Private,
    OrganizationKind::Shared,
    OrganizationKind::LocoCc,
    OrganizationKind::LocoCcVms,
    OrganizationKind::LocoCcVmsIvr,
];

/// A small mesh keeps the naive runs fast; 300 memory ops per core is
/// enough to exercise misses, broadcasts, IVR migrations and retries.
/// Caches are at their Table-1 capacities.
fn params(seed: u64, mem_ops_per_core: u64) -> ExperimentParams {
    ExperimentParams {
        mem_ops_per_core,
        seed,
        working_set_scale: 1,
        ..ExperimentParams::quick()
    }
}

/// Barnes, 300 memory ops per core at seed 11.
fn barnes(org: OrganizationKind, router: RouterKind) -> CmpSystem {
    Scenario::Trace {
        benchmark: Benchmark::Barnes,
        org,
        router,
        cluster: ClusterShape::new(2, 2),
        full_system: false,
    }
    .system(&params(11, 300))
}

/// Bit-exact comparison of the full counter set, not just the latency
/// results: the structured asserts pin the cache event counters (array
/// reads/writes, tag probes, directory lookups, IVR, DRAM), the network
/// delivery stats including the fabric event counters (buffer, crossbar,
/// link, SSR events), and the integer energy breakdown derived from them.
/// The Debug rendering then covers every remaining field (float averages,
/// runtime, completion flags).
fn assert_identical(label: &str, event: &SimResults, naive: &SimResults) {
    assert_eq!(
        event.cache, naive.cache,
        "{label}: cache event counters diverged"
    );
    assert_eq!(
        event.network, naive.network,
        "{label}: network stats / fabric event counters diverged"
    );
    let params = EnergyParams::default();
    assert_eq!(
        params.breakdown(event),
        params.breakdown(naive),
        "{label}: energy breakdown diverged"
    );
    assert_eq!(
        format!("{event:?}"),
        format!("{naive:?}"),
        "{label}: event-driven results diverged from naive stepping"
    );
}

#[test]
fn every_organization_is_equivalent_under_cycle_skipping() {
    for org in ALL_ORGS {
        let event = barnes(org, RouterKind::Smart).run(8_000_000);
        let naive = barnes(org, RouterKind::Smart).run_naive(8_000_000);
        assert!(event.completed, "{org:?} must complete");
        assert_identical(&format!("{org:?}"), &event, &naive);
    }
}

#[test]
fn every_router_kind_is_equivalent_under_cycle_skipping() {
    for router in [
        RouterKind::Smart,
        RouterKind::Conventional,
        RouterKind::HighRadix,
    ] {
        let event = barnes(OrganizationKind::LocoCcVms, router).run(8_000_000);
        let naive = barnes(OrganizationKind::LocoCcVms, router).run_naive(8_000_000);
        assert!(event.completed, "{router:?} must complete");
        assert_identical(&format!("{router:?}"), &event, &naive);
    }
}

#[test]
fn full_system_barrier_mode_is_equivalent_under_cycle_skipping() {
    // Barriers are the subtlest case: a waiting core's arrival registration
    // must happen on exactly the same cycle in both modes, and a core parked
    // at an announced barrier must be skippable without losing the release.
    let scenario = Scenario::Trace {
        benchmark: Benchmark::Fft,
        org: OrganizationKind::LocoCcVms,
        router: RouterKind::Smart,
        cluster: ClusterShape::new(2, 2),
        full_system: true,
    };
    let event = scenario.system(&params(23, 250)).run(8_000_000);
    let naive = scenario.system(&params(23, 250)).run_naive(8_000_000);
    assert!(event.completed, "barrier workload must not deadlock");
    assert_identical("full-system barriers", &event, &naive);
}

#[test]
fn multiprogram_barrier_groups_are_equivalent_under_cycle_skipping() {
    // Distinct barrier groups (multi-program consolidation) exercise the
    // per-group arrival bookkeeping.
    let mut cfg = SystemConfig::asplos_64(OrganizationKind::LocoCcVmsIvr);
    cfg.mesh_width = 4;
    cfg.mesh_height = 4;
    cfg.cluster = ClusterShape::new(2, 2);
    cfg.full_system = true;
    let spec = Benchmark::Lu.spec();
    let traces = TraceGenerator::new(5)
        .with_barriers(true)
        .generate(&spec, 16, 200);
    let groups: Vec<usize> = (0..16).map(|i| i / 8).collect();
    let event = CmpSystem::with_groups(cfg, traces.clone(), groups.clone()).run(8_000_000);
    let naive = CmpSystem::with_groups(cfg, traces, groups).run_naive(8_000_000);
    assert!(event.completed);
    assert_identical("multi-program groups", &event, &naive);
}

#[test]
fn cycle_skipping_actually_skips_dead_cycles() {
    // Guard against the scheduler silently degenerating into the naive loop:
    // on a memory-bound run the event-driven mode must fast-forward at least
    // some DRAM dead time.
    let mut event = barnes(OrganizationKind::Shared, RouterKind::Smart);
    event.run(8_000_000);
    assert!(
        event.steps_executed() < event.cycle(),
        "no cycles were skipped ({} steps over {} cycles)",
        event.steps_executed(),
        event.cycle()
    );
    let mut naive = barnes(OrganizationKind::Shared, RouterKind::Smart);
    naive.run_naive(8_000_000);
    assert_eq!(
        naive.steps_executed(),
        naive.cycle(),
        "naive stepping must step every cycle"
    );
}

#[test]
fn truncated_runs_stop_on_the_same_cycle() {
    // A cycle budget that expires mid-flight must leave both modes in the
    // same observable state (runtime clamped to the budget, partial stats
    // identical).
    let event = barnes(OrganizationKind::LocoCcVmsIvr, RouterKind::Smart).run(900);
    let naive = barnes(OrganizationKind::LocoCcVmsIvr, RouterKind::Smart).run_naive(900);
    assert!(!event.completed, "budget chosen to interrupt the run");
    assert_eq!(event.runtime_cycles, 900);
    assert_identical("truncated run", &event, &naive);
}

// ---------------------------------------------------------------------------
// Stall-heavy stress systems: the workloads the fine-grained horizon is for.
// ---------------------------------------------------------------------------

/// The exact Figure-19 campaign configuration (small 4x4 mesh, CC+VMS,
/// stretched DRAM latency for the DRAM-bound kind), as a raw [`CmpSystem`]
/// so tests can read the scheduler's skip diagnostics.
fn stress_system(kind: StressKind, router: RouterKind, mem_ops: u64) -> CmpSystem {
    Scenario::StallStress { kind, router }.system(&ExperimentParams::quick().with_mem_ops(mem_ops))
}

#[test]
fn stall_stress_scenarios_are_equivalent_under_cycle_skipping() {
    // The barrier-phased and DRAM-bound stress workloads under every router:
    // these spend most of their run time in globally-quiet phases with
    // stragglers still inside the fabric — exactly the cycles the
    // fine-grained horizon newly skips, so they get their own equivalence
    // coverage in addition to the randomized sweep.
    for kind in StressKind::ALL {
        for router in [
            RouterKind::Smart,
            RouterKind::Conventional,
            RouterKind::HighRadix,
        ] {
            let event = stress_system(kind, router, 150).run(20_000_000);
            let naive = stress_system(kind, router, 150).run_naive(20_000_000);
            assert!(event.completed, "{kind:?}/{router:?} must complete");
            assert_identical(&format!("{kind:?}/{router:?}"), &event, &naive);
        }
    }
}

#[test]
fn horizon_skips_while_packets_are_in_flight() {
    // The regression trap for the fine-grained horizon: `skipped_while_busy`
    // counts cycles skipped while the NoC still held packets — skips the
    // pre-PR-5 drain-only probe could never take (it pinned the horizon to
    // "next cycle" whenever `Network::is_busy()`). If a future change quietly
    // degenerates the probe back to drain-only, this count drops to zero and
    // the assertion fails loudly.
    for kind in StressKind::ALL {
        for router in [
            RouterKind::Smart,
            RouterKind::Conventional,
            RouterKind::HighRadix,
        ] {
            let mut sys = stress_system(kind, router, 150);
            let r = sys.run(20_000_000);
            assert!(r.completed, "{kind:?}/{router:?} must complete");
            assert!(
                sys.steps_executed() < sys.cycle(),
                "{kind:?}/{router:?}: no cycles were skipped at all"
            );
            assert!(
                sys.skipped_while_busy() > 0,
                "{kind:?}/{router:?}: every skip waited for a full NoC drain — \
                 the horizon has degenerated to the old all-or-nothing probe \
                 ({} steps over {} cycles)",
                sys.steps_executed(),
                sys.cycle()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded randomized stress: hundreds of short configurations, every knob.
// ---------------------------------------------------------------------------

fn stress_env(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        // A set-but-unparseable value must fail loudly, not silently weaken
        // the pinned CI gate back to the default.
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v} is not a valid u64")),
        Err(_) => default,
    }
}

/// One randomly drawn configuration, kept printable so a failure names
/// everything needed to reproduce and minimize it.
struct RandomConfig {
    label: String,
    cfg: SystemConfig,
    traces: Vec<loco::CoreTrace>,
    groups: Vec<usize>,
    budget: u64,
}

fn random_config(rng: &mut SplitMix64) -> RandomConfig {
    const ORGS: [OrganizationKind; 5] = [
        OrganizationKind::Private,
        OrganizationKind::Shared,
        OrganizationKind::LocoCc,
        OrganizationKind::LocoCcVms,
        OrganizationKind::LocoCcVmsIvr,
    ];
    const ROUTERS: [RouterKind; 3] = [
        RouterKind::Smart,
        RouterKind::Conventional,
        RouterKind::HighRadix,
    ];
    // Meshes and cluster shapes that tile them (cluster tiles must be a
    // power of two). Small systems keep the naive reference runs fast.
    const MESHES: [(u16, u16); 3] = [(2, 2), (4, 2), (4, 4)];
    let (mw, mh) = MESHES[rng.index(MESHES.len())];
    let clusters: &[(u16, u16)] = match (mw, mh) {
        (2, 2) => &[(2, 1), (1, 2), (2, 2)],
        (4, 2) => &[(2, 1), (2, 2), (4, 2)],
        _ => &[(2, 1), (2, 2), (4, 2), (4, 4)],
    };
    let (cw, ch) = clusters[rng.index(clusters.len())];
    let org = ORGS[rng.index(ORGS.len())];
    let router = ROUTERS[rng.index(ROUTERS.len())];
    // Workload: one of the paper benchmarks or a stall-heavy stress spec.
    let spec = match rng.index(6) {
        0 => Benchmark::Barnes.spec(),
        1 => Benchmark::Fft.spec(),
        2 => Benchmark::Radix.spec(),
        3 => Benchmark::Blackscholes.spec(),
        4 => StressKind::BarrierPhased.spec(),
        _ => StressKind::DramBound.spec(),
    }
    .scaled_down(8);
    let full_system = rng.gen_bool(0.5);
    let mem_ops = 20 + rng.next_below(80);
    let seed = rng.next_u64();
    // Memory timing: from fast to brutally DRAM-bound (long stalls are the
    // phases the horizon rewrite targets).
    let latency = [60u64, 200, 800][rng.index(3)];
    let min_gap = [0u64, 4, 12][rng.index(3)];
    // Occasionally shrink the L2 to force capacity pressure and IVR.
    let shrink_l2 = rng.gen_bool(0.3);
    // Mostly run to completion; sometimes truncate mid-flight.
    let budget = if rng.gen_bool(0.25) {
        400 + rng.next_below(2600)
    } else {
        8_000_000
    };

    let mut cfg = SystemConfig::asplos_64(org)
        .with_router(router)
        .with_cluster(ClusterShape::new(cw, ch))
        .with_full_system(full_system);
    cfg.mesh_width = mw;
    cfg.mesh_height = mh;
    cfg.l1.size_bytes = (cfg.l1.size_bytes / 8).max(1024);
    cfg.l2.geometry.size_bytes = if shrink_l2 {
        4 * 1024
    } else {
        (cfg.l2.geometry.size_bytes / 8).max(2048)
    };
    cfg.mem.latency = latency;
    cfg.mem.min_gap = min_gap;

    let cores = cfg.num_cores();
    let traces = TraceGenerator::new(seed)
        .with_barriers(full_system)
        .generate(&spec, cores, mem_ops);
    // Occasionally split the cores into two barrier groups (multi-program).
    let groups: Vec<usize> = if rng.gen_bool(0.25) {
        (0..cores).map(|i| i / cores.div_ceil(2).max(1)).collect()
    } else {
        vec![0; cores]
    };
    let label = format!(
        "{mw}x{mh}/cluster{cw}x{ch}/{org:?}/{router:?}/{:?}/fs={full_system}/mem_ops={mem_ops}/\
         lat={latency}/gap={min_gap}/shrink_l2={shrink_l2}/budget={budget}/trace_seed={seed}",
        spec.benchmark
    );
    RandomConfig {
        label,
        cfg,
        traces,
        groups,
        budget,
    }
}

/// The oracle that makes the horizon refactor safe: `run` vs `run_naive`
/// across hundreds of short random configurations sweeping every axis
/// (organization, router, mesh/cluster shape, barrier mode, DRAM timing,
/// capacity pressure, truncated budgets, multi-program groups). Seed and
/// count are overridable for CI pinning and local soak runs:
/// `LOCO_STRESS_SEED` (default 0x20260728), `LOCO_STRESS_CONFIGS`
/// (default 200).
#[test]
fn randomized_short_configs_are_equivalent_under_cycle_skipping() {
    let seed = stress_env("LOCO_STRESS_SEED", 0x2026_0728);
    let configs = stress_env("LOCO_STRESS_CONFIGS", 200);
    let mut rng = SplitMix64::new(seed);
    let mut completed = 0u64;
    let mut skipped_busy = 0u64;
    for i in 0..configs {
        let rc = random_config(&mut rng);
        let mut event_sys = CmpSystem::with_groups(rc.cfg, rc.traces.clone(), rc.groups.clone());
        let event = event_sys.run(rc.budget);
        let naive = CmpSystem::with_groups(rc.cfg, rc.traces, rc.groups).run_naive(rc.budget);
        assert_identical(
            &format!("stress[{i}] seed={seed:#x} {}", rc.label),
            &event,
            &naive,
        );
        completed += u64::from(event.completed);
        skipped_busy += u64::from(event_sys.skipped_while_busy() > 0);
    }
    // Sanity on the sweep itself: most configs complete, and a healthy share
    // exercised the partial-occupancy skip path (not just full drains).
    assert!(
        completed * 2 > configs,
        "only {completed}/{configs} configs completed — the sweep is degenerate"
    );
    assert!(
        skipped_busy * 4 > configs,
        "only {skipped_busy}/{configs} configs skipped with packets in flight — \
         the randomized sweep no longer exercises the fine-grained horizon"
    );
}
