//! End-to-end integration tests on the paper's 64-core configuration
//! (shortened traces): the qualitative relationships between the cache
//! organizations that every figure of the paper relies on, and the
//! design-knob ablations of DESIGN §7.

use loco::{
    Benchmark, CmpSystem, OrganizationKind, RouterKind, SimResults, SimulationBuilder,
    SystemConfig, TraceGenerator,
};

fn run_64(benchmark: Benchmark, org: OrganizationKind, mem_ops: u64) -> loco::SimResults {
    let r = SimulationBuilder::new()
        .benchmark(benchmark)
        .organization(org)
        .memory_ops_per_core(mem_ops)
        .run();
    assert!(r.completed, "{org:?} on {benchmark:?} did not complete");
    r
}

#[test]
fn all_five_organizations_complete_on_the_64_core_cmp() {
    for org in [
        OrganizationKind::Private,
        OrganizationKind::Shared,
        OrganizationKind::LocoCc,
        OrganizationKind::LocoCcVms,
        OrganizationKind::LocoCcVmsIvr,
    ] {
        let r = run_64(Benchmark::Blackscholes, org, 200);
        assert!(r.runtime_cycles > 0);
        assert!(r.instructions >= 64 * 200);
        assert!(r.cache.l1_accesses >= 64 * 200);
    }
}

#[test]
fn loco_l2_hit_latency_sits_between_private_and_shared() {
    // Figure 7: private < LOCO << shared for L2 hit latency.
    let private = run_64(Benchmark::Lu, OrganizationKind::Private, 400);
    let loco = run_64(Benchmark::Lu, OrganizationKind::LocoCcVmsIvr, 400);
    let shared = run_64(Benchmark::Lu, OrganizationKind::Shared, 400);
    assert!(
        private.avg_l2_hit_latency < loco.avg_l2_hit_latency,
        "private {:.2} < loco {:.2}",
        private.avg_l2_hit_latency,
        loco.avg_l2_hit_latency
    );
    assert!(
        loco.avg_l2_hit_latency < shared.avg_l2_hit_latency,
        "loco {:.2} < shared {:.2}",
        loco.avg_l2_hit_latency,
        shared.avg_l2_hit_latency
    );
}

#[test]
fn loco_runtime_beats_the_shared_baseline_on_neighbor_benchmarks() {
    // Figure 11: LOCO reduces run time relative to the shared cache.
    let shared = run_64(Benchmark::Lu, OrganizationKind::Shared, 400);
    let loco = run_64(Benchmark::Lu, OrganizationKind::LocoCcVmsIvr, 400);
    assert!(
        loco.runtime_cycles < shared.runtime_cycles,
        "LOCO {} should beat shared {}",
        loco.runtime_cycles,
        shared.runtime_cycles
    );
}

#[test]
fn vms_broadcasts_and_remote_hits_occur_on_shared_data() {
    let loco = run_64(Benchmark::Barnes, OrganizationKind::LocoCcVms, 400);
    assert!(loco.cache.broadcasts > 0);
    assert!(loco.cache.remote_hits > 0);
    assert!(loco.avg_search_delay > 0.0);
}

#[test]
fn smart_noc_outperforms_conventional_noc_for_loco() {
    // Figure 13: LOCO + SMART vs LOCO + conventional NoC.
    let smart = SimulationBuilder::new()
        .benchmark(Benchmark::Barnes)
        .organization(OrganizationKind::LocoCcVmsIvr)
        .router(RouterKind::Smart)
        .memory_ops_per_core(300)
        .run();
    let conv = SimulationBuilder::new()
        .benchmark(Benchmark::Barnes)
        .organization(OrganizationKind::LocoCcVmsIvr)
        .router(RouterKind::Conventional)
        .memory_ops_per_core(300)
        .run();
    assert!(smart.completed && conv.completed);
    assert!(smart.avg_l2_hit_latency < conv.avg_l2_hit_latency);
    assert!(smart.runtime_cycles < conv.runtime_cycles);
}

#[test]
fn high_radix_routers_hurt_l2_hit_latency() {
    // Figure 12a: the 4-stage high-radix pipeline raises intra-cluster hit
    // latency above SMART's.
    let smart = SimulationBuilder::new()
        .benchmark(Benchmark::Lu)
        .router(RouterKind::Smart)
        .memory_ops_per_core(300)
        .run();
    let hr = SimulationBuilder::new()
        .benchmark(Benchmark::Lu)
        .router(RouterKind::HighRadix)
        .memory_ops_per_core(300)
        .run();
    assert!(smart.avg_l2_hit_latency < hr.avg_l2_hit_latency);
}

#[test]
fn the_256_core_configuration_runs() {
    let r = SimulationBuilder::new()
        .mesh(16, 16)
        .benchmark(Benchmark::Blackscholes)
        .memory_ops_per_core(60)
        .run();
    assert!(r.completed);
    assert!(r.instructions >= 256 * 60);
}

/// One ablation run: 150 Radix mem-ops per core at seed 42 under full LOCO
/// (CC+VMS+IVR), on a configuration the caller has already adjusted.
fn ablation_run(cfg: SystemConfig) -> SimResults {
    let traces = TraceGenerator::new(42).generate(&Benchmark::Radix.spec(), cfg.num_cores(), 150);
    let r = CmpSystem::new(cfg, traces).run(10_000_000);
    assert!(r.completed);
    r
}

fn loco_config(mesh: u16, cluster: u16) -> SimulationBuilder {
    SimulationBuilder::new()
        .mesh(mesh, mesh)
        .cluster(cluster, cluster)
        .organization(OrganizationKind::LocoCcVmsIvr)
}

/// The design knobs the paper fixes (DESIGN §7), swept below the campaign's
/// `Scenario` axes on simulated cycles. Only what holds at this scale is
/// asserted: runtime is not monotone in HPCmax (2 beats 4 by 9 cycles
/// here), and the IVR threshold never binds.
#[test]
fn design_knob_ablations_on_simulated_cycles() {
    // HPCmax on a 4x4 mesh with 2x2 clusters: one hop per cycle is the
    // slowest, and no XY path has more than 3 hops per dimension, so 4 and
    // 8 cover every path alike and are bit-identical.
    let hpc = |hpc_max: u16| {
        let mut cfg = loco_config(4, 2).system_config();
        cfg.hpc_max = hpc_max;
        ablation_run(cfg)
    };
    let by_hpc: Vec<SimResults> = [1, 2, 4, 8].into_iter().map(hpc).collect();
    for r in &by_hpc[1..] {
        assert!(
            by_hpc[0].runtime_cycles > r.runtime_cycles,
            "HPCmax 1 ({}) must be the slowest ({})",
            by_hpc[0].runtime_cycles,
            r.runtime_cycles
        );
    }
    assert_eq!(format!("{:?}", by_hpc[2]), format!("{:?}", by_hpc[3]));

    // IVR threshold on the same system. A first eviction migrates under
    // any threshold >= 1; the threshold only cuts chains that go on past
    // their first hop (a denied, re-steered migrant or an older victim it
    // displaced). This run migrates no line at all (`ivr_migrations` is 0)
    // and denies none, so every threshold gives the same run: the knob's
    // sensitivity cannot be seen at this scale.
    let ivr = |threshold: u8| {
        let mut cfg = loco_config(4, 2).system_config();
        cfg.l2.ivr_threshold = threshold;
        ablation_run(cfg)
    };
    let baseline = &by_hpc[2];
    assert_eq!(baseline.cache.ivr_denied, 0);
    for threshold in [1, 2, 8] {
        assert_eq!(format!("{:?}", ivr(threshold)), format!("{baseline:?}"), "threshold {threshold}");
    }

    // SMART vs conventional on the 8x8 mesh: SMART's advantage never
    // shrinks as clusters grow from 2x2 to 4x4 to 8x8.
    let gap = |cluster: u16| {
        let run = |router| ablation_run(loco_config(8, cluster).router(router).system_config());
        let conv = run(RouterKind::Conventional);
        conv.runtime_normalized_to(&run(RouterKind::Smart))
    };
    let gaps: Vec<f64> = [2, 4, 8].into_iter().map(gap).collect();
    assert!(gaps[0] > 1.0, "SMART must beat conventional: {gaps:?}");
    assert!(gaps.windows(2).all(|w| w[0] <= w[1]), "conv/SMART by cluster: {gaps:?}");
}
