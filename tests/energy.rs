//! The energy subsystem's contracts: the event-level [`EnergyBreakdown`] is
//! a pure integer fold over the simulation's counters, so it must be
//! (a) locked against accidental drift by a golden fingerprint,
//! (b) bit-identical between the event-driven scheduler and naive stepping,
//! (c) byte-identical across executor thread counts when assembled into the
//! campaign's energy figures (fig17/fig18), and
//! (d) reproduce the headline trend the model exists for: SMART spends far
//! less router-buffer energy than a conventional hop-by-hop NoC.

use loco::campaign::{run_scenario, CampaignPlan, Executor, FigureSpec};
use loco::{
    Benchmark, ClusterShape, EnergyBreakdown, EnergyParams, ExperimentParams, Figure,
    OrganizationKind, RouterKind, Scenario, SimResults,
};
use std::hash::BuildHasher;

// Mirrors tests/equivalence.rs: small mesh, enough memory ops to exercise
// broadcasts, IVR migrations and DRAM traffic, at Table-1 cache capacities.
fn params() -> ExperimentParams {
    ExperimentParams {
        mem_ops_per_core: 300,
        seed: 11,
        working_set_scale: 1,
        ..ExperimentParams::quick()
    }
}

fn barnes(org: OrganizationKind, router: RouterKind) -> Scenario {
    Scenario::Trace {
        benchmark: Benchmark::Barnes,
        org,
        router,
        cluster: ClusterShape::new(2, 2),
        full_system: false,
    }
}

fn run(org: OrganizationKind, router: RouterKind) -> SimResults {
    run_scenario(&params(), barnes(org, router))
}

fn breakdown(org: OrganizationKind) -> EnergyBreakdown {
    EnergyParams::default().breakdown(&run(org, RouterKind::Smart))
}

/// An order-sensitive 64-bit fingerprint of a breakdown (all-integer fields,
/// so this is exact).
fn fingerprint(b: &EnergyBreakdown) -> u64 {
    loco::FxBuildHasher::default().hash_one(format!("{b:?}"))
}

#[test]
fn golden_energy_fingerprint() {
    // Locked in when the energy subsystem landed. The breakdown is a pure
    // function of the seed, the default EnergyParams and the event
    // counters; if an intentional counter or cost change invalidates it,
    // update the constant and call the change out in the PR.
    let b = breakdown(OrganizationKind::LocoCcVmsIvr);
    assert!(b.instructions > 0 && b.runtime_cycles > 0);
    assert_eq!(
        fingerprint(&b),
        0x67e8_8553_93d8_984c,
        "fingerprint {:#x}",
        fingerprint(&b)
    );
}

#[test]
fn energy_is_identical_between_run_and_run_naive() {
    let energy = EnergyParams::default();
    for org in [OrganizationKind::Shared, OrganizationKind::LocoCcVmsIvr] {
        let system = || barnes(org, RouterKind::Smart).system(&params());
        let event = energy.breakdown(&system().run(8_000_000));
        let naive = energy.breakdown(&system().run_naive(8_000_000));
        // EnergyBreakdown is integer-only (`Eq`): this comparison is exact.
        assert_eq!(event, naive, "{org:?}: energy diverged across run modes");
        assert!(event.total_fj() > 0);
    }
}

#[test]
fn energy_figures_are_thread_count_invariant() {
    let params = ExperimentParams::quick().with_mem_ops(120);
    let specs = [
        FigureSpec::Fig17Energy {
            benchmarks: vec![Benchmark::Lu, Benchmark::Barnes],
        },
        FigureSpec::Fig18Edp {
            benchmarks: vec![Benchmark::Lu],
            shapes: vec![loco::ClusterShape::new(2, 2), loco::ClusterShape::new(4, 1)],
        },
    ];
    let mut plan = CampaignPlan::new();
    for spec in &specs {
        plan.add_figure(spec, &params);
    }
    let serial = Executor::new(1).execute(&params, &plan);
    let parallel = Executor::new(4).execute(&params, &plan);
    let energy = EnergyParams::default();
    for scenario in plan.scenarios() {
        assert_eq!(
            energy.breakdown(serial.expect(scenario)),
            energy.breakdown(parallel.expect(scenario)),
            "scenario {} energy diverged across worker counts",
            scenario.label()
        );
    }
    let assemble = |results: &loco::ResultSet| -> Vec<Figure> {
        specs
            .iter()
            .flat_map(|s| s.assemble(&params, results))
            .collect()
    };
    assert_eq!(assemble(&serial), assemble(&parallel));
}

#[test]
fn smart_spends_less_buffer_energy_than_conventional() {
    // The SSR diagnostics and the energy model must agree on SMART's whole
    // point: multi-hop bypass keeps flits out of router buffers. Same
    // traces, same organization, only the router changes.
    let energy = EnergyParams::default();
    let smart = run(OrganizationKind::LocoCcVms, RouterKind::Smart);
    let conv = run(OrganizationKind::LocoCcVms, RouterKind::Conventional);
    let smart_e = energy.network_energy(&smart.network);
    let conv_e = energy.network_energy(&conv.network);
    // On this small 4x4 mesh SMART-hops are short, so the gap is modest but
    // must be clearly there (the 8x8 paper mesh widens it).
    assert!(
        smart_e.buffer_fj < conv_e.buffer_fj * 4 / 5,
        "SMART buffers {} fJ vs conventional {} fJ",
        smart_e.buffer_fj,
        conv_e.buffer_fj
    );
    // SMART pays for it with SSR wire energy the conventional NoC does not
    // have; the bypass/stop split must show actual bypassing.
    assert!(smart_e.ssr_fj > 0);
    assert_eq!(conv_e.ssr_fj, 0);
    assert!(smart.network.fabric.bypass_hops > smart.network.fabric.premature_stops);
    assert_eq!(conv.network.fabric.bypass_hops, 0);
}

#[test]
fn overriding_energy_params_scales_the_breakdown() {
    let results = run(OrganizationKind::Shared, RouterKind::Smart);
    let base = EnergyParams::default().breakdown(&results);
    let mut doubled_dram = EnergyParams::default();
    doubled_dram.dram_access_fj *= 2;
    let b = doubled_dram.breakdown(&results);
    assert_eq!(b.dram_fj, base.dram_fj * 2);
    assert_eq!(b.network, base.network, "other components unaffected");
    assert_eq!(b.cache, base.cache);
}
