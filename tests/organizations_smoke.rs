//! Smoke coverage of all five cache organizations: each one must run a
//! 4x4-mesh workload to completion (no deadlock), execute real memory
//! traffic, and advance its cycle count monotonically.

use loco::campaign::run_scenario;
use loco::{Benchmark, ExperimentParams, OrganizationKind, Scenario};

/// `benchmark` under `org` on a 4x4 mesh with 2x2 clusters and Table-1
/// cache capacities.
fn on_4x4(
    benchmark: Benchmark,
    org: OrganizationKind,
    mem_ops_per_core: u64,
    seed: u64,
) -> (ExperimentParams, Scenario) {
    let params = ExperimentParams {
        mem_ops_per_core,
        seed,
        working_set_scale: 1,
        ..ExperimentParams::quick()
    };
    (params, Scenario::default_trace(&params, benchmark, org))
}

const ALL_ORGANIZATIONS: [OrganizationKind; 5] = [
    OrganizationKind::Private,
    OrganizationKind::Shared,
    OrganizationKind::LocoCc,
    OrganizationKind::LocoCcVms,
    OrganizationKind::LocoCcVmsIvr,
];

#[test]
fn every_organization_runs_to_completion_on_a_4x4_mesh() {
    for org in ALL_ORGANIZATIONS {
        let (params, scenario) = on_4x4(Benchmark::Lu, org, 250, 1);

        // Drive the system step by step so the cycle counter itself is
        // under test, with a hard cap standing in for deadlock detection.
        let mut system = scenario.system(&params);
        let mut last_cycle = system.cycle();
        let mut steps = 0u64;
        while !system.all_finished() {
            system.step();
            assert!(
                system.cycle() > last_cycle,
                "{org:?}: cycle count must advance monotonically"
            );
            last_cycle = system.cycle();
            steps += 1;
            assert!(
                steps < 5_000_000,
                "{org:?}: did not finish within the step budget (deadlock?)"
            );
        }

        let results = system.results();
        assert!(results.completed, "{org:?}: run must complete");
        assert!(
            results.cache.l1_accesses > 0,
            "{org:?}: must execute memory operations"
        );
        assert!(
            results.runtime_cycles >= 1_000,
            "{org:?}: a few thousand cycles of real work expected, got {}",
            results.runtime_cycles
        );
        assert!(results.instructions > 0, "{org:?}");
        // `cycle()` advances one past the step in which the last core
        // finished; `runtime_cycles` records the finish time itself.
        assert!(
            results.runtime_cycles <= last_cycle && last_cycle - results.runtime_cycles <= 1,
            "{org:?}: reported runtime {} must track the stepped cycle count {last_cycle}",
            results.runtime_cycles
        );
    }
}

#[test]
fn organizations_differ_in_behavior_not_just_labels() {
    // The five organizations must actually behave differently: compare
    // off-chip traffic and runtime across them for one workload.
    let mut signatures = Vec::new();
    for org in ALL_ORGANIZATIONS {
        let (params, scenario) = on_4x4(Benchmark::Barnes, org, 400, 3);
        let r = run_scenario(&params, scenario);
        assert!(r.completed, "{org:?}");
        signatures.push((org, r.runtime_cycles, r.offchip_accesses));
    }
    let distinct: std::collections::HashSet<u64> =
        signatures.iter().map(|(_, cycles, _)| *cycles).collect();
    assert!(
        distinct.len() >= 3,
        "organizations should produce distinct runtimes: {signatures:?}"
    );
}
