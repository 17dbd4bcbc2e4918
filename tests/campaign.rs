//! Integration tests of the campaign engine (plan / execute / assemble):
//! plans deduplicate across figures, the parallel executor is
//! thread-count-invariant, and a panicking scenario is named.

use loco::campaign::{CampaignPlan, Executor, FigureSpec, Scenario};
use loco::{Benchmark, ExperimentParams, Figure, OrganizationKind};

fn quick() -> ExperimentParams {
    // Shorter traces than ExperimentParams::quick(): this suite runs many
    // scenarios at several worker counts.
    ExperimentParams::quick().with_mem_ops(120)
}

const BENCHES: [Benchmark; 2] = [Benchmark::Lu, Benchmark::Barnes];

fn fig06() -> FigureSpec {
    FigureSpec::Fig06 {
        benchmarks: BENCHES.to_vec(),
    }
}

fn fig11() -> FigureSpec {
    FigureSpec::Fig11 {
        benchmarks: BENCHES.to_vec(),
    }
}

#[test]
fn composing_fig06_and_fig11_enumerates_each_scenario_once() {
    let params = quick();
    let mut plan = CampaignPlan::new();
    plan.add_figure(&fig06(), &params);
    plan.add_figure(&fig11(), &params);
    // fig06 needs {Private, Shared}, fig11 needs {Shared, LocoCc, LocoCcVms,
    // LocoCcVmsIvr}: the union is the 5 organizations, once per benchmark.
    assert_eq!(plan.len(), 5 * BENCHES.len());
    // No scenario appears twice in the plan order either.
    let mut seen = std::collections::HashSet::new();
    for s in plan.scenarios() {
        assert!(seen.insert(*s), "{} enumerated twice", s.label());
    }
    // Re-adding a figure is a no-op.
    plan.add_figure(&fig06(), &params);
    assert_eq!(plan.len(), 5 * BENCHES.len());
}

#[test]
fn one_thread_and_four_thread_executions_are_identical() {
    let params = quick();
    let specs = [
        fig06(),
        fig11(),
        FigureSpec::Fig15 {
            workloads: vec![0],
        },
    ];
    let mut plan = CampaignPlan::new();
    for spec in &specs {
        plan.add_figure(spec, &params);
    }
    let serial = Executor::new(1).execute(&params, &plan);
    let parallel = Executor::new(4).execute(&params, &plan);
    assert_eq!(serial.len(), plan.len());
    assert_eq!(parallel.len(), plan.len());
    // Identical ResultSets, scenario by scenario (SimResults has no Eq;
    // the Debug rendering covers every field bit-for-bit)...
    for scenario in plan.scenarios() {
        assert_eq!(
            format!("{:?}", serial.expect(scenario)),
            format!("{:?}", parallel.expect(scenario)),
            "scenario {} diverged across worker counts",
            scenario.label()
        );
    }
    // ...and identical assembled figures.
    let assemble = |results: &loco::ResultSet| -> Vec<Figure> {
        specs
            .iter()
            .flat_map(|s| s.assemble(&params, results))
            .collect()
    };
    assert_eq!(assemble(&serial), assemble(&parallel));
}

#[test]
fn senseless_thread_counts_are_rejected_with_a_clear_error() {
    // The `reproduce` CLI funnels `--threads` through `Executor::try_new`:
    // values that parse but make no sense (huge counts that would spawn
    // thousands of idle workers) must error loudly instead of degrading.
    use loco::campaign::{Executor as E, MAX_EXPLICIT_THREADS};
    assert_eq!(E::try_new(4).unwrap().threads(), 4);
    assert!(E::try_new(0).is_ok(), "0 = all cores is documented and valid");
    assert!(E::try_new(MAX_EXPLICIT_THREADS).is_ok());
    let err = E::try_new(1_000_000).unwrap_err();
    assert!(err.contains("1000000"), "error must name the value: {err}");
    assert!(
        err.contains(&MAX_EXPLICIT_THREADS.to_string()),
        "error must name the accepted range: {err}"
    );
}

#[test]
fn stall_stress_scenarios_ride_the_campaign_like_any_other() {
    // Figure 19's stress scenarios are ordinary plan/execute/assemble
    // citizens: deduplicated, thread-count-invariant, and composable with
    // the paper figures.
    let params = quick();
    let mut plan = CampaignPlan::new();
    plan.add_figure(&FigureSpec::Fig19Stall, &params);
    assert_eq!(plan.len(), 6, "2 stress kinds x 3 routers");
    plan.add_figure(&FigureSpec::Fig19Stall, &params);
    assert_eq!(plan.len(), 6, "re-adding must deduplicate");
    let serial = Executor::new(1).execute(&params, &plan);
    let parallel = Executor::new(4).execute(&params, &plan);
    for s in plan.scenarios() {
        assert_eq!(
            format!("{:?}", serial.expect(s)),
            format!("{:?}", parallel.expect(s)),
            "scenario {} diverged across worker counts",
            s.label()
        );
        assert!(s.label().starts_with("stress-"), "{}", s.label());
    }
    let figs = FigureSpec::Fig19Stall.assemble(&params, &serial);
    assert_eq!(
        figs,
        FigureSpec::Fig19Stall.assemble(&params, &parallel),
        "assembled stress figure diverged across worker counts"
    );
    assert_eq!(figs.len(), 1);
    assert_eq!(figs[0].series.len(), 3, "one series per router");
}

#[test]
fn executor_handles_plans_smaller_than_the_worker_count() {
    let params = quick();
    let mut plan = CampaignPlan::new();
    plan.add(Scenario::default_trace(
        &params,
        Benchmark::Lu,
        OrganizationKind::Shared,
    ));
    let results = Executor::new(8).execute(&params, &plan);
    assert_eq!(results.len(), 1);
    let empty = Executor::new(8).execute(&params, &CampaignPlan::new());
    assert!(empty.is_empty());
}

#[test]
fn a_panicking_scenario_is_named_by_its_label() {
    let params = quick();
    let mut plan = CampaignPlan::new();
    plan.add(Scenario::default_trace(
        &params,
        Benchmark::Lu,
        OrganizationKind::Shared,
    ));
    // Table 2 has workloads W0-W9, so W10 panics inside `run_scenario`.
    let bad = Scenario::MultiProgram {
        workload: 10,
        org: OrganizationKind::Shared,
    };
    plan.add(bad);
    for threads in [1, 2] {
        let payload = std::panic::catch_unwind(|| Executor::new(threads).execute(&params, &plan))
            .expect_err("the W10 scenario must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the executor re-panics with a formatted message");
        assert!(
            msg.contains(&bad.label()) && msg.contains("workload index"),
            "{threads} thread(s): {msg}"
        );
    }
}
