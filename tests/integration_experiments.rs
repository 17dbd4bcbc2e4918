//! Integration tests of the experiment campaign: every figure produces
//! well-formed output at the quick scale, and the headline trends of the
//! paper hold.

use loco::campaign::{CampaignPlan, Executor, FigureSpec};
use loco::{Benchmark, ClusterShape, ExperimentParams, Figure};

const BENCHES: [Benchmark; 2] = [Benchmark::Lu, Benchmark::Barnes];

/// Plans the figures at the quick scale, executes the deduplicated plan and
/// assembles every figure, in spec order. Also returns the plan's size.
fn campaign(specs: &[FigureSpec]) -> (usize, Vec<Figure>) {
    let params = ExperimentParams::quick();
    let mut plan = CampaignPlan::new();
    for spec in specs {
        plan.add_figure(spec, &params);
    }
    let results = Executor::all_cores().execute(&params, &plan);
    let figs = specs
        .iter()
        .flat_map(|spec| spec.assemble(&params, &results))
        .collect();
    (plan.len(), figs)
}

fn figures(spec: FigureSpec) -> Vec<Figure> {
    campaign(&[spec]).1
}

fn figure(spec: FigureSpec) -> Figure {
    let mut figs = figures(spec);
    assert_eq!(figs.len(), 1);
    figs.remove(0)
}

fn assert_finite(fig: &Figure) {
    for s in &fig.series {
        assert_eq!(s.values.len(), fig.x_labels.len(), "{}", fig.id);
        for v in &s.values {
            assert!(v.is_finite() && *v >= 0.0, "{}: bad value {v}", fig.id);
        }
    }
}

#[test]
fn fig06_through_fig11_are_well_formed() {
    let benchmarks = BENCHES.to_vec();
    let (planned, figs) = campaign(&[
        FigureSpec::Fig06 {
            benchmarks: benchmarks.clone(),
        },
        FigureSpec::Fig07 {
            benchmarks: benchmarks.clone(),
        },
        FigureSpec::Fig08 {
            benchmarks: benchmarks.clone(),
        },
        FigureSpec::Fig09 {
            benchmarks: benchmarks.clone(),
        },
        FigureSpec::Fig10 {
            benchmarks: benchmarks.clone(),
        },
        FigureSpec::Fig11 { benchmarks },
    ]);
    assert_eq!(figs.len(), 6);
    for fig in &figs {
        assert_finite(fig);
        assert_eq!(*fig.x_labels.last().unwrap(), "AVG");
        assert!(!fig.to_text_table().is_empty());
    }
    // The plan deduplicates across figures: 5 organizations x 2 benchmarks.
    assert_eq!(planned, 10);
    // Figure 6 is one series over the benchmarks plus AVG.
    let fig06 = &figs[0];
    assert_eq!(fig06.series.len(), 1);
    assert_eq!(fig06.x_labels.len(), BENCHES.len() + 1);
    assert!(fig06.average_of("Private Cache").unwrap() > 0.0);
    // Figure 11 normalizes to the shared cache.
    let fig11 = &figs[5];
    assert_eq!(fig11.series.len(), 4);
    assert!((fig11.average_of("Shared Cache").unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn vms_broadcast_cuts_search_delay_versus_directory_indirection() {
    // Figure 9's headline: VMS reduces the on-chip search cost.
    let fig = figure(FigureSpec::Fig09 {
        benchmarks: vec![Benchmark::Barnes, Benchmark::Fft],
    });
    assert_eq!(fig.series.len(), 2);
    let cc = fig.average_of("LOCO CC").unwrap();
    let vms = fig.average_of("LOCO CC+VMS").unwrap();
    assert!(vms > 0.0, "VMS search delay must be positive");
    assert!(
        vms < cc,
        "VMS search delay {vms:.1} should undercut the directory's {cc:.1}"
    );
}

#[test]
fn loco_average_runtime_improves_on_shared() {
    // Figure 11's headline: LOCO (full) reduces run time on average. At the
    // 16-core quick scale the margin is small, so only a mild improvement is
    // required here; the paper-scale (64-core) claim is asserted in
    // `integration_system::loco_runtime_beats_the_shared_baseline_...`.
    let fig = figure(FigureSpec::Fig11 {
        benchmarks: vec![
            Benchmark::Lu,
            Benchmark::Blackscholes,
            Benchmark::WaterSpatial,
        ],
    });
    assert_eq!(fig.series.len(), 4);
    for s in &fig.series {
        for v in &s.values {
            assert!(*v > 0.0 && v.is_finite(), "{}: bad value {v}", s.label);
        }
    }
    let shared = fig.average_of("Shared Cache").unwrap();
    let loco = fig.average_of("LOCO CC+VMS+IVR").unwrap();
    assert!((shared - 1.0).abs() < 1e-9);
    assert!(
        loco < 1.05,
        "LOCO normalized runtime {loco:.3} should not regress the shared baseline"
    );
}

#[test]
fn noc_comparison_figures_rank_smart_first() {
    let lu = vec![Benchmark::Lu];
    let fig13 = figure(FigureSpec::Fig13 {
        benchmarks: lu.clone(),
    });
    let smart = fig13.average_of("LOCO + SMART NoC").unwrap();
    let conv = fig13.average_of("LOCO + Conventional NoC").unwrap();
    assert!(smart <= conv, "SMART {smart:.3} vs conventional {conv:.3}");
    // Figure 12a: L2 hit latency (12b, the search delay, comes second).
    let fig12 = figures(FigureSpec::Fig12 { benchmarks: lu }).remove(0);
    let smart_lat = fig12.average_of("LOCO + SMART NoC").unwrap();
    let hr_lat = fig12.average_of("LOCO + High-Radix Routers").unwrap();
    assert!(smart_lat <= hr_lat);
}

#[test]
fn cluster_size_figures_cover_all_shapes() {
    let shapes = vec![ClusterShape::new(2, 1), ClusterShape::new(2, 2)];
    let figs = figures(FigureSpec::Fig14 {
        benchmarks: vec![Benchmark::Lu],
        shapes,
    });
    assert_eq!(figs.len(), 4);
    for fig in &figs {
        assert_eq!(fig.series.len(), 2);
        assert_finite(fig);
    }
    // Smaller clusters -> lower hit latency (Figure 14a's trend).
    let small = figs[0].average_of("Cluster Size:2x1").unwrap();
    let large = figs[0].average_of("Cluster Size:2x2").unwrap();
    assert!(small <= large + 1.0, "2x1 {small:.2} vs 2x2 {large:.2}");
}

#[test]
fn fullsystem_figures_are_well_formed() {
    let figs = figures(FigureSpec::Fig16 {
        benchmarks: vec![Benchmark::Lu],
    });
    let (mpki, runtime) = (&figs[0], &figs[1]);
    assert_finite(mpki);
    assert_finite(runtime);
    assert_eq!(runtime.series.len(), 3);
}

#[test]
fn multiprogram_figure_reports_all_three_organizations() {
    // W1, and W0 truncated to the 16-core quick mesh.
    for workload in [1, 0] {
        let figs = figures(FigureSpec::Fig15 {
            workloads: vec![workload],
        });
        let (off, run) = (&figs[0], &figs[1]);
        assert_finite(off);
        assert_finite(run);
        let labels: Vec<&str> = off.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["Shared Cache", "Clustered Cache", "LOCO CC+VMS+IVR"]
        );
        assert_eq!(run.series.len(), 3);
        assert!(run.average_of("Shared Cache").unwrap() > 0.0, "W{workload}");
    }
}
