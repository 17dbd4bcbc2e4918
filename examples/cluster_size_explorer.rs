//! Cluster-size exploration (the scenario behind Figure 14), driven through
//! the campaign engine: the shape × benchmark sweep is *planned* as one
//! deduplicated scenario list, *executed* across every available core, and
//! the table is *assembled* from the completed result set — the same
//! plan/execute/assemble pipeline the `reproduce` CLI uses for the paper's
//! full evaluation.
//!
//! ```text
//! cargo run --release -p loco --example cluster_size_explorer
//! ```

use loco::campaign::{CampaignPlan, Executor, Scenario};
use loco::{Benchmark, ClusterShape, ExperimentParams, OrganizationKind, RouterKind};

fn main() {
    let shapes = [
        ClusterShape::new(4, 1),
        ClusterShape::new(8, 1),
        ClusterShape::new(4, 4),
    ];
    let benchmarks = [
        Benchmark::Swaptions,
        Benchmark::WaterSpatial,
        Benchmark::Radix,
    ];
    let params = ExperimentParams::paper_64().with_mem_ops(800);

    // Plan: one scenario per (benchmark, shape), deduplicated.
    let mut plan = CampaignPlan::new();
    for &benchmark in &benchmarks {
        for &cluster in &shapes {
            plan.add(Scenario::Trace {
                benchmark,
                org: OrganizationKind::LocoCcVmsIvr,
                router: RouterKind::Smart,
                cluster,
                full_system: false,
            });
        }
    }

    // Execute: every scenario in parallel, one private CmpSystem per worker.
    let executor = Executor::all_cores();
    println!(
        "LOCO cluster-size exploration — 64 cores, SMART NoC (HPCmax=4), {} scenarios on {} worker thread(s)\n",
        plan.len(),
        executor.threads()
    );
    let results = executor.execute(&params, &plan);

    // Assemble: read the completed result set in presentation order.
    println!(
        "{:<16} {:>10} {:>14} {:>10} {:>14}",
        "benchmark", "cluster", "hit lat (cyc)", "MPKI", "runtime (cyc)"
    );
    for &benchmark in &benchmarks {
        for &cluster in &shapes {
            let r = results.expect(&Scenario::Trace {
                benchmark,
                org: OrganizationKind::LocoCcVmsIvr,
                router: RouterKind::Smart,
                cluster,
                full_system: false,
            });
            assert!(r.completed);
            println!(
                "{:<16} {:>7}x{:<2} {:>14.2} {:>10.2} {:>14}",
                benchmark.name(),
                cluster.w,
                cluster.h,
                r.avg_l2_hit_latency,
                r.l2_mpki,
                r.runtime_cycles
            );
        }
        println!();
    }
    println!("Smaller clusters lower hit latency but raise the miss rate;");
    println!("the best choice depends on the benchmark (Figure 14 of the paper).");
}
