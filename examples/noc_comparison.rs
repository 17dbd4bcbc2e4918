//! NoC comparison (the scenario behind Figures 12 and 13): the same LOCO
//! cache organization is run over the SMART NoC, a conventional
//! 2-cycle-per-hop NoC and high-radix (Flattened-Butterfly-like) routers,
//! showing that LOCO's performance is hinged on SMART's single-cycle
//! multi-hop traversals.
//!
//! ```text
//! cargo run --release -p loco --example noc_comparison
//! ```

use loco::campaign::run_scenario;
use loco::{Benchmark, ExperimentParams, OrganizationKind, RouterKind, Scenario};

fn main() {
    let routers = [
        RouterKind::Smart,
        RouterKind::Conventional,
        RouterKind::HighRadix,
    ];
    let benchmark = Benchmark::Barnes;
    // The 64-core CMP of Table 1 at its unscaled cache capacities.
    let params = ExperimentParams {
        working_set_scale: 1,
        ..ExperimentParams::paper_64().with_mem_ops(800)
    };
    println!(
        "LOCO (CC+VMS+IVR) under three NoCs — {}, 64 cores\n",
        benchmark.name()
    );
    println!(
        "{:<22} {:>14} {:>16} {:>14}",
        "NoC", "hit lat (cyc)", "search delay", "runtime (cyc)"
    );
    let mut smart_runtime = None;
    for router in routers {
        let scenario = Scenario::Trace {
            benchmark,
            org: OrganizationKind::LocoCcVmsIvr,
            router,
            cluster: params.cluster,
            full_system: false,
        };
        let r = run_scenario(&params, scenario);
        assert!(r.completed);
        println!(
            "{:<22} {:>14.2} {:>16.2} {:>14}",
            router.label(),
            r.avg_l2_hit_latency,
            r.avg_search_delay,
            r.runtime_cycles
        );
        if router == RouterKind::Smart {
            smart_runtime = Some(r.runtime_cycles);
        } else if let Some(s) = smart_runtime {
            println!(
                "{:<22} {:>14} {:>16} {:>13.1}%",
                "  vs SMART",
                "",
                "",
                100.0 * (r.runtime_cycles as f64 / s as f64 - 1.0)
            );
        }
    }
    println!("\nWithout SMART's virtual single-cycle multi-hop paths, every hop");
    println!("(conventional) or every stop (high-radix 4-stage pipeline) adds");
    println!("latency to intra-cluster hits and VMS broadcasts alike.");
}
