//! Multi-program consolidation (the scenario behind Figure 15): several
//! independent tasks are packed onto one 64-core CMP, one cluster per task
//! instance; LOCO's inter-cluster victim replacement lets cache-hungry tasks
//! spill into underutilized clusters.
//!
//! ```text
//! cargo run --release -p loco --example multiprogram_consolidation
//! ```

use loco::campaign::run_scenario;
use loco::{ExperimentParams, MultiProgramWorkload, OrganizationKind, Scenario, SimResults};

/// Table-2 workload `workload` under `org`: 600 memory ops per thread at the
/// Table-1 cache capacities. The cluster shape matches the per-task thread
/// count (4x1, 8x1 or 4x4), so every task instance gets its own cluster.
fn run(workload: usize, org: OrganizationKind) -> SimResults {
    let params = ExperimentParams {
        working_set_scale: 1,
        ..ExperimentParams::paper_64().with_mem_ops(600)
    };
    let r = run_scenario(&params, Scenario::MultiProgram { workload, org });
    assert!(r.completed, "W{workload} under {org:?} did not finish");
    r
}

fn main() {
    println!("Multi-program consolidation on a 64-core CMP (Table 2 workloads)\n");
    println!(
        "{:<5} {:>22} {:>22} {:>22}",
        "", "Shared Cache", "Clustered (LOCO CC)", "LOCO CC+VMS+IVR"
    );
    println!(
        "{:<5} {:>11}{:>11} {:>11}{:>11} {:>11}{:>11}",
        "wl", "runtime", "off-chip", "runtime", "off-chip", "runtime", "off-chip"
    );
    for idx in [0usize, 5, 9] {
        let shared = run(idx, OrganizationKind::Shared);
        let clustered = run(idx, OrganizationKind::LocoCc);
        let loco = run(idx, OrganizationKind::LocoCcVmsIvr);
        println!(
            "{:<5} {:>11}{:>11} {:>11}{:>11} {:>11}{:>11}",
            MultiProgramWorkload::table2_entry(idx).name(),
            shared.runtime_cycles,
            shared.offchip_accesses,
            clustered.runtime_cycles,
            clustered.offchip_accesses,
            loco.runtime_cycles,
            loco.offchip_accesses
        );
    }
    println!("\nLOCO keeps each task's hits inside its own cluster while IVR");
    println!("spills victims into other clusters, cutting off-chip accesses");
    println!("compared to the plain clustered cache (Figure 15 of the paper).");
}
