//! Quickstart: run one benchmark model on the paper's 64-core LOCO
//! configuration and print the headline statistics.
//!
//! ```text
//! cargo run --release -p loco --example quickstart
//! ```

use loco::campaign::run_scenario;
use loco::{Benchmark, EnergyParams, ExperimentParams, OrganizationKind, Scenario};

fn main() {
    // The 64-core CMP of Table 1 at its unscaled cache capacities, with
    // 1,000 memory operations per core.
    let params = ExperimentParams {
        working_set_scale: 1,
        ..ExperimentParams::paper_64().with_mem_ops(1_000)
    };
    let run = |org| {
        let r = run_scenario(
            &params,
            Scenario::default_trace(&params, Benchmark::Lu, org),
        );
        assert!(
            r.completed,
            "{org:?} did not finish within the cycle budget"
        );
        r
    };
    // The paper's full LOCO design (clusters + VMS broadcasts + IVR) on the
    // SMART NoC, replaying the `lu` benchmark model, against the
    // distributed-shared-cache baseline on the same traces.
    let loco = run(OrganizationKind::LocoCcVmsIvr);
    let shared = run(OrganizationKind::Shared);

    println!("LOCO CC+VMS+IVR vs Shared Cache — lu, 64 cores, SMART NoC");
    println!("----------------------------------------------------------");
    println!(
        "runtime            : {:>10} vs {:>10} cycles  ({:.1}% reduction)",
        loco.runtime_cycles,
        shared.runtime_cycles,
        100.0 * (1.0 - loco.runtime_cycles as f64 / shared.runtime_cycles as f64)
    );
    println!(
        "avg L2 hit latency : {:>10.2} vs {:>10.2} cycles",
        loco.avg_l2_hit_latency, shared.avg_l2_hit_latency
    );
    println!(
        "L2 MPKI            : {:>10.2} vs {:>10.2}",
        loco.l2_mpki, shared.l2_mpki
    );
    println!(
        "off-chip accesses  : {:>10} vs {:>10}",
        loco.offchip_accesses, shared.offchip_accesses
    );
    println!(
        "  fetches / wbacks : {:>4} / {:<4} vs {:>4} / {:<4}",
        loco.cache.offchip_fetches,
        loco.cache.offchip_writebacks,
        shared.cache.offchip_fetches,
        shared.cache.offchip_writebacks
    );
    println!(
        "VMS broadcasts     : {:>10}   (remote hits {})",
        loco.cache.broadcasts, loco.cache.remote_hits
    );
    println!(
        "IVR migrations     : {:>10}   (accepted {}, denied {})",
        loco.cache.ivr_migrations, loco.cache.ivr_accepted, loco.cache.ivr_denied
    );
    println!(
        "network avg latency: {:>10.2} cycles over {} delivered messages",
        loco.network.avg_latency(),
        loco.network.delivered_copies
    );
    println!();
    println!("LOCO network report (SSR diagnostics included)");
    println!("----------------------------------------------------------");
    print!("{}", loco.network.report());
    println!();
    let energy = EnergyParams::default();
    let (le, se) = (energy.breakdown(&loco), energy.breakdown(&shared));
    println!("LOCO event-level energy (vs Shared Cache)");
    println!("----------------------------------------------------------");
    print!("{}", le.report());
    println!(
        "energy-delay       : {:.3}x the Shared Cache EDP",
        le.edp_normalized_to(&se)
    );
}
