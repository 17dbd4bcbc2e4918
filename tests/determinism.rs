//! Regression tests locking in end-to-end determinism: with the in-tree
//! SplitMix64 PRNG seams, the same seed must produce bit-identical traces
//! and bit-identical simulation results on every platform and every run.

use loco::campaign::run_scenario;
use loco::{Benchmark, ExperimentParams, OrganizationKind, Scenario, SimResults, TraceGenerator};

/// Two generators with the same seed emit bit-identical traces; a different
/// seed diverges.
#[test]
fn trace_generation_is_bit_identical_for_a_seed() {
    for benchmark in [Benchmark::Lu, Benchmark::Fft, Benchmark::Swaptions] {
        let spec = benchmark.spec();
        let a = TraceGenerator::new(0xdead_beef).generate(&spec, 16, 1_000);
        let b = TraceGenerator::new(0xdead_beef).generate(&spec, 16, 1_000);
        assert_eq!(a, b, "{benchmark:?}: same seed must give identical traces");
        let c = TraceGenerator::new(0xdead_beef + 1).generate(&spec, 16, 1_000);
        assert_ne!(a, c, "{benchmark:?}: different seeds must diverge");
    }
}

/// The exact byte-level shape of a seeded trace never changes across
/// releases: a golden fingerprint of the op stream.
#[test]
fn trace_generation_matches_golden_fingerprint() {
    let spec = Benchmark::Lu.spec();
    let traces = TraceGenerator::new(42).generate(&spec, 4, 200);
    // A cheap order-sensitive fold over all ops of all threads.
    let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
    for trace in &traces {
        for op in trace.ops() {
            let (tag, payload) = match op {
                loco_workloads::TraceOp::Read(a) => (1u64, a),
                loco_workloads::TraceOp::Write(a) => (2, a),
                loco_workloads::TraceOp::Compute(n) => (3, u64::from(n)),
                loco_workloads::TraceOp::Barrier(b) => (4, u64::from(b)),
            };
            fingerprint = fingerprint.wrapping_mul(0x100_0000_01b3).rotate_left(7) ^ tag ^ payload;
        }
    }
    // Locked in at bring-up. If an intentional generator change invalidates
    // it, update the constant and call the change out in the PR.
    assert_eq!(
        fingerprint, 0x5e4d_23cd_27b9_4380,
        "fingerprint {fingerprint:#x}"
    );
}

fn run_with_seed(seed: u64) -> SimResults {
    // The quick 4x4 mesh at Table-1 cache capacities.
    let params = ExperimentParams {
        mem_ops_per_core: 300,
        seed,
        working_set_scale: 1,
        ..ExperimentParams::quick()
    };
    let scenario =
        Scenario::default_trace(&params, Benchmark::Barnes, OrganizationKind::LocoCcVmsIvr);
    run_scenario(&params, scenario)
}

/// The full simulation (trace generation, NoC arbitration, IVR victim
/// steering) is a pure function of the seed.
#[test]
fn simulation_results_are_bit_identical_for_a_seed() {
    let a = run_with_seed(7);
    let b = run_with_seed(7);
    assert!(a.completed);
    assert_eq!(a.runtime_cycles, b.runtime_cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.offchip_accesses, b.offchip_accesses);
    // Debug formatting covers every field (counters and float averages), so
    // this catches any nondeterminism the explicit comparisons above miss.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Different seeds actually exercise different executions (guards against a
/// seed that is silently ignored).
#[test]
fn different_seeds_change_the_execution() {
    let a = run_with_seed(7);
    let c = run_with_seed(8);
    assert_ne!(
        format!("{a:?}"),
        format!("{c:?}"),
        "changing the seed must change the run"
    );
}
