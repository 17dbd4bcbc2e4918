//! Randomized property tests of the workload generator, driven by a
//! deterministic seeded PRNG (the offline build has no `proptest`):
//! determinism, trace shape, and address-space separation hold for arbitrary
//! benchmark parameters, thread counts and seeds.

use loco_noc::SplitMix64;
use loco_workloads::{Benchmark, BenchmarkSpec, SharingPattern, TraceGenerator, TraceOp};
use std::collections::HashSet;

const BENCHMARKS: [Benchmark; 7] = [
    Benchmark::Barnes,
    Benchmark::Blackscholes,
    Benchmark::Lu,
    Benchmark::Radix,
    Benchmark::Swaptions,
    Benchmark::Fft,
    Benchmark::WaterSpatial,
];

/// The generator is a pure function of (spec, seed, threads, length).
#[test]
fn generation_is_deterministic() {
    let mut rng = SplitMix64::new(0x40ad1);
    for case in 0..48 {
        let b = BENCHMARKS[rng.index(BENCHMARKS.len())];
        let seed = rng.next_u64();
        let threads = 1 + rng.index(8);
        let ops = 1 + rng.next_below(399);
        let spec = b.spec();
        let x = TraceGenerator::new(seed).generate(&spec, threads, ops);
        let y = TraceGenerator::new(seed).generate(&spec, threads, ops);
        assert_eq!(x, y, "case {case} ({b:?}, seed {seed})");
    }
}

/// Every generated trace has exactly the requested number of memory
/// operations, at least that many instructions, and addresses aligned to the
/// 32-byte line size (addresses are line-granular by design).
#[test]
fn trace_shape_is_consistent() {
    let mut rng = SplitMix64::new(0x40ad2);
    for case in 0..48 {
        let b = BENCHMARKS[rng.index(BENCHMARKS.len())];
        let seed = rng.next_u64();
        let threads = 1 + rng.index(4);
        let ops = 1 + rng.next_below(299);
        let spec = b.spec();
        let traces = TraceGenerator::new(seed).generate(&spec, threads, ops);
        assert_eq!(traces.len(), threads, "case {case}");
        for t in &traces {
            assert_eq!(t.memory_ops(), ops, "case {case}");
            assert!(t.instructions() >= ops, "case {case}");
            for op in t.ops() {
                if let TraceOp::Read(a) | TraceOp::Write(a) = op {
                    assert_eq!(a % 32, 0, "case {case}: addresses are line aligned");
                }
            }
        }
    }
}

/// The store fraction of the generated trace tracks the spec within a loose
/// statistical tolerance.
#[test]
fn write_fraction_is_respected() {
    let mut rng = SplitMix64::new(0x40ad3);
    for case in 0..48 {
        let seed = rng.next_u64();
        let wf = 0.05 + rng.next_f64() * 0.90;
        let spec = BenchmarkSpec::new(Benchmark::Lu).write_fraction(wf);
        let traces = TraceGenerator::new(seed).generate(&spec, 1, 3_000);
        let writes = traces[0]
            .ops()
            .filter(|o| matches!(o, TraceOp::Write(_)))
            .count() as f64;
        let measured = writes / 3_000.0;
        assert!(
            (measured - wf).abs() < 0.08,
            "case {case}: asked {wf:.2}, measured {measured:.2}"
        );
    }
}

/// Purely-private benchmarks (shared fraction zero) never produce an address
/// shared by two threads, regardless of the sharing pattern.
#[test]
fn zero_shared_fraction_means_disjoint_threads() {
    let mut rng = SplitMix64::new(0x40ad4);
    for case in 0..48 {
        let seed = rng.next_u64();
        let threads = 2 + rng.index(4);
        let pattern = if rng.gen_bool(0.5) {
            SharingPattern::Neighbor
        } else {
            SharingPattern::Global
        };
        let spec = BenchmarkSpec::new(Benchmark::Swaptions)
            .shared_fraction(0.0)
            .pattern(pattern)
            .private_lines(256);
        let traces = TraceGenerator::new(seed).generate(&spec, threads, 500);
        let mut seen: Vec<HashSet<u64>> = Vec::new();
        for t in &traces {
            let lines: HashSet<u64> = t
                .ops()
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) => Some(a / 32),
                    _ => None,
                })
                .collect();
            for other in &seen {
                assert!(lines.is_disjoint(other), "case {case} ({pattern:?})");
            }
            seen.push(lines);
        }
    }
}

/// Task offsets give disjoint address spaces for any pair of task ids.
#[test]
fn task_offsets_never_collide() {
    let mut rng = SplitMix64::new(0x40ad5);
    for case in 0..48 {
        let seed = rng.next_u64();
        let t1 = rng.next_below(64);
        let t2 = rng.next_below(64);
        if t1 == t2 {
            continue;
        }
        let spec = Benchmark::Barnes.spec();
        let a = TraceGenerator::new(seed).with_task_offset(t1).generate(&spec, 1, 300);
        let b = TraceGenerator::new(seed).with_task_offset(t2).generate(&spec, 1, 300);
        let lines = |t: &loco_workloads::CoreTrace| -> HashSet<u64> {
            t.ops()
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) => Some(a),
                    _ => None,
                })
                .collect()
        };
        assert!(lines(&a[0]).is_disjoint(&lines(&b[0])), "case {case}");
    }
}
