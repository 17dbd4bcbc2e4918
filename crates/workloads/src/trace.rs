//! Trace representation and the synthetic trace generator.

use crate::benchmarks::{BenchmarkSpec, SharingPattern};
use loco_noc::SplitMix64;
use std::collections::VecDeque;

/// Base of the per-thread private regions.
const PRIVATE_BASE: u64 = 0x0100_0000_0000;
/// Base of the per-group neighbour-shared regions.
const NEIGHBOR_BASE: u64 = 0x2000_0000_0000;
/// Base of the chip-wide shared region.
const GLOBAL_BASE: u64 = 0x3000_0000_0000;
/// Cache-line size assumed by the generator (Table 1).
const LINE_BYTES: u64 = 32;
/// Number of consecutive threads sharing one neighbour region.
const NEIGHBOR_GROUP: u64 = 4;
/// Fraction of shared accesses that still go chip-wide for
/// neighbour-dominated benchmarks (boundary exchange).
const NEIGHBOR_GLOBAL_LEAK: f64 = 0.10;
/// Line stride between consecutive threads' private regions and between
/// neighbour groups' shared regions. A prime well above any working-set size
/// keeps regions disjoint while avoiding the pathological power-of-two
/// aliasing (all threads landing in the same handful of L2 sets) that a real
/// heap layout would not exhibit.
const REGION_STRIDE_LINES: u64 = 999_983;

/// One replayed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A load from the given byte address.
    Read(u64),
    /// A store to the given byte address.
    Write(u64),
    /// `n` non-memory instructions (1 cycle each on the in-order core).
    Compute(u32),
    /// A global barrier with the given id; all threads of the task must
    /// arrive before any proceeds (used by the full-system replay mode).
    Barrier(u32),
}

impl TraceOp {
    /// Number of instructions this op represents.
    pub fn instructions(self) -> u64 {
        match self {
            TraceOp::Read(_) | TraceOp::Write(_) => 1,
            TraceOp::Compute(n) => u64::from(n),
            TraceOp::Barrier(_) => 1,
        }
    }
}

/// The instruction trace of one core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreTrace {
    ops: Vec<TraceOp>,
}

impl CoreTrace {
    /// Creates a trace from explicit ops (mostly for tests).
    pub fn from_ops(ops: Vec<TraceOp>) -> Self {
        CoreTrace { ops }
    }

    /// The ops in program order.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of memory operations.
    pub fn memory_ops(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Read(_) | TraceOp::Write(_)))
            .count() as u64
    }

    /// Total instruction count.
    pub fn instructions(&self) -> u64 {
        self.ops.iter().map(|o| o.instructions()).sum()
    }

    /// Number of barrier ops.
    pub fn barriers(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Barrier(_)))
            .count() as u64
    }
}

/// Deterministic synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    seed: u64,
    /// Offset added to every generated address; used to give multi-program
    /// tasks disjoint address spaces.
    task_offset: u64,
    /// Emit `TraceOp::Barrier` markers (full-system replay mode).
    with_barriers: bool,
}

impl TraceGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        TraceGenerator {
            seed,
            task_offset: 0,
            with_barriers: false,
        }
    }

    /// Gives every generated address a task-specific offset so that
    /// different tasks of a multi-program workload never share data.
    pub fn with_task_offset(mut self, task: u64) -> Self {
        // The shift clears the whole private/neighbour/global layout
        // (which tops out below 2^46), so no two tasks can ever overlap.
        self.task_offset = task << 48;
        self
    }

    /// Emits barrier markers at the benchmark's barrier interval (used by
    /// the full-system synchronization-aware replay).
    pub fn with_barriers(mut self, enabled: bool) -> Self {
        self.with_barriers = enabled;
        self
    }

    /// Generates `mem_ops_per_thread` memory operations (plus interleaved
    /// compute and optional barriers) for each of `threads` threads.
    pub fn generate(&self, spec: &BenchmarkSpec, threads: usize, mem_ops_per_thread: u64) -> Vec<CoreTrace> {
        (0..threads)
            .map(|t| self.generate_thread(spec, t, threads, mem_ops_per_thread))
            .collect()
    }

    fn generate_thread(
        &self,
        spec: &BenchmarkSpec,
        thread: usize,
        threads: usize,
        mem_ops: u64,
    ) -> CoreTrace {
        let mut rng = SplitMix64::new(
            self.seed ^ (thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.task_offset,
        );
        let mut ops = Vec::with_capacity((mem_ops as usize) * 2);
        let mut reuse_window: VecDeque<u64> = VecDeque::with_capacity(64);
        let mut barrier_id = 0u32;
        for i in 0..mem_ops {
            // Compute gap.
            let gap = rng.next_below(u64::from(spec.compute_per_mem) * 2 + 1) as u32;
            if gap > 0 {
                ops.push(TraceOp::Compute(gap));
            }
            // Pick the address.
            let addr = if !reuse_window.is_empty() && rng.gen_bool(spec.reuse) {
                let idx = rng.index(reuse_window.len());
                reuse_window[idx]
            } else {
                let a = self.fresh_address(spec, thread, threads, &mut rng);
                if reuse_window.len() == 64 {
                    reuse_window.pop_front();
                }
                reuse_window.push_back(a);
                a
            };
            let is_write = rng.gen_bool(spec.write_fraction);
            ops.push(if is_write {
                TraceOp::Write(addr)
            } else {
                TraceOp::Read(addr)
            });
            // Barriers.
            if self.with_barriers && (i + 1) % spec.barrier_interval == 0 {
                barrier_id += 1;
                ops.push(TraceOp::Barrier(barrier_id));
            }
        }
        CoreTrace { ops }
    }

    fn fresh_address(
        &self,
        spec: &BenchmarkSpec,
        thread: usize,
        threads: usize,
        rng: &mut SplitMix64,
    ) -> u64 {
        let shared = rng.gen_bool(spec.shared_fraction);
        let line = if shared {
            let go_global = match spec.pattern {
                SharingPattern::Global => true,
                SharingPattern::Neighbor => rng.gen_bool(NEIGHBOR_GLOBAL_LEAK),
            };
            if go_global {
                GLOBAL_BASE / LINE_BYTES + rng.next_below(spec.shared_lines)
            } else {
                let group = (thread as u64) / NEIGHBOR_GROUP;
                let groups = (threads as u64).div_ceil(NEIGHBOR_GROUP).max(1);
                let _ = groups;
                NEIGHBOR_BASE / LINE_BYTES
                    + group * REGION_STRIDE_LINES
                    + rng.next_below(spec.shared_lines)
            }
        } else {
            PRIVATE_BASE / LINE_BYTES
                + (thread as u64) * REGION_STRIDE_LINES
                + rng.next_below(spec.private_lines)
        };
        (line * LINE_BYTES) + self.task_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let spec = Benchmark::Lu.spec();
        let a = TraceGenerator::new(7).generate(&spec, 4, 500);
        let b = TraceGenerator::new(7).generate(&spec, 4, 500);
        assert_eq!(a, b);
        let c = TraceGenerator::new(8).generate(&spec, 4, 500);
        assert_ne!(a, c);
    }

    #[test]
    fn memory_op_count_matches_request() {
        let spec = Benchmark::Barnes.spec();
        let traces = TraceGenerator::new(1).generate(&spec, 8, 1_000);
        for t in &traces {
            assert_eq!(t.memory_ops(), 1_000);
            assert!(t.instructions() >= 1_000);
        }
    }

    #[test]
    fn private_addresses_do_not_collide_across_threads() {
        let spec = Benchmark::Swaptions.spec(); // almost all private
        let traces = TraceGenerator::new(3).generate(&spec, 8, 2_000);
        let mut per_thread: Vec<HashSet<u64>> = Vec::new();
        for t in &traces {
            let lines: HashSet<u64> = t
                .ops()
                .iter()
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) if *a >= PRIVATE_BASE && *a < NEIGHBOR_BASE => {
                        Some(a / 32)
                    }
                    _ => None,
                })
                .collect();
            per_thread.push(lines);
        }
        for i in 0..per_thread.len() {
            for j in (i + 1)..per_thread.len() {
                assert!(per_thread[i].is_disjoint(&per_thread[j]));
            }
        }
    }

    #[test]
    fn global_benchmarks_share_lines_across_distant_threads() {
        let spec = Benchmark::Fft.spec();
        let traces = TraceGenerator::new(5).generate(&spec, 16, 4_000);
        let shared_of = |t: &CoreTrace| -> HashSet<u64> {
            t.ops()
                .iter()
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) if *a >= GLOBAL_BASE => Some(a / 32),
                    _ => None,
                })
                .collect()
        };
        let a = shared_of(&traces[0]);
        let b = shared_of(&traces[15]);
        assert!(
            a.intersection(&b).count() > 0,
            "distant threads of a Global benchmark must share data"
        );
    }

    #[test]
    fn neighbor_benchmarks_mostly_share_within_groups() {
        let spec = Benchmark::Lu.spec();
        let traces = TraceGenerator::new(5).generate(&spec, 16, 4_000);
        let neighbor_of = |t: &CoreTrace| -> HashSet<u64> {
            t.ops()
                .iter()
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a)
                        if *a >= NEIGHBOR_BASE && *a < GLOBAL_BASE =>
                    {
                        Some(a / 32)
                    }
                    _ => None,
                })
                .collect()
        };
        // Threads 0 and 1 are in the same group; threads 0 and 8 are not.
        let t0 = neighbor_of(&traces[0]);
        let t1 = neighbor_of(&traces[1]);
        let t8 = neighbor_of(&traces[8]);
        assert!(t0.intersection(&t1).count() > 0);
        assert_eq!(t0.intersection(&t8).count(), 0);
    }

    #[test]
    fn barriers_only_in_fullsystem_mode() {
        let spec = Benchmark::Fft.spec(); // barrier_interval 2500
        let plain = TraceGenerator::new(1).generate(&spec, 2, 5_000);
        assert_eq!(plain[0].barriers(), 0);
        let fs = TraceGenerator::new(1)
            .with_barriers(true)
            .generate(&spec, 2, 5_000);
        assert_eq!(fs[0].barriers(), 2);
    }

    #[test]
    fn adjacent_task_offsets_never_alias_shared_regions() {
        // Regression test: the global region of task N must not collide with
        // the neighbour region of task N+1 (or any other region).
        let spec = Benchmark::Barnes.spec(); // global + neighbour traffic
        let lines = |task: u64| -> HashSet<u64> {
            TraceGenerator::new(9)
                .with_task_offset(task)
                .generate(&spec, 4, 2_000)
                .iter()
                .flat_map(|t| t.ops().iter())
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) => Some(*a / 32),
                    _ => None,
                })
                .collect()
        };
        let t0 = lines(0);
        let t1 = lines(1);
        let t2 = lines(2);
        assert!(t0.is_disjoint(&t1));
        assert!(t1.is_disjoint(&t2));
        assert!(t0.is_disjoint(&t2));
    }

    #[test]
    fn task_offsets_separate_address_spaces() {
        let spec = Benchmark::Lu.spec();
        let t0 = TraceGenerator::new(1).with_task_offset(0).generate(&spec, 2, 500);
        let t1 = TraceGenerator::new(1).with_task_offset(1).generate(&spec, 2, 500);
        let lines = |t: &CoreTrace| -> HashSet<u64> {
            t.ops()
                .iter()
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) => Some(a / 32),
                    _ => None,
                })
                .collect()
        };
        assert!(lines(&t0[0]).is_disjoint(&lines(&t1[0])));
        assert!(lines(&t0[1]).is_disjoint(&lines(&t1[1])));
    }

    #[test]
    fn reuse_produces_repeated_lines() {
        let spec = Benchmark::Blackscholes.spec(); // high reuse
        let traces = TraceGenerator::new(2).generate(&spec, 1, 2_000);
        let mut lines = Vec::new();
        for o in traces[0].ops() {
            if let TraceOp::Read(a) | TraceOp::Write(a) = o {
                lines.push(a / 32);
            }
        }
        let unique: HashSet<u64> = lines.iter().copied().collect();
        assert!(
            unique.len() < lines.len() / 2,
            "expected substantial temporal reuse ({} unique of {})",
            unique.len(),
            lines.len()
        );
    }
}
