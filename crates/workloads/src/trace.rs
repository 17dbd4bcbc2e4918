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
/// Bit position of the multi-program task offset, just above the
/// private/neighbour/global layout (which tops out below 2^46).
const TASK_SHIFT: u32 = 48;
/// Number of distinct task offsets: `(MAX_TASKS - 1) << TASK_SHIFT` plus the
/// layout still fits in the 62 address bits of a packed trace op.
const MAX_TASKS: u64 = 1 << 14;

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

/// Bit position of the 2-bit op tag in a packed trace word.
const TAG_SHIFT: u32 = 62;
/// The 62 payload bits of a packed trace word: the address, the compute
/// count or the barrier id.
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;
const TAG_READ: u64 = 0;
const TAG_WRITE: u64 = 1;
const TAG_COMPUTE: u64 = 2;
const TAG_BARRIER: u64 = 3;

/// One [`TraceOp`] packed into a single word: the tag in the top two bits,
/// the payload in the low 62. Traces are the simulator's largest block of
/// memory (cores × ops), so each op takes 8 bytes instead of the enum's 16.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PackedOp(u64);

const _: () = assert!(std::mem::size_of::<PackedOp>() == 8);

impl PackedOp {
    /// Packs `op`.
    ///
    /// # Panics
    ///
    /// If a read or write address does not fit in 62 bits.
    fn new(op: TraceOp) -> Self {
        let (tag, payload) = match op {
            TraceOp::Read(a) => (TAG_READ, a),
            TraceOp::Write(a) => (TAG_WRITE, a),
            TraceOp::Compute(n) => (TAG_COMPUTE, u64::from(n)),
            TraceOp::Barrier(id) => (TAG_BARRIER, u64::from(id)),
        };
        // Only an address can exceed the payload; counts and ids are `u32`.
        assert!(
            payload <= PAYLOAD_MASK,
            "trace address {payload:#x} does not fit in the 62 bits of a packed trace op"
        );
        PackedOp(tag << TAG_SHIFT | payload)
    }

    fn op(self) -> TraceOp {
        let payload = self.0 & PAYLOAD_MASK;
        // Compute and barrier payloads were packed from a `u32`.
        match self.0 >> TAG_SHIFT {
            TAG_READ => TraceOp::Read(payload),
            TAG_WRITE => TraceOp::Write(payload),
            TAG_COMPUTE => TraceOp::Compute(payload as u32),
            _ => TraceOp::Barrier(payload as u32),
        }
    }
}

/// The instruction trace of one core, stored packed at 8 bytes per op.
/// Ops are encoded on the way in ([`CoreTrace::from_ops`], the generator)
/// and decoded on the way out ([`CoreTrace::op`], [`CoreTrace::ops`]).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CoreTrace {
    ops: Vec<PackedOp>,
}

impl CoreTrace {
    /// Creates a trace from explicit ops (mostly for tests).
    ///
    /// # Panics
    ///
    /// If a read or write address does not fit in 62 bits.
    pub fn from_ops(ops: Vec<TraceOp>) -> Self {
        CoreTrace {
            ops: ops.into_iter().map(PackedOp::new).collect(),
        }
    }

    /// The op at program counter `pc`, or `None` past the end.
    pub fn op(&self, pc: usize) -> Option<TraceOp> {
        self.ops.get(pc).map(|p| p.op())
    }

    /// The ops in program order, decoded.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = TraceOp> + '_ {
        self.ops.iter().map(|p| p.op())
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of memory operations.
    pub fn memory_ops(&self) -> u64 {
        self.ops()
            .filter(|o| matches!(o, TraceOp::Read(_) | TraceOp::Write(_)))
            .count() as u64
    }

    /// Total instruction count.
    pub fn instructions(&self) -> u64 {
        self.ops().map(TraceOp::instructions).sum()
    }

    /// Number of barrier ops.
    pub fn barriers(&self) -> u64 {
        self.ops()
            .filter(|o| matches!(o, TraceOp::Barrier(_)))
            .count() as u64
    }
}

impl std::fmt::Debug for CoreTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreTrace")
            .field("ops", &self.ops().collect::<Vec<_>>())
            .finish()
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
    ///
    /// # Panics
    ///
    /// If `task` is not below 2^14: the offset would push addresses past
    /// the 62 bits a packed trace op holds.
    pub fn with_task_offset(mut self, task: u64) -> Self {
        assert!(
            task < MAX_TASKS,
            "task offset {task} out of range: at most {MAX_TASKS} tasks (2^14) fit in a 62-bit trace address"
        );
        // The shift clears the whole private/neighbour/global layout
        // (which tops out below 2^46), so no two tasks can ever overlap.
        self.task_offset = task << TASK_SHIFT;
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
            .map(|t| self.generate_thread(spec, t, mem_ops_per_thread))
            .collect()
    }

    fn generate_thread(&self, spec: &BenchmarkSpec, thread: usize, mem_ops: u64) -> CoreTrace {
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
                ops.push(PackedOp::new(TraceOp::Compute(gap)));
            }
            // Pick the address.
            let addr = if !reuse_window.is_empty() && rng.gen_bool(spec.reuse) {
                let idx = rng.index(reuse_window.len());
                reuse_window[idx]
            } else {
                let a = self.fresh_address(spec, thread, &mut rng);
                if reuse_window.len() == 64 {
                    reuse_window.pop_front();
                }
                reuse_window.push_back(a);
                a
            };
            let is_write = rng.gen_bool(spec.write_fraction);
            ops.push(PackedOp::new(if is_write {
                TraceOp::Write(addr)
            } else {
                TraceOp::Read(addr)
            }));
            // Barriers.
            if self.with_barriers && (i + 1) % spec.barrier_interval == 0 {
                barrier_id += 1;
                ops.push(PackedOp::new(TraceOp::Barrier(barrier_id)));
            }
        }
        CoreTrace { ops }
    }

    fn fresh_address(&self, spec: &BenchmarkSpec, thread: usize, rng: &mut SplitMix64) -> u64 {
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
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a)
                        if (PRIVATE_BASE..NEIGHBOR_BASE).contains(&a) =>
                    {
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
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) if a >= GLOBAL_BASE => Some(a / 32),
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
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a)
                        if (NEIGHBOR_BASE..GLOBAL_BASE).contains(&a) =>
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

    /// Plain traces hold no barrier; full-system traces hold exactly
    /// `BenchmarkSpec::barriers_per_thread`, and one without a barrier is
    /// the plain trace (barriers draw nothing from the RNG).
    #[test]
    fn barriers_only_in_fullsystem_mode() {
        let pairs = [(8, 100), (100, 99), (100, 100), (100, 101), (2_500, 2_000), (2_500, 5_000)];
        for (interval, mem_ops) in pairs {
            let spec = Benchmark::Fft.spec().barrier_interval(interval);
            let plain = TraceGenerator::new(1).generate(&spec, 2, mem_ops);
            let fs = TraceGenerator::new(1).with_barriers(true).generate(&spec, 2, mem_ops);
            let expected = spec.barriers_per_thread(mem_ops);
            for (p, f) in plain.iter().zip(&fs) {
                assert_eq!(p.barriers(), 0);
                assert_eq!(f.barriers(), expected, "interval {interval}, {mem_ops} ops");
            }
            if expected == 0 {
                assert_eq!(fs, plain, "interval {interval}, {mem_ops} ops");
            }
        }
        assert_eq!(Benchmark::Fft.spec().barriers_per_thread(5_000), 2);
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
                .flat_map(|t| t.ops())
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) => Some(a / 32),
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
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) => Some(a / 32),
                    _ => None,
                })
                .collect()
        };
        assert!(lines(&t0[0]).is_disjoint(&lines(&t1[0])));
        assert!(lines(&t0[1]).is_disjoint(&lines(&t1[1])));
    }

    /// FNV-1a over the little-endian bytes of one word.
    fn fnv(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Folds every trace's length and decoded op sequence into `h`.
    fn fold_traces(mut h: u64, traces: &[CoreTrace]) -> u64 {
        for t in traces {
            h = fnv(h, t.ops().len() as u64);
            for op in t.ops() {
                let (tag, payload) = match op {
                    TraceOp::Read(a) => (1, a),
                    TraceOp::Write(a) => (2, a),
                    TraceOp::Compute(n) => (3, u64::from(n)),
                    TraceOp::Barrier(b) => (4, u64::from(b)),
                };
                h = fnv(fnv(h, tag), payload);
            }
        }
        h
    }

    /// The op sequences of every Table-2 workload (highest task offset
    /// included) and of every benchmark and stress spec, with and without
    /// barriers. Recorded before traces were stored packed; the packed
    /// representation must decode to exactly the same sequences.
    #[test]
    fn decoded_ops_match_the_pinned_fingerprint() {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for w in crate::MultiProgramWorkload::table2() {
            h = fold_traces(h, &w.generate_traces_scaled(200, 42, 1));
        }
        let specs = Benchmark::ALL
            .iter()
            .map(|b| b.spec())
            .chain(crate::StressKind::ALL.iter().map(|k| k.spec()));
        for spec in specs {
            for barriers in [false, true] {
                let traces = TraceGenerator::new(42).with_barriers(barriers).generate(
                    &spec.barrier_interval(spec.barrier_interval.min(100)),
                    4,
                    600,
                );
                h = fold_traces(h, &traces);
            }
        }
        assert_eq!(h, 0x49b4_183a_b885_2b26, "fingerprint {h:#x}");
    }

    #[test]
    fn packing_round_trips_the_edge_values() {
        let edges = vec![
            TraceOp::Read(0),
            TraceOp::Write(0),
            TraceOp::Read(PAYLOAD_MASK),
            TraceOp::Write((1 << 62) - 1),
            TraceOp::Compute(0),
            TraceOp::Compute(u32::MAX),
            TraceOp::Barrier(0),
            TraceOp::Barrier(u32::MAX),
        ];
        let trace = CoreTrace::from_ops(edges.clone());
        assert_eq!(trace.len(), edges.len());
        assert!(!trace.is_empty());
        assert_eq!(trace.ops().collect::<Vec<_>>(), edges);
        for (pc, &op) in edges.iter().enumerate() {
            assert_eq!(trace.op(pc), Some(op));
        }
        assert_eq!(trace.op(edges.len()), None);
        assert!(CoreTrace::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not fit in the 62 bits")]
    fn packing_an_address_of_62_bits_or_more_panics() {
        CoreTrace::from_ops(vec![TraceOp::Read(1 << 62)]);
    }

    #[test]
    fn debug_prints_the_decoded_ops() {
        let trace = CoreTrace::from_ops(vec![TraceOp::Write(0x40), TraceOp::Barrier(3)]);
        assert_eq!(
            format!("{trace:?}"),
            "CoreTrace { ops: [Write(64), Barrier(3)] }"
        );
    }

    #[test]
    fn the_highest_task_offset_still_packs() {
        let spec = Benchmark::Barnes.spec();
        let task = MAX_TASKS - 1;
        let traces = TraceGenerator::new(1)
            .with_task_offset(task)
            .generate(&spec, 4, 300);
        for op in traces.iter().flat_map(|t| t.ops()) {
            if let TraceOp::Read(a) | TraceOp::Write(a) = op {
                assert_eq!(a >> TASK_SHIFT, task);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 16384 tasks")]
    fn task_offsets_past_the_packing_limit_are_refused() {
        let _ = TraceGenerator::new(1).with_task_offset(MAX_TASKS);
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
