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
/// layout still fits in a 64-bit address.
const MAX_TASKS: u64 = 1 << (u64::BITS - TASK_SHIFT);
/// Size of the window of recently touched addresses an access may re-use.
const REUSE_WINDOW: usize = 64;

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
///
/// A generated trace is a recipe, not a list: the generator's seed, task
/// offset and barrier flag, the benchmark spec, the thread and the number
/// of memory ops. [`CoreTrace::ops`] replays it from the start, one memory
/// op at a time, so a trace takes the same few hundred bytes however long
/// it is. Explicit traces ([`CoreTrace::from_ops`]) keep their ops as given.
#[derive(Clone, Default)]
pub struct CoreTrace(Source);

#[derive(Clone)]
enum Source {
    Ops(Vec<TraceOp>),
    Generated(Recipe),
}

impl Default for Source {
    fn default() -> Self {
        Source::Ops(Vec::new())
    }
}

/// Everything that determines one generated thread's ops.
#[derive(Debug, Clone, Copy)]
struct Recipe {
    generator: TraceGenerator,
    spec: BenchmarkSpec,
    thread: usize,
    mem_ops: u64,
}

impl CoreTrace {
    /// Creates a trace from explicit ops (mostly for tests).
    pub fn from_ops(ops: Vec<TraceOp>) -> Self {
        CoreTrace(Source::Ops(ops))
    }

    /// The ops in program order, replayed from the start.
    pub fn ops(&self) -> TraceCursor {
        TraceCursor(match &self.0 {
            Source::Ops(ops) => Cursor::Ops(ops.clone().into_iter()),
            Source::Generated(recipe) => Cursor::Generated(Emitter::new(*recipe)),
        })
    }

    /// Whether the trace has no ops.
    pub fn is_empty(&self) -> bool {
        match &self.0 {
            Source::Ops(ops) => ops.is_empty(),
            Source::Generated(recipe) => recipe.mem_ops == 0,
        }
    }

    /// Number of memory operations.
    pub fn memory_ops(&self) -> u64 {
        match &self.0 {
            Source::Ops(ops) => ops
                .iter()
                .filter(|o| matches!(o, TraceOp::Read(_) | TraceOp::Write(_)))
                .count() as u64,
            Source::Generated(recipe) => recipe.mem_ops,
        }
    }

    /// Total instruction count.
    pub fn instructions(&self) -> u64 {
        self.ops().map(TraceOp::instructions).sum()
    }

    /// Number of barrier ops.
    pub fn barriers(&self) -> u64 {
        match &self.0 {
            Source::Ops(ops) => ops
                .iter()
                .filter(|o| matches!(o, TraceOp::Barrier(_)))
                .count() as u64,
            Source::Generated(r) if r.generator.with_barriers => {
                r.spec.barriers_per_thread(r.mem_ops)
            }
            Source::Generated(_) => 0,
        }
    }
}

/// Two traces are equal when they replay the same ops.
impl PartialEq for CoreTrace {
    fn eq(&self, other: &Self) -> bool {
        self.ops().eq(other.ops())
    }
}

impl Eq for CoreTrace {}

impl std::fmt::Debug for CoreTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreTrace")
            .field("ops", &self.ops().collect::<Vec<_>>())
            .finish()
    }
}

/// A [`CoreTrace`] being replayed: yields its ops in program order.
#[derive(Debug)]
pub struct TraceCursor(Cursor);

#[derive(Debug)]
enum Cursor {
    Ops(std::vec::IntoIter<TraceOp>),
    Generated(Emitter),
}

impl Iterator for TraceCursor {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        match &mut self.0 {
            Cursor::Ops(ops) => ops.next(),
            Cursor::Generated(emitter) => emitter.next(),
        }
    }
}

/// The generator loop of one thread, run one memory op at a time.
#[derive(Debug)]
struct Emitter {
    recipe: Recipe,
    rng: SplitMix64,
    reuse_window: VecDeque<u64>,
    barrier_id: u32,
    /// Memory ops generated so far (the loop counter).
    generated: u64,
    /// The rest of the current memory op's ops: its compute gap, the
    /// access itself and its barrier.
    buffered: VecDeque<TraceOp>,
}

impl Emitter {
    fn new(recipe: Recipe) -> Self {
        let Recipe {
            generator, thread, ..
        } = recipe;
        Emitter {
            recipe,
            rng: SplitMix64::new(
                generator.seed
                    ^ (thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ generator.task_offset,
            ),
            reuse_window: VecDeque::with_capacity(REUSE_WINDOW),
            barrier_id: 0,
            generated: 0,
            buffered: VecDeque::with_capacity(3),
        }
    }

    fn next(&mut self) -> Option<TraceOp> {
        if self.buffered.is_empty() {
            if self.generated == self.recipe.mem_ops {
                return None;
            }
            self.generate_one();
        }
        self.buffered.pop_front()
    }

    /// Generates the next memory op with the compute gap before it and the
    /// barrier after it, if any. Reads `mem_ops` nowhere, so a trace is a
    /// prefix of every longer one from the same recipe.
    fn generate_one(&mut self) {
        let Recipe {
            generator,
            spec,
            thread,
            ..
        } = self.recipe;
        let rng = &mut self.rng;
        // Compute gap.
        let gap = rng.next_below(u64::from(spec.compute_per_mem) * 2 + 1) as u32;
        if gap > 0 {
            self.buffered.push_back(TraceOp::Compute(gap));
        }
        // Pick the address.
        let addr = if !self.reuse_window.is_empty() && rng.gen_bool(spec.reuse) {
            let idx = rng.index(self.reuse_window.len());
            self.reuse_window[idx]
        } else {
            let a = generator.fresh_address(&spec, thread, rng);
            if self.reuse_window.len() == REUSE_WINDOW {
                self.reuse_window.pop_front();
            }
            self.reuse_window.push_back(a);
            a
        };
        let is_write = rng.gen_bool(spec.write_fraction);
        self.buffered.push_back(if is_write {
            TraceOp::Write(addr)
        } else {
            TraceOp::Read(addr)
        });
        self.generated += 1;
        // Barriers.
        if generator.with_barriers && self.generated.is_multiple_of(spec.barrier_interval) {
            self.barrier_id += 1;
            self.buffered.push_back(TraceOp::Barrier(self.barrier_id));
        }
    }
}

/// Deterministic synthetic trace generator.
#[derive(Debug, Clone, Copy)]
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
    /// If `task` is not below 2^16: the offset would push addresses past
    /// 64 bits.
    pub fn with_task_offset(mut self, task: u64) -> Self {
        assert!(
            task < MAX_TASKS,
            "task offset {task} out of range: at most {MAX_TASKS} tasks (2^16) fit in a 64-bit address"
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

    /// The traces of `threads` threads, each of `mem_ops_per_thread`
    /// memory operations (plus interleaved compute and optional barriers).
    /// Nothing is generated here: each trace is replayed on demand
    /// ([`CoreTrace::ops`]).
    pub fn generate(
        &self,
        spec: &BenchmarkSpec,
        threads: usize,
        mem_ops_per_thread: u64,
    ) -> Vec<CoreTrace> {
        (0..threads)
            .map(|thread| {
                CoreTrace(Source::Generated(Recipe {
                    generator: *self,
                    spec: *spec,
                    thread,
                    mem_ops: mem_ops_per_thread,
                }))
            })
            .collect()
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
        let pairs = [
            (8, 100),
            (100, 99),
            (100, 100),
            (100, 101),
            (2_500, 2_000),
            (2_500, 5_000),
        ];
        for (interval, mem_ops) in pairs {
            let spec = Benchmark::Fft.spec().barrier_interval(interval);
            let plain = TraceGenerator::new(1).generate(&spec, 2, mem_ops);
            let fs = TraceGenerator::new(1)
                .with_barriers(true)
                .generate(&spec, 2, mem_ops);
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
        let t0 = TraceGenerator::new(1)
            .with_task_offset(0)
            .generate(&spec, 2, 500);
        let t1 = TraceGenerator::new(1)
            .with_task_offset(1)
            .generate(&spec, 2, 500);
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

    /// Folds every trace's length and op sequence into `h`, checking on the
    /// way that the recipe's O(1) answers match the replayed ops.
    fn fold_traces(mut h: u64, traces: &[CoreTrace]) -> u64 {
        for t in traces {
            let ops: Vec<TraceOp> = t.ops().collect();
            let count = |f: fn(&TraceOp) -> bool| ops.iter().filter(|o| f(o)).count() as u64;
            let memory = count(|o| matches!(o, TraceOp::Read(_) | TraceOp::Write(_)));
            assert_eq!(t.memory_ops(), memory);
            assert_eq!(t.barriers(), count(|o| matches!(o, TraceOp::Barrier(_))));
            assert_eq!(t.is_empty(), ops.is_empty());
            h = fnv(h, ops.len() as u64);
            for op in ops {
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
    /// barriers. Recorded when traces were generated whole into a list;
    /// replaying a recipe must yield exactly the same sequences.
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

    /// A billion memory ops per thread on 64 threads costs nothing to set
    /// up, and its first ops are exactly a short trace's: the generator
    /// reads the length only as its bound.
    #[test]
    fn a_long_trace_set_is_built_at_once_and_extends_a_short_one() {
        let spec = Benchmark::Fft.spec().barrier_interval(7);
        let gen = TraceGenerator::new(42).with_barriers(true);
        let long = gen.generate(&spec, 64, 1_000_000_000);
        let short = gen.generate(&spec, 64, 1_000);
        for (l, s) in long.iter().zip(&short) {
            assert_eq!(l.memory_ops(), 1_000_000_000);
            assert_eq!(l.barriers(), 1_000_000_000 / 7);
            assert!(!l.is_empty());
            let prefix: Vec<TraceOp> = s.ops().collect();
            assert!(l.ops().take(prefix.len()).eq(prefix.iter().copied()));
        }
    }

    #[test]
    fn explicit_traces_replay_their_ops() {
        let ops = vec![
            TraceOp::Read(0),
            TraceOp::Write(u64::MAX),
            TraceOp::Compute(u32::MAX),
            TraceOp::Barrier(0),
        ];
        let trace = CoreTrace::from_ops(ops.clone());
        assert_eq!(trace.ops().collect::<Vec<_>>(), ops);
        assert_eq!((trace.memory_ops(), trace.barriers()), (2, 1));
        assert!(!trace.is_empty());
        assert!(CoreTrace::default().is_empty());
        assert_eq!(CoreTrace::default().ops().next(), None);
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
    fn the_highest_task_offset_still_fits() {
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
    #[should_panic(expected = "at most 65536 tasks")]
    fn task_offsets_past_the_address_limit_are_refused() {
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
