//! Per-benchmark models of the SPLASH-2 and PARSEC programs used in the
//! paper's evaluation.
//!
//! The parameters below are *behavioural models*, not measurements: they are
//! chosen so that the relative pressure each benchmark puts on cache
//! capacity, on sharing/invalidation traffic and on network distance matches
//! its published characterization (working-set study in the SPLASH-2 and
//! PARSEC papers, communication patterns in Barrow-Williams et al.,
//! IISWC 2009). The paper's own discussion (Section 4.3) notes, e.g., that
//! blackscholes/lu/radix communicate mostly between neighbouring cores while
//! barnes/fft communicate chip-wide — the `SharingPattern` field captures
//! exactly that distinction.

/// How a benchmark's shared data is communicated between threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingPattern {
    /// Shared data is mostly exchanged between neighbouring threads
    /// (blocked/stencil codes, pipelines).
    Neighbor,
    /// Shared data is exchanged chip-wide (tree codes, transposes,
    /// all-to-all phases).
    Global,
}

/// The benchmarks used in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    Barnes,
    Blackscholes,
    Canneal,
    Ferret,
    Fft,
    Fluidanimate,
    Fmm,
    Lu,
    Nlu,
    Radix,
    Swaptions,
    Vips,
    WaterNsq,
    WaterSpatial,
}

impl Benchmark {
    /// Every modelled benchmark, in declaration order.
    pub const ALL: [Benchmark; 14] = [
        Benchmark::Barnes,
        Benchmark::Blackscholes,
        Benchmark::Canneal,
        Benchmark::Ferret,
        Benchmark::Fft,
        Benchmark::Fluidanimate,
        Benchmark::Fmm,
        Benchmark::Lu,
        Benchmark::Nlu,
        Benchmark::Radix,
        Benchmark::Swaptions,
        Benchmark::Vips,
        Benchmark::WaterNsq,
        Benchmark::WaterSpatial,
    ];

    /// Parses a display name (as printed by [`Benchmark::name`]) back into
    /// a benchmark — e.g. for command-line `--benchmarks lu,fft` flags.
    pub fn parse(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.iter().find(|b| b.name() == name).copied()
    }

    /// The eight benchmarks of the trace-driven figures (Figures 6–14).
    pub const TRACE_DRIVEN: [Benchmark; 8] = [
        Benchmark::Barnes,
        Benchmark::Blackscholes,
        Benchmark::Lu,
        Benchmark::Nlu,
        Benchmark::Radix,
        Benchmark::Swaptions,
        Benchmark::Vips,
        Benchmark::WaterSpatial,
    ];

    /// The benchmarks of the full-system figure (Figure 16): swaptions and
    /// vips are replaced by canneal, fft, fmm, fluidanimate and water_nsq,
    /// as in the paper.
    pub const FULL_SYSTEM: [Benchmark; 11] = [
        Benchmark::Barnes,
        Benchmark::Blackscholes,
        Benchmark::Canneal,
        Benchmark::Fft,
        Benchmark::Fluidanimate,
        Benchmark::Fmm,
        Benchmark::Lu,
        Benchmark::Nlu,
        Benchmark::Radix,
        Benchmark::WaterNsq,
        Benchmark::WaterSpatial,
    ];

    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Barnes => "barnes",
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Canneal => "canneal",
            Benchmark::Ferret => "ferret",
            Benchmark::Fft => "fft",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::Fmm => "fmm",
            Benchmark::Lu => "lu",
            Benchmark::Nlu => "nlu",
            Benchmark::Radix => "radix",
            Benchmark::Swaptions => "swaptions",
            Benchmark::Vips => "vips",
            Benchmark::WaterNsq => "water_nsq",
            Benchmark::WaterSpatial => "water_spatial",
        }
    }

    /// The behavioural model of this benchmark.
    pub fn spec(self) -> BenchmarkSpec {
        // Working sets are expressed in 32-byte cache lines per thread.
        // 2048 lines = 64 KB (one L2 slice); the paper notes it used
        // small-scale working sets for tractability, which we mirror.
        match self {
            Benchmark::Barnes => BenchmarkSpec::new(self)
                .private_lines(1200)
                .shared_lines(4096)
                .shared_fraction(0.45)
                .write_fraction(0.25)
                .pattern(SharingPattern::Global)
                .reuse(0.55)
                .compute_per_mem(3)
                .barrier_interval(4_000),
            Benchmark::Blackscholes => BenchmarkSpec::new(self)
                .private_lines(700)
                .shared_lines(256)
                .shared_fraction(0.05)
                .write_fraction(0.15)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.75)
                .compute_per_mem(6)
                .barrier_interval(50_000),
            Benchmark::Canneal => BenchmarkSpec::new(self)
                .private_lines(3000)
                .shared_lines(16_384)
                .shared_fraction(0.55)
                .write_fraction(0.30)
                .pattern(SharingPattern::Global)
                .reuse(0.35)
                .compute_per_mem(2)
                .barrier_interval(20_000),
            Benchmark::Ferret => BenchmarkSpec::new(self)
                .private_lines(1500)
                .shared_lines(2048)
                .shared_fraction(0.30)
                .write_fraction(0.20)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.60)
                .compute_per_mem(4)
                .barrier_interval(25_000),
            Benchmark::Fft => BenchmarkSpec::new(self)
                .private_lines(1800)
                .shared_lines(8192)
                .shared_fraction(0.50)
                .write_fraction(0.35)
                .pattern(SharingPattern::Global)
                .reuse(0.40)
                .compute_per_mem(3)
                .barrier_interval(2_500),
            Benchmark::Fluidanimate => BenchmarkSpec::new(self)
                .private_lines(1400)
                .shared_lines(3072)
                .shared_fraction(0.35)
                .write_fraction(0.30)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.55)
                .compute_per_mem(3)
                .barrier_interval(3_000),
            Benchmark::Fmm => BenchmarkSpec::new(self)
                .private_lines(1600)
                .shared_lines(4096)
                .shared_fraction(0.40)
                .write_fraction(0.25)
                .pattern(SharingPattern::Global)
                .reuse(0.50)
                .compute_per_mem(4)
                .barrier_interval(5_000),
            Benchmark::Lu => BenchmarkSpec::new(self)
                .private_lines(900)
                .shared_lines(2048)
                .shared_fraction(0.30)
                .write_fraction(0.30)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.65)
                .compute_per_mem(3)
                .barrier_interval(4_000),
            Benchmark::Nlu => BenchmarkSpec::new(self)
                .private_lines(1100)
                .shared_lines(3072)
                .shared_fraction(0.35)
                .write_fraction(0.30)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.45)
                .compute_per_mem(3)
                .barrier_interval(4_000),
            Benchmark::Radix => BenchmarkSpec::new(self)
                .private_lines(2200)
                .shared_lines(8192)
                .shared_fraction(0.40)
                .write_fraction(0.45)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.30)
                .compute_per_mem(2)
                .barrier_interval(6_000),
            Benchmark::Swaptions => BenchmarkSpec::new(self)
                .private_lines(2600)
                .shared_lines(256)
                .shared_fraction(0.04)
                .write_fraction(0.20)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.60)
                .compute_per_mem(5)
                .barrier_interval(80_000),
            Benchmark::Vips => BenchmarkSpec::new(self)
                .private_lines(1700)
                .shared_lines(2048)
                .shared_fraction(0.25)
                .write_fraction(0.30)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.55)
                .compute_per_mem(4)
                .barrier_interval(30_000),
            Benchmark::WaterNsq => BenchmarkSpec::new(self)
                .private_lines(800)
                .shared_lines(2048)
                .shared_fraction(0.35)
                .write_fraction(0.25)
                .pattern(SharingPattern::Global)
                .reuse(0.60)
                .compute_per_mem(4)
                .barrier_interval(5_000),
            Benchmark::WaterSpatial => BenchmarkSpec::new(self)
                .private_lines(800)
                .shared_lines(1536)
                .shared_fraction(0.25)
                .write_fraction(0.25)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.65)
                .compute_per_mem(4)
                .barrier_interval(5_000),
        }
    }
}

/// Stall-heavy stress workloads (not part of the paper's benchmark suite):
/// shapes chosen so that the simulated system spends most of its time in
/// *globally quiet* phases — every core stalled, stragglers in the NoC —
/// punctuated by bursts. These are the phases where the paper's single-cycle
/// multi-hop NoC matters most, and the ones the event-driven scheduler's
/// fine-grained skip horizon exists for (they are its benchmark *and* its
/// regression trap: see `tests/equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StressKind {
    /// Tight global barrier phases: a short burst of chip-wide shared
    /// traffic, then every core parks at a barrier until the slowest
    /// straggler's miss drains. Run with barriers enabled (full-system
    /// replay mode).
    BarrierPhased,
    /// DRAM-bound: a working set far beyond the caches with almost no
    /// temporal reuse — nearly every access is an exposed off-chip stall,
    /// and the paired campaign scenario stretches the DRAM latency further.
    DramBound,
}

impl StressKind {
    /// Every stress kind, in declaration order.
    pub const ALL: [StressKind; 2] = [StressKind::BarrierPhased, StressKind::DramBound];

    /// Display name (figure x-labels, scenario labels).
    pub fn name(self) -> &'static str {
        match self {
            StressKind::BarrierPhased => "barrier_phased",
            StressKind::DramBound => "dram_bound",
        }
    }

    /// Whether this workload only makes sense with barrier modelling on.
    pub fn full_system(self) -> bool {
        matches!(self, StressKind::BarrierPhased)
    }

    /// The behavioural model of this stress workload. The underlying
    /// [`Benchmark`] identity only labels the spec; every parameter is
    /// overridden here.
    pub fn spec(self) -> BenchmarkSpec {
        match self {
            // A barrier every 8 memory ops over a small, hot, chip-wide
            // shared set: long park-and-wait phases with a handful of
            // coherence messages (the straggler's fill) still in flight.
            StressKind::BarrierPhased => BenchmarkSpec::new(Benchmark::Fft)
                .private_lines(64)
                .shared_lines(128)
                .shared_fraction(0.6)
                .write_fraction(0.4)
                .pattern(SharingPattern::Global)
                .reuse(0.2)
                .compute_per_mem(1)
                .barrier_interval(8),
            // A streaming scan through a working set that dwarfs the caches:
            // every few instructions the core stalls for a full DRAM round
            // trip, so run time is almost entirely exposed memory latency.
            StressKind::DramBound => BenchmarkSpec::new(Benchmark::Radix)
                .private_lines(65_536)
                .shared_lines(8_192)
                .shared_fraction(0.2)
                .write_fraction(0.3)
                .pattern(SharingPattern::Neighbor)
                .reuse(0.05)
                .compute_per_mem(1)
                .barrier_interval(100_000),
        }
    }
}

/// The behavioural model of one benchmark, consumed by
/// [`crate::trace::TraceGenerator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkSpec {
    /// Which benchmark this models.
    pub benchmark: Benchmark,
    /// Private (per-thread) working set, in cache lines.
    pub private_lines: u64,
    /// Shared working set, in cache lines (per sharing group for
    /// [`SharingPattern::Neighbor`], chip-wide for
    /// [`SharingPattern::Global`]).
    pub shared_lines: u64,
    /// Fraction of memory accesses that touch shared data.
    pub shared_fraction: f64,
    /// Fraction of memory accesses that are stores.
    pub write_fraction: f64,
    /// Communication pattern of the shared data.
    pub pattern: SharingPattern,
    /// Probability that an access re-uses a recently touched line
    /// (temporal locality).
    pub reuse: f64,
    /// Average number of non-memory instructions between memory accesses.
    pub compute_per_mem: u32,
    /// Memory operations between global barriers (used by the full-system
    /// synchronization-aware replay).
    pub barrier_interval: u64,
}

impl BenchmarkSpec {
    /// Starts a spec with neutral defaults for `benchmark`.
    pub fn new(benchmark: Benchmark) -> Self {
        BenchmarkSpec {
            benchmark,
            private_lines: 1024,
            shared_lines: 1024,
            shared_fraction: 0.25,
            write_fraction: 0.25,
            pattern: SharingPattern::Neighbor,
            reuse: 0.5,
            compute_per_mem: 3,
            barrier_interval: 10_000,
        }
    }

    /// Sets the private working-set size in lines.
    pub fn private_lines(mut self, v: u64) -> Self {
        self.private_lines = v;
        self
    }

    /// Sets the shared working-set size in lines.
    pub fn shared_lines(mut self, v: u64) -> Self {
        self.shared_lines = v;
        self
    }

    /// Sets the fraction of accesses touching shared data.
    pub fn shared_fraction(mut self, v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v), "shared_fraction must be in [0,1]");
        self.shared_fraction = v;
        self
    }

    /// Sets the store fraction.
    pub fn write_fraction(mut self, v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v), "write_fraction must be in [0,1]");
        self.write_fraction = v;
        self
    }

    /// Sets the sharing pattern.
    pub fn pattern(mut self, v: SharingPattern) -> Self {
        self.pattern = v;
        self
    }

    /// Sets the temporal-reuse probability.
    pub fn reuse(mut self, v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v), "reuse must be in [0,1]");
        self.reuse = v;
        self
    }

    /// Sets the average compute instructions per memory access.
    pub fn compute_per_mem(mut self, v: u32) -> Self {
        self.compute_per_mem = v;
        self
    }

    /// Sets the barrier interval (memory ops between barriers).
    pub fn barrier_interval(mut self, v: u64) -> Self {
        assert!(v > 0, "barrier_interval must be non-zero");
        self.barrier_interval = v;
        self
    }

    /// Barriers each thread's full-system trace of `mem_ops` memory ops
    /// holds: [`TraceGenerator`](crate::TraceGenerator) emits one after
    /// every `barrier_interval`-th op. At 0, a full-system trace is the
    /// plain trace, op for op.
    pub fn barriers_per_thread(&self, mem_ops: u64) -> u64 {
        mem_ops / self.barrier_interval
    }

    /// Total per-thread footprint in lines (private + its view of shared).
    pub fn footprint_lines(&self) -> u64 {
        self.private_lines + self.shared_lines
    }

    /// Scales the working set down by `divisor` (at least 16 lines remain in
    /// each region).
    ///
    /// The experiment campaigns shrink both the caches and the working sets
    /// by the same factor so that short traces exercise the same
    /// capacity-pressure regime as the paper's billion-instruction runs on
    /// the Table-1 caches (see DESIGN.md §3 and EXPERIMENTS.md).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn scaled_down(mut self, divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be non-zero");
        self.private_lines = (self.private_lines / divisor).max(16);
        self.shared_lines = (self.shared_lines / divisor).max(16);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_has_a_consistent_spec() {
        for b in [
            Benchmark::Barnes,
            Benchmark::Blackscholes,
            Benchmark::Canneal,
            Benchmark::Ferret,
            Benchmark::Fft,
            Benchmark::Fluidanimate,
            Benchmark::Fmm,
            Benchmark::Lu,
            Benchmark::Nlu,
            Benchmark::Radix,
            Benchmark::Swaptions,
            Benchmark::Vips,
            Benchmark::WaterNsq,
            Benchmark::WaterSpatial,
        ] {
            let s = b.spec();
            assert_eq!(s.benchmark, b);
            assert!(s.private_lines > 0);
            assert!(s.shared_lines > 0);
            assert!((0.0..=1.0).contains(&s.shared_fraction));
            assert!((0.0..=1.0).contains(&s.write_fraction));
            assert!(s.compute_per_mem > 0);
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn parse_inverts_name_for_every_benchmark() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.name()), Some(b));
        }
        assert_eq!(Benchmark::parse("doom"), None);
    }

    #[test]
    fn trace_driven_suite_matches_figures() {
        assert_eq!(Benchmark::TRACE_DRIVEN.len(), 8);
        assert!(Benchmark::TRACE_DRIVEN.contains(&Benchmark::Swaptions));
        assert!(!Benchmark::FULL_SYSTEM.contains(&Benchmark::Swaptions));
        assert!(Benchmark::FULL_SYSTEM.contains(&Benchmark::Fft));
    }

    #[test]
    fn sharing_patterns_distinguish_barnes_from_blackscholes() {
        // Section 4.3: barnes/fft communicate chip-wide, blackscholes/lu
        // between neighbours.
        assert_eq!(Benchmark::Barnes.spec().pattern, SharingPattern::Global);
        assert_eq!(Benchmark::Fft.spec().pattern, SharingPattern::Global);
        assert_eq!(
            Benchmark::Blackscholes.spec().pattern,
            SharingPattern::Neighbor
        );
        assert_eq!(Benchmark::Lu.spec().pattern, SharingPattern::Neighbor);
    }

    #[test]
    #[should_panic(expected = "shared_fraction")]
    fn builder_validates_fractions() {
        BenchmarkSpec::new(Benchmark::Lu).shared_fraction(1.5);
    }

    #[test]
    fn stress_workloads_are_stall_shaped() {
        for kind in StressKind::ALL {
            let s = kind.spec();
            assert!(s.compute_per_mem <= 1, "{kind:?} must be memory-dominated");
            assert!(!kind.name().is_empty());
        }
        let barrier = StressKind::BarrierPhased.spec();
        assert!(
            barrier.barrier_interval <= 16,
            "barrier phases must be tight (got {})",
            barrier.barrier_interval
        );
        assert!(StressKind::BarrierPhased.full_system());
        let dram = StressKind::DramBound.spec();
        assert!(
            dram.footprint_lines() > 16 * 2048,
            "DRAM-bound working set must dwarf the caches"
        );
        assert!(dram.reuse < 0.1, "DRAM-bound traffic must not cache well");
        assert!(!StressKind::DramBound.full_system());
    }

    #[test]
    fn scaled_down_divides_working_sets_with_a_floor() {
        let s = Benchmark::Barnes.spec().scaled_down(8);
        assert_eq!(s.private_lines, Benchmark::Barnes.spec().private_lines / 8);
        assert_eq!(s.shared_lines, Benchmark::Barnes.spec().shared_lines / 8);
        let tiny = BenchmarkSpec::new(Benchmark::Lu)
            .private_lines(20)
            .shared_lines(20)
            .scaled_down(100);
        assert_eq!(tiny.private_lines, 16);
        assert_eq!(tiny.shared_lines, 16);
    }
}
