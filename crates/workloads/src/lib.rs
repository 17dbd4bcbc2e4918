//! # loco-workloads — synthetic SPLASH-2 / PARSEC benchmark models
//!
//! The paper drives its evaluation with Graphite-generated traces of the
//! SPLASH-2 and PARSEC benchmark suites. Neither the benchmark binaries nor
//! the Graphite tracer are available here, so this crate substitutes
//! parameterized synthetic models of each benchmark (see DESIGN.md §3):
//! every benchmark is described by its per-thread working-set size, the
//! fraction and footprint of shared data, its read/write mix, its
//! communication pattern (neighbour-concentrated vs. chip-wide, following
//! the characterization of Barrow-Williams et al., IISWC 2009, which the
//! paper itself cites), and its synchronization density.
//!
//! From a [`BenchmarkSpec`] the [`trace::TraceGenerator`] produces per-core
//! instruction traces ([`trace::TraceOp`]) that the `loco-sim` crate replays
//! against any cache organization.
//!
//! A generated [`CoreTrace`] is a recipe (seed, thread, benchmark spec,
//! length), not a list of ops: [`CoreTrace::ops`] replays it through a
//! [`TraceCursor`] that runs the generator one memory op at a time, so a
//! trace takes under 1 KB however long it is (DESIGN.md §1). The simulator
//! pulls each core's ops from such a cursor as they retire;
//! [`CoreTrace::memory_ops`], [`CoreTrace::barriers`] and
//! [`CoreTrace::is_empty`] answer from the recipe without replaying.
//!
//! The crate also defines the paper's multi-program consolidation workloads
//! W0–W9 (Table 2) in [`multiprogram`].
//!
//! ```rust
//! use loco_workloads::{Benchmark, TraceGenerator, TraceOp};
//!
//! let spec = Benchmark::Barnes.spec();
//! let traces = TraceGenerator::new(42).generate(&spec, 64, 1_000);
//! assert_eq!(traces.len(), 64);
//! assert!(traces[0].memory_ops() > 0);
//! let first_write = traces[0].ops().find(|op| matches!(op, TraceOp::Write(_)));
//! assert!(first_write.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod multiprogram;
pub mod trace;

pub use benchmarks::{Benchmark, BenchmarkSpec, SharingPattern, StressKind};
pub use multiprogram::{MultiProgramWorkload, TaskAssignment};
pub use trace::{CoreTrace, TraceCursor, TraceGenerator, TraceOp};
