//! # loco-bench — the `reproduce` CLI and its campaign composition
//!
//! * The `reproduce` binary plans, executes (in parallel, via
//!   `loco::campaign::Executor`) and assembles every table and figure of
//!   the paper's evaluation (`cargo run --release -p loco-bench --bin
//!   reproduce -- --help`).
//! * The library hosts the campaign-composition helpers it shares with the
//!   repository benchmark (`perfbench/`): which benchmarks, cluster shapes
//!   and Table-2 workloads each scale sweeps, and the [`figure_specs`]
//!   builder that turns figure numbers into `loco::campaign::FigureSpec`s.
//!
//! Timing is `perfbench`'s job. The design-knob ablations are a test of
//! simulated cycles (`tests/integration_system.rs`), and Section 2's
//! corner-to-corner NoC latency check is a NoC property test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use loco::{Benchmark, ClusterShape, ExperimentParams, FigureSpec};

/// Which experiment scale a harness invocation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 16-core smoke scale (seconds).
    Quick,
    /// The paper's 64-core CMP.
    Cores64,
    /// The paper's 256-core CMP.
    Cores256,
}

impl Scale {
    /// Parses a scale name (`quick`, `paper64`, `paper256`; the bare `64` /
    /// `256` spellings of the original CLI are also accepted).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "64" | "paper64" => Some(Scale::Cores64),
            "256" | "paper256" => Some(Scale::Cores256),
            _ => None,
        }
    }

    /// The experiment parameters for this scale.
    pub fn params(self) -> ExperimentParams {
        match self {
            Scale::Quick => ExperimentParams::quick(),
            Scale::Cores64 => ExperimentParams::paper_64(),
            Scale::Cores256 => ExperimentParams::paper_256(),
        }
    }
}

/// The benchmark list used by a scale (the full 8-benchmark suite for the
/// paper scales, a 3-benchmark subset for the quick scale).
pub fn benchmarks_for(scale: Scale) -> Vec<Benchmark> {
    match scale {
        Scale::Quick => vec![Benchmark::Lu, Benchmark::Blackscholes, Benchmark::Barnes],
        _ => Benchmark::TRACE_DRIVEN.to_vec(),
    }
}

/// The benchmark list for the full-system figure.
pub fn fullsystem_benchmarks_for(scale: Scale) -> Vec<Benchmark> {
    match scale {
        Scale::Quick => vec![Benchmark::Lu, Benchmark::Fft],
        _ => Benchmark::FULL_SYSTEM.to_vec(),
    }
}

/// The cluster shapes Figure 14 sweeps at this scale (the quick mesh is too
/// small for the paper's 4x4 clusters).
pub fn cluster_shapes_for(scale: Scale) -> Vec<ClusterShape> {
    match scale {
        Scale::Quick => vec![
            ClusterShape::new(2, 1),
            ClusterShape::new(4, 1),
            ClusterShape::new(2, 2),
        ],
        _ => vec![
            ClusterShape::new(4, 1),
            ClusterShape::new(8, 1),
            ClusterShape::new(4, 4),
        ],
    }
}

/// The Table-2 workload indices Figure 15 runs at this scale.
pub fn workloads_for(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![0, 5],
        _ => (0..10).collect(),
    }
}

/// The range of figure numbers the harness knows: 6–16 mirror the paper's
/// evaluation, 17 (energy breakdown) and 18 (energy-delay product) are the
/// energy figures this reproduction adds, and 19 is the stall-heavy stress
/// sweep (barrier-phased / DRAM-bound workloads under the three NoCs).
pub const FIGURE_NUMBERS: std::ops::RangeInclusive<u32> = 6..=19;

/// Builds the `FigureSpec` for one figure number (see [`FIGURE_NUMBERS`])
/// at this scale, optionally overriding the benchmark x-axis (`None` uses
/// the scale's default suite). Returns `None` for numbers outside the
/// range.
pub fn figure_spec(scale: Scale, number: u32, benchmarks: Option<&[Benchmark]>) -> Option<FigureSpec> {
    let suite = |def: fn(Scale) -> Vec<Benchmark>| -> Vec<Benchmark> {
        benchmarks.map_or_else(|| def(scale), <[Benchmark]>::to_vec)
    };
    let b = || suite(benchmarks_for);
    Some(match number {
        6 => FigureSpec::Fig06 { benchmarks: b() },
        7 => FigureSpec::Fig07 { benchmarks: b() },
        8 => FigureSpec::Fig08 { benchmarks: b() },
        9 => FigureSpec::Fig09 { benchmarks: b() },
        10 => FigureSpec::Fig10 { benchmarks: b() },
        11 => FigureSpec::Fig11 { benchmarks: b() },
        12 => FigureSpec::Fig12 { benchmarks: b() },
        13 => FigureSpec::Fig13 { benchmarks: b() },
        14 => FigureSpec::Fig14 {
            benchmarks: b(),
            shapes: cluster_shapes_for(scale),
        },
        15 => FigureSpec::Fig15 {
            workloads: workloads_for(scale),
        },
        16 => FigureSpec::Fig16 {
            benchmarks: suite(fullsystem_benchmarks_for),
        },
        17 => FigureSpec::Fig17Energy { benchmarks: b() },
        18 => FigureSpec::Fig18Edp {
            benchmarks: b(),
            shapes: cluster_shapes_for(scale),
        },
        19 => FigureSpec::Fig19Stall,
        _ => return None,
    })
}

/// The `FigureSpec`s for a list of figure numbers, in the given order.
/// Unknown numbers are skipped (the callers warn about them separately).
pub fn figure_specs(scale: Scale, numbers: &[u32], benchmarks: Option<&[Benchmark]>) -> Vec<FigureSpec> {
    numbers
        .iter()
        .filter_map(|&n| figure_spec(scale, n, benchmarks))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loco::CampaignPlan;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("64"), Some(Scale::Cores64));
        assert_eq!(Scale::parse("256"), Some(Scale::Cores256));
        assert_eq!(Scale::parse("paper64"), Some(Scale::Cores64));
        assert_eq!(Scale::parse("paper256"), Some(Scale::Cores256));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn figure_specs_cover_the_whole_evaluation() {
        let all: Vec<u32> = FIGURE_NUMBERS.collect();
        let specs = figure_specs(Scale::Quick, &all, None);
        assert_eq!(specs.len(), 14);
        for (spec, number) in specs.iter().zip(FIGURE_NUMBERS) {
            assert_eq!(spec.number(), number);
            assert!(!spec.title(&Scale::Quick.params()).is_empty());
        }
        assert!(figure_spec(Scale::Quick, 5, None).is_none());
        assert!(figure_spec(Scale::Quick, 20, None).is_none());
    }

    /// The size of every figure's plan (distinct scenarios), and of the
    /// whole campaign, as `reproduce` runs it at the quick and paper64
    /// scales. Planning runs no simulation, so this pins all 152 paper64
    /// scenarios for free.
    #[test]
    fn plan_sizes_per_figure_are_pinned() {
        for (scale, sizes, total) in [
            (Scale::Quick, [6, 9, 6, 6, 9, 12, 12, 12, 15, 6, 8, 15, 12, 6], 47),
            (Scale::Cores64, [16, 24, 16, 16, 24, 32, 32, 32, 40, 30, 44, 40, 32, 6], 152),
        ] {
            let params = scale.params();
            let specs = figure_specs(scale, &FIGURE_NUMBERS.collect::<Vec<_>>(), None);
            let mut campaign = CampaignPlan::new();
            for (spec, size) in specs.iter().zip(sizes) {
                let mut plan = CampaignPlan::new();
                plan.add_figure(spec, &params);
                assert_eq!(plan.len(), size, "fig{:02} at {scale:?}", spec.number());
                campaign.add_figure(spec, &params);
            }
            assert_eq!(campaign.len(), total, "campaign at {scale:?}");
        }
    }

    #[test]
    fn benchmark_override_reaches_the_spec() {
        let spec = figure_spec(Scale::Cores64, 6, Some(&[Benchmark::Lu])).unwrap();
        assert_eq!(
            spec,
            FigureSpec::Fig06 {
                benchmarks: vec![Benchmark::Lu]
            }
        );
    }

    #[test]
    fn scales_map_to_params() {
        assert_eq!(Scale::Quick.params().num_cores(), 16);
        assert_eq!(Scale::Cores64.params().num_cores(), 64);
        assert_eq!(Scale::Cores256.params().num_cores(), 256);
    }

    #[test]
    fn benchmark_lists_are_nonempty() {
        for s in [Scale::Quick, Scale::Cores64, Scale::Cores256] {
            assert!(!benchmarks_for(s).is_empty());
            assert!(!fullsystem_benchmarks_for(s).is_empty());
        }
        assert_eq!(benchmarks_for(Scale::Cores64).len(), 8);
        assert_eq!(fullsystem_benchmarks_for(Scale::Cores64).len(), 11);
    }
}
