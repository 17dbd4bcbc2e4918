//! Scale parameters of the experiments reproducing the paper's evaluation
//! (Section 4).
//!
//! The experiments themselves live in [`crate::campaign`]: every figure is a
//! [`crate::campaign::FigureSpec`] with a pure *assemble* pass (how its
//! figures are built from a completed [`crate::campaign::ResultSet`]) and a
//! pure *enumerate* pass derived from it (which
//! [`crate::campaign::Scenario`]s assembly reads), and
//! [`crate::campaign::Executor`] runs the scenarios in parallel. The
//! `reproduce` CLI drives all three and emits `EXPERIMENTS.md`.

use loco_cache::{ClusterShape, OrganizationKind};
use loco_noc::RouterKind;
use loco_sim::SystemConfig;
use loco_workloads::Benchmark;

/// Scale parameters of an experiment campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Mesh width in tiles.
    pub mesh_width: u16,
    /// Mesh height in tiles.
    pub mesh_height: u16,
    /// Default LOCO cluster shape.
    pub cluster: ClusterShape,
    /// Memory operations generated per core.
    pub mem_ops_per_core: u64,
    /// Trace-generation seed.
    pub seed: u64,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
    /// Divisor applied to both the cache capacities (L1 / L2 slice) and the
    /// benchmarks' working sets. The paper runs billions of instructions
    /// against the Table-1 caches; our traces are orders of magnitude
    /// shorter, so scaling caches and working sets together keeps the
    /// capacity-pressure *regime* identical while runs stay tractable
    /// (see DESIGN.md §3). Set to 1 for unscaled Table-1 capacities.
    pub working_set_scale: u64,
}

impl ExperimentParams {
    /// The paper's 64-core CMP (8x8 mesh, 4x4 clusters).
    pub fn paper_64() -> Self {
        ExperimentParams {
            mesh_width: 8,
            mesh_height: 8,
            cluster: ClusterShape::new(4, 4),
            mem_ops_per_core: 2_000,
            seed: 42,
            max_cycles: 50_000_000,
            working_set_scale: 8,
        }
    }

    /// The paper's 256-core CMP (16x16 mesh, 4x4 clusters). The per-core
    /// trace is shorter, mirroring the paper's own 2-billion-instruction cap
    /// on trace-driven runs.
    pub fn paper_256() -> Self {
        ExperimentParams {
            mesh_width: 16,
            mesh_height: 16,
            mem_ops_per_core: 700,
            ..Self::paper_64()
        }
    }

    /// A reduced 16-core configuration for unit tests and smoke runs.
    pub fn quick() -> Self {
        ExperimentParams {
            mesh_width: 4,
            mesh_height: 4,
            cluster: ClusterShape::new(2, 2),
            mem_ops_per_core: 200,
            seed: 42,
            max_cycles: 5_000_000,
            working_set_scale: 8,
        }
    }

    /// Scales the trace length (e.g. `with_mem_ops(500)` for faster runs).
    pub fn with_mem_ops(mut self, mem_ops: u64) -> Self {
        self.mem_ops_per_core = mem_ops;
        self
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.mesh_width as usize * self.mesh_height as usize
    }

    /// A short label ("64-core", "256-core", ...).
    pub fn label(&self) -> String {
        format!("{}-core", self.num_cores())
    }

    pub(crate) fn system(
        &self,
        org: OrganizationKind,
        router: RouterKind,
        cluster: ClusterShape,
        fs: bool,
    ) -> SystemConfig {
        let mut cfg = SystemConfig::asplos_64(org)
            .with_router(router)
            .with_cluster(cluster)
            .with_full_system(fs);
        cfg.mesh_width = self.mesh_width;
        cfg.mesh_height = self.mesh_height;
        let scale = self.working_set_scale.max(1);
        cfg.l1.size_bytes = (cfg.l1.size_bytes / scale).max(1024);
        cfg.l2.geometry.size_bytes = (cfg.l2.geometry.size_bytes / scale).max(2048);
        cfg
    }

    pub(crate) fn scaled_spec(&self, benchmark: Benchmark) -> loco_workloads::BenchmarkSpec {
        benchmark.spec().scaled_down(self.working_set_scale.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignPlan, Executor, FigureSpec};
    use crate::report::Figure;

    fn quick_benchmarks() -> Vec<Benchmark> {
        vec![Benchmark::Lu, Benchmark::Blackscholes]
    }

    /// Plans one figure at the quick scale, executes it and assembles it.
    fn figures(spec: FigureSpec) -> Vec<Figure> {
        let params = ExperimentParams::quick();
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        let results = Executor::all_cores().execute(&params, &plan);
        spec.assemble(&params, &results)
    }

    fn figure(spec: FigureSpec) -> Figure {
        let mut figs = figures(spec);
        assert_eq!(figs.len(), 1);
        figs.remove(0)
    }

    #[test]
    fn fig06_has_one_series_with_average() {
        let fig = figure(FigureSpec::Fig06 {
            benchmarks: quick_benchmarks(),
        });
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.x_labels.len(), 3); // 2 benchmarks + AVG
        assert!(fig.average_of("Private Cache").unwrap() > 0.0);
    }

    #[test]
    fn fig11_normalizes_shared_to_one() {
        let fig = figure(FigureSpec::Fig11 {
            benchmarks: quick_benchmarks(),
        });
        assert_eq!(fig.series.len(), 4);
        let shared_avg = fig.average_of("Shared Cache").unwrap();
        assert!((shared_avg - 1.0).abs() < 1e-9);
        for s in &fig.series {
            for v in &s.values {
                assert!(*v > 0.0 && v.is_finite());
            }
        }
    }

    #[test]
    fn fig09_search_delay_produces_positive_values() {
        let fig = figure(FigureSpec::Fig09 {
            benchmarks: vec![Benchmark::Barnes],
        });
        assert_eq!(fig.series.len(), 2);
        assert!(fig.average_of("LOCO CC+VMS").unwrap() > 0.0);
    }

    #[test]
    fn fig15_runs_a_truncated_workload_on_the_quick_mesh() {
        let figs = figures(FigureSpec::Fig15 { workloads: vec![0] });
        assert_eq!(figs.len(), 2);
        let (off, run) = (&figs[0], &figs[1]);
        assert_eq!(off.series.len(), 3);
        assert_eq!(run.series.len(), 3);
        assert!(run.average_of("Shared Cache").unwrap() > 0.0);
    }

    /// DESIGN.md §3: caches shrink with the working set, down to a floor of
    /// 1024 bytes (L1) and 2048 bytes (L2 slice).
    #[test]
    fn system_scales_caches_down_to_their_floors() {
        let sizes = |working_set_scale: u64| {
            let params = ExperimentParams {
                working_set_scale,
                ..ExperimentParams::quick()
            };
            let cfg = params.system(
                OrganizationKind::LocoCcVms,
                RouterKind::Smart,
                ClusterShape::new(2, 2),
                false,
            );
            assert_eq!((cfg.mesh_width, cfg.mesh_height), (4, 4));
            (cfg.l1.size_bytes, cfg.l2.geometry.size_bytes)
        };
        assert_eq!(sizes(1), (16 * 1024, 64 * 1024), "Table-1 capacities");
        assert_eq!(sizes(8), (2 * 1024, 8 * 1024));
        assert_eq!(sizes(1 << 20), (1024, 2048), "floors");
    }
}
