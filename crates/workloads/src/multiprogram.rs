//! The multi-program consolidation workloads of Table 2.
//!
//! Each workload W0–W9 runs several independent task instances on the
//! 64-core CMP; every instance gets its own cluster and its own address
//! space (tasks do not share memory, so no second-level coherence is needed
//! between clusters — exactly the scenario of Section 4.2, "Multi-program
//! Workloads").

use crate::benchmarks::Benchmark;
use crate::trace::{CoreTrace, TraceGenerator};

/// One task of a multi-program workload: `instances` copies of `benchmark`,
/// each running with `threads` threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// The program.
    pub benchmark: Benchmark,
    /// Threads per instance.
    pub threads: usize,
    /// Number of instances.
    pub instances: usize,
}

/// The mapping of one task instance onto cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAssignment {
    /// The program.
    pub benchmark: Benchmark,
    /// Global task-instance index (also used as the address-space id).
    pub task_id: usize,
    /// The cores (tile indices) running this instance, in thread order.
    pub cores: Vec<usize>,
}

/// A multi-program workload: a list of tasks filling the 64-core CMP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiProgramWorkload {
    name: &'static str,
    tasks: Vec<TaskSpec>,
}

impl MultiProgramWorkload {
    /// The workloads W0–W9 of Table 2.
    pub fn table2() -> Vec<MultiProgramWorkload> {
        use Benchmark::*;
        let w = |name, list: &[(Benchmark, usize, usize)]| MultiProgramWorkload {
            name,
            tasks: list
                .iter()
                .map(|&(benchmark, threads, instances)| TaskSpec {
                    benchmark,
                    threads,
                    instances,
                })
                .collect(),
        };
        vec![
            w(
                "W0",
                &[
                    (Blackscholes, 4, 4),
                    (Ferret, 4, 4),
                    (Fmm, 4, 4),
                    (Lu, 4, 4),
                ],
            ),
            w(
                "W1",
                &[
                    (Nlu, 4, 4),
                    (Swaptions, 4, 4),
                    (WaterNsq, 4, 4),
                    (WaterSpatial, 4, 4),
                ],
            ),
            w(
                "W2",
                &[
                    (Blackscholes, 4, 4),
                    (Ferret, 4, 4),
                    (WaterNsq, 4, 4),
                    (WaterSpatial, 4, 4),
                ],
            ),
            w(
                "W3",
                &[(Fmm, 4, 4), (Lu, 4, 4), (Nlu, 4, 4), (Swaptions, 4, 4)],
            ),
            w(
                "W4",
                &[
                    (Blackscholes, 4, 4),
                    (Ferret, 4, 4),
                    (Nlu, 4, 4),
                    (Swaptions, 4, 4),
                ],
            ),
            w(
                "W5",
                &[
                    (Blackscholes, 8, 2),
                    (Ferret, 8, 2),
                    (Fmm, 8, 2),
                    (Lu, 8, 2),
                ],
            ),
            w(
                "W6",
                &[
                    (Nlu, 8, 2),
                    (Swaptions, 8, 2),
                    (WaterNsq, 8, 2),
                    (WaterSpatial, 8, 2),
                ],
            ),
            w(
                "W7",
                &[
                    (Blackscholes, 8, 2),
                    (Ferret, 8, 2),
                    (WaterNsq, 8, 2),
                    (WaterSpatial, 8, 2),
                ],
            ),
            w(
                "W8",
                &[
                    (Blackscholes, 16, 1),
                    (Ferret, 16, 1),
                    (Fmm, 16, 1),
                    (Lu, 16, 1),
                ],
            ),
            w(
                "W9",
                &[
                    (Nlu, 16, 1),
                    (Swaptions, 16, 1),
                    (WaterNsq, 16, 1),
                    (WaterSpatial, 16, 1),
                ],
            ),
        ]
    }

    /// One workload of Table 2 by index (0–9).
    ///
    /// # Panics
    ///
    /// Panics if `i > 9`.
    pub fn table2_entry(i: usize) -> MultiProgramWorkload {
        Self::table2()
            .into_iter()
            .nth(i)
            .expect("workload index 0..=9")
    }

    /// Workload name ("W0" .. "W9").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The task list.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Threads per task instance (uniform within one workload in Table 2).
    pub fn threads_per_task(&self) -> usize {
        self.tasks[0].threads
    }

    /// Total number of cores the workload occupies.
    pub fn total_cores(&self) -> usize {
        self.tasks.iter().map(|t| t.threads * t.instances).sum()
    }

    /// Assigns task instances to consecutive blocks of cores (each block is
    /// one cluster when the cluster size equals the thread count, as in the
    /// paper's evaluation).
    pub fn assign_cores(&self) -> Vec<TaskAssignment> {
        let mut out = Vec::new();
        let mut next_core = 0usize;
        let mut task_id = 0usize;
        for task in &self.tasks {
            for _ in 0..task.instances {
                let cores: Vec<usize> = (next_core..next_core + task.threads).collect();
                next_core += task.threads;
                out.push(TaskAssignment {
                    benchmark: task.benchmark,
                    task_id,
                    cores,
                });
                task_id += 1;
            }
        }
        out
    }

    /// The per-core traces of the whole workload on a `total_cores()` CMP,
    /// with every task's working set scaled down by `ws_divisor` (1 keeps
    /// it whole; see [`crate::BenchmarkSpec::scaled_down`]). Like
    /// [`TraceGenerator::generate`], this only records each trace's recipe;
    /// the ops are generated as they are replayed. The returned vector is
    /// indexed by core id; cores outside any task (none, for Table 2)
    /// receive empty traces.
    pub fn generate_traces_scaled(
        &self,
        mem_ops_per_thread: u64,
        seed: u64,
        ws_divisor: u64,
    ) -> Vec<CoreTrace> {
        let mut per_core = vec![CoreTrace::default(); self.total_cores()];
        for assignment in self.assign_cores() {
            let spec = assignment.benchmark.spec().scaled_down(ws_divisor.max(1));
            let traces = TraceGenerator::new(seed)
                .with_task_offset(assignment.task_id as u64 + 1)
                .generate(&spec, assignment.cores.len(), mem_ops_per_thread);
            for (trace, &core) in traces.into_iter().zip(&assignment.cores) {
                per_core[core] = trace;
            }
        }
        per_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp;
    use std::collections::HashSet;

    #[test]
    fn table2_has_ten_workloads_filling_64_cores() {
        let all = MultiProgramWorkload::table2();
        assert_eq!(all.len(), 10);
        for w in &all {
            assert_eq!(
                w.total_cores(),
                64,
                "{} must fill the 64-core CMP",
                w.name()
            );
        }
    }

    #[test]
    fn thread_counts_follow_table2() {
        assert_eq!(MultiProgramWorkload::table2_entry(0).threads_per_task(), 4);
        assert_eq!(MultiProgramWorkload::table2_entry(4).threads_per_task(), 4);
        assert_eq!(MultiProgramWorkload::table2_entry(5).threads_per_task(), 8);
        assert_eq!(MultiProgramWorkload::table2_entry(8).threads_per_task(), 16);
        assert_eq!(MultiProgramWorkload::table2_entry(9).threads_per_task(), 16);
    }

    #[test]
    fn core_assignment_is_a_partition() {
        for w in MultiProgramWorkload::table2() {
            let mut seen = HashSet::new();
            for a in w.assign_cores() {
                for c in &a.cores {
                    assert!(seen.insert(*c), "core {c} assigned twice in {}", w.name());
                }
            }
            assert_eq!(seen.len(), 64);
        }
    }

    #[test]
    fn w0_has_16_instances_of_4_threads() {
        let w = MultiProgramWorkload::table2_entry(0);
        let assignments = w.assign_cores();
        assert_eq!(assignments.len(), 16);
        assert!(assignments.iter().all(|a| a.cores.len() == 4));
    }

    #[test]
    fn different_tasks_never_share_addresses() {
        let w = MultiProgramWorkload::table2_entry(2);
        let traces = w.generate_traces_scaled(300, 11, 1);
        let assignments = w.assign_cores();
        let lines_of_task = |task: &TaskAssignment| -> HashSet<u64> {
            task.cores
                .iter()
                .flat_map(|&c| traces[c].ops())
                .filter_map(|o| match o {
                    TraceOp::Read(a) | TraceOp::Write(a) => Some(a / 32),
                    _ => None,
                })
                .collect()
        };
        let t0 = lines_of_task(&assignments[0]);
        let t5 = lines_of_task(&assignments[5]);
        assert!(!t0.is_empty() && !t5.is_empty());
        assert!(t0.is_disjoint(&t5));
    }

    #[test]
    #[should_panic(expected = "workload index")]
    fn out_of_range_workload_panics() {
        MultiProgramWorkload::table2_entry(10);
    }
}
