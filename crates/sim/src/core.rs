//! The in-order core model replaying one trace.
//!
//! The paper's target cores are 2-way in-order SPARC processors that block
//! on demand misses; we model them as 1-IPC in-order cores (non-memory
//! instructions retire one per cycle, memory instructions stall the core
//! until the L1 fill returns), which preserves the property the evaluation
//! depends on: run time is compute time plus exposed memory latency.

use loco_cache::{Address, L1Access, L1Controller, Outgoing};
use loco_noc::NodeId;
use loco_workloads::{CoreTrace, TraceOp};

/// What the core did this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// Still executing.
    Running,
    /// Stalled on an outstanding memory access.
    Stalled,
    /// Waiting at a barrier (the system releases it).
    AtBarrier(u32),
    /// The trace is fully executed.
    Finished,
}

/// Synthetic address region used for barrier flag lines.
const BARRIER_FLAG_BASE: u64 = 0x4000_0000_0000;

/// An in-order core replaying a [`CoreTrace`].
#[derive(Debug)]
pub struct CoreModel {
    node: NodeId,
    trace: CoreTrace,
    /// Barrier group this core belongs to (task id for multi-program
    /// workloads, 0 otherwise).
    group: usize,
    pc: usize,
    compute_remaining: u32,
    stalled: bool,
    /// Barrier the core is waiting at (set after its flag access returns).
    waiting_barrier: Option<u32>,
    /// Whether the barrier in `waiting_barrier` has been reported to the
    /// system through a [`CoreStatus::AtBarrier`] tick at least once. Until
    /// then the core must keep ticking (the system registers the arrival
    /// from the returned status); afterwards further ticks are idempotent
    /// re-registrations and event-driven runs may skip them.
    barrier_announced: bool,
    /// Barrier access currently being performed (flag read outstanding).
    barrier_in_flight: Option<u32>,
    instructions: u64,
    finished_at: Option<u64>,
}

impl CoreModel {
    /// Creates a core at `node` replaying `trace` as part of barrier
    /// `group`.
    pub fn new(node: NodeId, trace: CoreTrace, group: usize) -> Self {
        CoreModel {
            node,
            trace,
            group,
            pc: 0,
            compute_remaining: 0,
            stalled: false,
            waiting_barrier: None,
            barrier_announced: false,
            barrier_in_flight: None,
            instructions: 0,
            finished_at: None,
        }
    }

    /// The tile this core sits on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The barrier group of this core.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Cycle at which the trace completed, if it has.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// Whether the trace is fully executed.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// The flag address used for barrier `id` of this core's group.
    pub fn barrier_flag_address(group: usize, id: u32) -> Address {
        Address(BARRIER_FLAG_BASE + ((group as u64) << 24) + u64::from(id) * 32)
    }

    /// Notification that the outstanding L1 miss completed.
    pub fn on_fill(&mut self) {
        self.stalled = false;
        if let Some(id) = self.barrier_in_flight.take() {
            // The barrier flag access finished: now wait for the release.
            self.waiting_barrier = Some(id);
            self.barrier_announced = false;
        }
    }

    /// Notification that the barrier this core was waiting at released.
    pub fn on_barrier_release(&mut self) {
        self.waiting_barrier = None;
        self.barrier_announced = false;
    }

    /// Whether skipping this core's [`CoreModel::tick`] next cycle would
    /// change observable behaviour.
    ///
    /// `false` exactly when the tick is provably a no-op: the trace is
    /// finished, the core is stalled on an outstanding L1 fill (woken by
    /// [`CoreModel::on_fill`]), or it sits at a barrier whose arrival has
    /// already been announced (woken by [`CoreModel::on_barrier_release`]).
    /// Everything else — compute, ready memory ops, a pending finish
    /// transition, an unannounced barrier — must tick every cycle.
    pub fn needs_tick(&self) -> bool {
        !self.is_finished()
            && !self.stalled
            && (self.waiting_barrier.is_none() || !self.barrier_announced)
    }

    /// The barrier this core is currently waiting at, if any.
    pub fn waiting_barrier(&self) -> Option<u32> {
        self.waiting_barrier
    }

    /// Advances the core by one cycle.
    ///
    /// Returns the core's status after the cycle; when the status is
    /// [`CoreStatus::AtBarrier`] for the first time the caller must register
    /// the arrival with its barrier tracker.
    pub fn tick(
        &mut self,
        now: u64,
        l1: &mut L1Controller,
        out: &mut Vec<Outgoing>,
        model_barriers: bool,
    ) -> CoreStatus {
        if self.is_finished() {
            return CoreStatus::Finished;
        }
        if self.stalled {
            return CoreStatus::Stalled;
        }
        if let Some(id) = self.waiting_barrier {
            self.barrier_announced = true;
            return CoreStatus::AtBarrier(id);
        }
        if self.compute_remaining > 0 {
            self.compute_remaining -= 1;
            self.instructions += 1;
            return CoreStatus::Running;
        }
        let Some(op) = self.trace.op(self.pc) else {
            self.finished_at = Some(now);
            return CoreStatus::Finished;
        };
        match op {
            TraceOp::Compute(n) => {
                self.pc += 1;
                // The first of the n instructions retires this cycle.
                self.instructions += 1;
                self.compute_remaining = n.saturating_sub(1);
                CoreStatus::Running
            }
            TraceOp::Read(addr) | TraceOp::Write(addr) => {
                let is_write = matches!(op, TraceOp::Write(_));
                match l1.access(Address(addr), is_write, now, out) {
                    L1Access::Hit => {
                        self.pc += 1;
                        self.instructions += 1;
                        CoreStatus::Running
                    }
                    L1Access::Miss => {
                        self.pc += 1;
                        self.instructions += 1;
                        self.stalled = true;
                        CoreStatus::Stalled
                    }
                    L1Access::Busy => CoreStatus::Stalled,
                }
            }
            TraceOp::Barrier(id) => {
                self.pc += 1;
                self.instructions += 1;
                if !model_barriers {
                    return CoreStatus::Running;
                }
                // Access the barrier flag line (generates the sharing burst),
                // then wait for the release.
                let flag = Self::barrier_flag_address(self.group, id);
                match l1.access(flag, false, now, out) {
                    L1Access::Hit => {
                        self.waiting_barrier = Some(id);
                        self.barrier_announced = true;
                        CoreStatus::AtBarrier(id)
                    }
                    L1Access::Miss => {
                        self.stalled = true;
                        self.barrier_in_flight = Some(id);
                        CoreStatus::Stalled
                    }
                    L1Access::Busy => {
                        // Retry the barrier op next cycle.
                        self.pc -= 1;
                        self.instructions -= 1;
                        CoreStatus::Stalled
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loco_cache::{CacheGeometry, MsgKind, Organization, ProtocolMsg, ResponseSource};
    use loco_cache::{Agent, LineAddr};
    use loco_noc::Mesh;
    use loco_workloads::CoreTrace;

    fn l1() -> L1Controller {
        L1Controller::new(
            NodeId(0),
            CacheGeometry::asplos_l1(),
            Organization::shared(Mesh::new(4, 4)),
        )
    }

    fn fill_l1(c: &mut L1Controller, addr: u64, now: u64) {
        let msg = ProtocolMsg {
            addr: Address(addr).line(32),
            kind: MsgKind::DataS(ResponseSource::Home),
            src: Agent::l2(NodeId(1)),
            dst: Agent::l1(NodeId(0)),
            requester: NodeId(0),
            issued_at: 0,
        };
        let mut out = Vec::new();
        c.handle(msg, now, &mut out);
    }

    #[test]
    fn compute_ops_retire_one_instruction_per_cycle() {
        let trace = CoreTrace::from_ops(vec![TraceOp::Compute(3)]);
        let mut core = CoreModel::new(NodeId(0), trace, 0);
        let mut l1 = l1();
        let mut out = Vec::new();
        for now in 0..3 {
            assert_eq!(core.tick(now, &mut l1, &mut out, false), CoreStatus::Running);
        }
        assert_eq!(core.tick(3, &mut l1, &mut out, false), CoreStatus::Finished);
        assert_eq!(core.instructions(), 3);
        assert_eq!(core.finished_at(), Some(3));
    }

    #[test]
    fn memory_miss_stalls_until_fill() {
        let trace = CoreTrace::from_ops(vec![TraceOp::Read(0x1000), TraceOp::Compute(1)]);
        let mut core = CoreModel::new(NodeId(0), trace, 0);
        let mut l1 = l1();
        let mut out = Vec::new();
        assert_eq!(core.tick(0, &mut l1, &mut out, false), CoreStatus::Stalled);
        assert_eq!(out.len(), 1, "L1 miss request issued");
        assert_eq!(core.tick(1, &mut l1, &mut out, false), CoreStatus::Stalled);
        fill_l1(&mut l1, 0x1000, 10);
        core.on_fill();
        assert_eq!(core.tick(11, &mut l1, &mut out, false), CoreStatus::Running);
        assert_eq!(core.tick(12, &mut l1, &mut out, false), CoreStatus::Finished);
    }

    #[test]
    fn barriers_are_skipped_when_not_modelled() {
        let trace = CoreTrace::from_ops(vec![TraceOp::Barrier(1), TraceOp::Compute(1)]);
        let mut core = CoreModel::new(NodeId(0), trace, 0);
        let mut l1 = l1();
        let mut out = Vec::new();
        assert_eq!(core.tick(0, &mut l1, &mut out, false), CoreStatus::Running);
        assert_eq!(core.tick(1, &mut l1, &mut out, false), CoreStatus::Running);
        assert_eq!(core.tick(2, &mut l1, &mut out, false), CoreStatus::Finished);
    }

    #[test]
    fn barrier_waits_for_release_in_fullsystem_mode() {
        let trace = CoreTrace::from_ops(vec![TraceOp::Barrier(1), TraceOp::Compute(1)]);
        let mut core = CoreModel::new(NodeId(0), trace, 3);
        let mut l1 = l1();
        let mut out = Vec::new();
        // The flag access misses; the core stalls.
        assert_eq!(core.tick(0, &mut l1, &mut out, true), CoreStatus::Stalled);
        let flag = CoreModel::barrier_flag_address(3, 1);
        assert_eq!(out[0].msg.addr, LineAddr(flag.0 / 32));
        fill_l1(&mut l1, flag.0, 5);
        core.on_fill();
        // Now the core reports it is at the barrier until released.
        assert_eq!(core.tick(6, &mut l1, &mut out, true), CoreStatus::AtBarrier(1));
        assert_eq!(core.tick(7, &mut l1, &mut out, true), CoreStatus::AtBarrier(1));
        core.on_barrier_release();
        assert_eq!(core.tick(8, &mut l1, &mut out, true), CoreStatus::Running);
        assert_eq!(core.tick(9, &mut l1, &mut out, true), CoreStatus::Finished);
    }

    #[test]
    fn distinct_groups_use_distinct_flag_lines() {
        let a = CoreModel::barrier_flag_address(0, 1);
        let b = CoreModel::barrier_flag_address(1, 1);
        let c = CoreModel::barrier_flag_address(0, 2);
        assert_ne!(a.line(32), b.line(32));
        assert_ne!(a.line(32), c.line(32));
    }
}
