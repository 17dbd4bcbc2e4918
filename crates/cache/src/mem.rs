//! Off-chip memory controllers.
//!
//! Table 1: four controllers, one on each chip edge, 200-cycle access
//! latency. The controller services line fetches (`MemRead`) and dirty
//! writebacks (`MemWb`); bandwidth is modelled with a configurable minimum
//! inter-request gap per controller.
//!
//! LOCO's VMS read path sends the request to memory *in parallel* with the
//! on-chip broadcast (Section 3.4 of the paper); when an on-chip owner
//! responds first the requester cancels the speculative fetch with
//! `MemCancel`. A cancelled fetch never touches DRAM and is therefore not
//! counted as an off-chip access. Responses are released by
//! [`MemoryController::tick`], which the simulator calls every cycle.

use crate::address::LineAddr;
use crate::msg::{Agent, MsgKind, Outgoing, ProtocolMsg};
use crate::stats::CacheStats;
use loco_noc::NodeId;
use std::collections::VecDeque;

/// Timing parameters of a memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// DRAM access latency (Table 1: 200 cycles).
    pub latency: u64,
    /// Minimum number of cycles between the start of two DRAM accesses at
    /// one controller (a simple bandwidth model; 0 disables it).
    pub min_gap: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            latency: 200,
            min_gap: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingRead {
    addr: LineAddr,
    requester_l2: NodeId,
    original: ProtocolMsg,
    fire_at: u64,
}

/// One off-chip memory controller.
#[derive(Debug)]
pub struct MemoryController {
    node: NodeId,
    cfg: MemoryConfig,
    next_free: u64,
    /// Outstanding reads in issue order. A read fires at `max(now,
    /// next_free) + latency`, which never decreases from one read to the
    /// next, so this is also firing order: the front fires first.
    pending: VecDeque<PendingRead>,
    stats: CacheStats,
}

impl MemoryController {
    /// Creates the memory controller at `node`.
    pub fn new(node: NodeId, cfg: MemoryConfig) -> Self {
        MemoryController {
            node,
            cfg,
            next_free: 0,
            pending: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// The node this controller is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Statistics (off-chip fetches and writebacks).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of DRAM reads accepted but not yet completed or cancelled.
    pub fn pending_reads(&self) -> usize {
        self.pending.len()
    }

    /// The earliest cycle at which [`MemoryController::tick`] will release a
    /// DRAM response, or `None` when no access is outstanding. Event-driven
    /// simulation uses this to skip the dead cycles of the 200-cycle DRAM
    /// latency; the caller must step the controller at exactly this cycle,
    /// because that is when the naive per-cycle loop would have released the
    /// response. O(1): the earliest read is the oldest.
    pub fn next_event(&self) -> Option<u64> {
        self.pending.front().map(|p| p.fire_at)
    }

    /// Handles a protocol message addressed to this memory controller.
    pub fn handle(&mut self, msg: ProtocolMsg, now: u64, out: &mut Vec<Outgoing>) {
        match msg.kind {
            MsgKind::MemRead => {
                let start = now.max(self.next_free);
                self.next_free = start + self.cfg.min_gap;
                self.pending.push_back(PendingRead {
                    addr: msg.addr,
                    requester_l2: msg.src.node,
                    original: msg,
                    fire_at: start + self.cfg.latency,
                });
            }
            MsgKind::MemCancel => {
                // Cancel a speculative fetch if it has not completed yet.
                if let Some(i) = self
                    .pending
                    .iter()
                    .position(|p| p.addr == msg.addr && p.requester_l2 == msg.src.node)
                {
                    self.pending.remove(i);
                }
            }
            MsgKind::MemWb => {
                self.stats.offchip_writebacks += 1;
                let start = now.max(self.next_free);
                self.next_free = start + self.cfg.min_gap;
            }
            other => panic!("memory controller received unexpected message kind {other:?}"),
        }
        let _ = out;
    }

    /// Releases DRAM responses whose latency has elapsed. The simulator
    /// calls this once per cycle.
    pub fn tick(&mut self, now: u64, out: &mut Vec<Outgoing>) {
        while let Some(p) = self.pending.pop_front_if(|p| p.fire_at <= now) {
            self.stats.offchip_fetches += 1;
            out.push(Outgoing::after(
                0,
                ProtocolMsg::derived(
                    &p.original,
                    MsgKind::MemData,
                    Agent::mem(self.node),
                    Agent::l2(p.requester_l2),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::LineAddr;

    fn read(addr: u64, from_l2: u16) -> ProtocolMsg {
        ProtocolMsg {
            addr: LineAddr(addr),
            kind: MsgKind::MemRead,
            src: Agent::l2(NodeId(from_l2)),
            dst: Agent::mem(NodeId(4)),
            requester: NodeId(from_l2),
            issued_at: 0,
        }
    }

    fn drain(m: &mut MemoryController, until: u64) -> Vec<Outgoing> {
        let mut out = Vec::new();
        for now in 0..=until {
            m.tick(now, &mut out);
        }
        out
    }

    #[test]
    fn read_returns_data_after_dram_latency() {
        let mut m = MemoryController::new(NodeId(4), MemoryConfig::default());
        let mut out = Vec::new();
        m.handle(read(1, 10), 100, &mut out);
        assert!(out.is_empty(), "the response is released by tick()");
        assert_eq!(m.pending_reads(), 1);
        let early = drain(&mut m, 299);
        assert!(early.is_empty(), "no response before the 200-cycle latency");
        let mut out = Vec::new();
        m.tick(300, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind, MsgKind::MemData);
        assert_eq!(out[0].msg.dst, Agent::l2(NodeId(10)));
        assert_eq!(m.stats().offchip_fetches, 1);
        assert_eq!(m.pending_reads(), 0);
    }

    #[test]
    fn back_to_back_reads_respect_the_bandwidth_gap() {
        let mut m = MemoryController::new(
            NodeId(4),
            MemoryConfig {
                latency: 200,
                min_gap: 10,
            },
        );
        let mut out = Vec::new();
        m.handle(read(1, 10), 0, &mut out);
        m.handle(read(2, 11), 0, &mut out);
        m.handle(read(3, 12), 0, &mut out);
        // Fired at 200, 210 and 220 respectively.
        let mut out = Vec::new();
        m.tick(200, &mut out);
        assert_eq!(out.len(), 1);
        m.tick(209, &mut out);
        assert_eq!(out.len(), 1);
        m.tick(210, &mut out);
        assert_eq!(out.len(), 2);
        m.tick(220, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn cancelled_speculative_fetch_is_not_counted() {
        let mut m = MemoryController::new(NodeId(4), MemoryConfig::default());
        let mut out = Vec::new();
        m.handle(read(7, 20), 0, &mut out);
        let cancel = ProtocolMsg {
            kind: MsgKind::MemCancel,
            ..read(7, 20)
        };
        m.handle(cancel, 30, &mut out);
        assert_eq!(m.pending_reads(), 0);
        let late = drain(&mut m, 500);
        assert!(late.is_empty());
        assert_eq!(m.stats().offchip_fetches, 0);
    }

    /// Cancelling a read in the middle of the queue leaves the others to
    /// fire in issue order, and `next_event` follows the front.
    #[test]
    fn a_cancel_in_the_middle_keeps_the_release_order() {
        for min_gap in [0, 4] {
            let mut m = MemoryController::new(
                NodeId(4),
                MemoryConfig {
                    latency: 200,
                    min_gap,
                },
            );
            let mut out = Vec::new();
            for (addr, l2) in [(1, 10), (2, 11), (3, 12), (4, 13)] {
                m.handle(read(addr, l2), 0, &mut out);
            }
            m.handle(
                ProtocolMsg {
                    kind: MsgKind::MemCancel,
                    ..read(2, 11)
                },
                1,
                &mut out,
            );
            assert_eq!(m.pending_reads(), 3);
            assert_eq!(m.next_event(), Some(200));
            let mut released = Vec::new();
            while let Some(at) = m.next_event() {
                m.tick(at, &mut out);
                released.extend(out.drain(..).map(|o| o.msg.addr.0));
            }
            assert_eq!(released, vec![1, 3, 4], "min_gap {min_gap}");
            assert_eq!(m.stats().offchip_fetches, 3);
        }
    }

    #[test]
    fn cancel_after_completion_is_ignored() {
        let mut m = MemoryController::new(NodeId(4), MemoryConfig::default());
        let mut out = Vec::new();
        m.handle(read(7, 20), 0, &mut out);
        let fired = drain(&mut m, 250);
        assert_eq!(fired.len(), 1);
        let cancel = ProtocolMsg {
            kind: MsgKind::MemCancel,
            ..read(7, 20)
        };
        m.handle(cancel, 260, &mut out);
        assert_eq!(m.stats().offchip_fetches, 1);
    }

    #[test]
    fn writebacks_are_counted_and_produce_no_reply() {
        let mut m = MemoryController::new(NodeId(4), MemoryConfig::default());
        let mut out = Vec::new();
        let wb = ProtocolMsg {
            kind: MsgKind::MemWb,
            ..read(9, 10)
        };
        m.handle(wb, 0, &mut out);
        assert!(out.is_empty());
        assert_eq!(m.stats().offchip_writebacks, 1);
    }

    #[test]
    #[should_panic(expected = "unexpected message")]
    fn rejects_non_memory_messages() {
        let mut m = MemoryController::new(NodeId(4), MemoryConfig::default());
        let mut out = Vec::new();
        let bad = ProtocolMsg {
            kind: MsgKind::GetS,
            ..read(9, 10)
        };
        m.handle(bad, 0, &mut out);
    }
}
