//! The global directory used by the private baseline and by LOCO CC (the
//! variant without VMS broadcasts).
//!
//! The directory is co-located with the memory controllers (Table 1 gives it
//! a 10-cycle access latency) and tracks, per line, the set of L2 slices
//! (tiles for the private baseline, cluster home nodes for LOCO CC) holding a
//! copy, plus the current owner. Requests for a busy line are queued and
//! replayed when the requester sends `Unblock` — the classic blocking
//! MOESI-CMP directory organization of GEMS.
//!
//! When no on-chip owner exists the directory performs the DRAM access
//! itself (it sits next to the memory controller) and sends the data
//! directly to the requester, charging the directory latency plus the DRAM
//! latency.

use crate::address::LineAddr;
use crate::line::SharerSet;
use crate::msg::{Agent, MsgKind, Outgoing, ProtocolMsg};
use crate::stats::CacheStats;
use loco_noc::FxHashMap;
use loco_noc::NodeId;
use std::collections::VecDeque;

/// Timing parameters of the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryConfig {
    /// Directory access latency (Table 1: 10 cycles).
    pub latency: u64,
    /// DRAM access latency charged when the directory itself must fetch the
    /// line (Table 1: 200 cycles).
    pub memory_latency: u64,
}

impl Default for DirectoryConfig {
    fn default() -> Self {
        DirectoryConfig {
            latency: 10,
            memory_latency: 200,
        }
    }
}

#[derive(Debug, Default)]
struct DirEntry {
    sharers: SharerSet,
    owner: Option<NodeId>,
    busy: bool,
    waiting: VecDeque<ProtocolMsg>,
}

/// A global directory slice at one memory-controller node.
#[derive(Debug)]
pub struct DirectoryController {
    node: NodeId,
    cfg: DirectoryConfig,
    entries: FxHashMap<LineAddr, DirEntry>,
    stats: CacheStats,
}

impl DirectoryController {
    /// Creates the directory slice at `node`.
    pub fn new(node: NodeId, cfg: DirectoryConfig) -> Self {
        DirectoryController {
            node,
            cfg,
            entries: FxHashMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// The memory-controller node this directory slice lives at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Statistics (off-chip fetches performed on behalf of requesters).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Handles a protocol message addressed to this directory.
    pub fn handle(&mut self, msg: ProtocolMsg, out: &mut Vec<Outgoing>) {
        match msg.kind {
            MsgKind::GblGetS => self.handle_get(msg, false, out),
            MsgKind::GblGetM => self.handle_get(msg, true, out),
            MsgKind::PutL2 => {
                self.stats.dir_lookups += 1;
                let e = self.entries.entry(msg.addr).or_default();
                e.sharers.remove(msg.src.node);
                if e.owner == Some(msg.src.node) {
                    e.owner = None;
                }
            }
            MsgKind::Unblock => {
                self.stats.dir_lookups += 1;
                let replay: Vec<ProtocolMsg> = {
                    let e = self.entries.entry(msg.addr).or_default();
                    e.busy = false;
                    e.waiting.drain(..).collect()
                };
                for m in replay {
                    out.push(Outgoing::after(1, m));
                }
            }
            other => panic!("directory received unexpected message kind {other:?}"),
        }
    }

    fn handle_get(&mut self, msg: ProtocolMsg, is_write: bool, out: &mut Vec<Outgoing>) {
        let requester_l2 = msg.src.node;
        let lat = self.cfg.latency;
        let mem_lat = self.cfg.memory_latency;
        self.stats.dir_lookups += 1;
        let entry = self.entries.entry(msg.addr).or_default();
        if entry.busy {
            entry.waiting.push_back(msg);
            return;
        }
        entry.busy = true;
        if !is_write {
            match entry.owner.filter(|&o| o != requester_l2) {
                Some(owner) => {
                    out.push(Outgoing::after(
                        lat,
                        ProtocolMsg::derived(
                            &msg,
                            MsgKind::FwdGetS,
                            Agent::dir(self.node),
                            Agent::l2(owner),
                        ),
                    ));
                }
                None => {
                    // No on-chip owner: fetch from DRAM right here.
                    self.stats.offchip_fetches += 1;
                    out.push(Outgoing::after(
                        lat + mem_lat,
                        ProtocolMsg::derived(
                            &msg,
                            MsgKind::MemData,
                            Agent::dir(self.node),
                            Agent::l2(requester_l2),
                        ),
                    ));
                    if entry.sharers.is_empty() {
                        entry.owner = Some(requester_l2);
                    }
                }
            }
            entry.sharers.insert(requester_l2);
        } else {
            // Invalidate every other sharer; they acknowledge directly to the
            // requesting L2.
            let mut acks = 0u32;
            for sharer in entry.sharers.iter().filter(|&s| s != requester_l2) {
                // The owner is handled separately below (it supplies data).
                if Some(sharer) == entry.owner {
                    continue;
                }
                acks += 1;
                self.stats.invalidations += 1;
                out.push(Outgoing::after(
                    lat,
                    ProtocolMsg::derived(
                        &msg,
                        MsgKind::InvL2,
                        Agent::dir(self.node),
                        Agent::l2(sharer),
                    ),
                ));
            }
            let data_coming = match entry.owner.filter(|&o| o != requester_l2) {
                Some(owner) => {
                    out.push(Outgoing::after(
                        lat,
                        ProtocolMsg::derived(
                            &msg,
                            MsgKind::FwdGetM,
                            Agent::dir(self.node),
                            Agent::l2(owner),
                        ),
                    ));
                    true
                }
                None => {
                    if entry.sharers.contains(requester_l2) {
                        // Upgrade: the requester already holds the data.
                        false
                    } else {
                        self.stats.offchip_fetches += 1;
                        out.push(Outgoing::after(
                            lat + mem_lat,
                            ProtocolMsg::derived(
                                &msg,
                                MsgKind::MemData,
                                Agent::dir(self.node),
                                Agent::l2(requester_l2),
                            ),
                        ));
                        true
                    }
                }
            };
            out.push(Outgoing::after(
                lat,
                ProtocolMsg::derived(
                    &msg,
                    MsgKind::DirInfo { acks, data_coming },
                    Agent::dir(self.node),
                    Agent::l2(requester_l2),
                ),
            ));
            entry.sharers.clear();
            entry.sharers.insert(requester_l2);
            entry.owner = Some(requester_l2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> DirectoryController {
        DirectoryController::new(NodeId(4), DirectoryConfig::default())
    }

    fn get(addr: u64, from_l2: u16, write: bool) -> ProtocolMsg {
        ProtocolMsg {
            addr: LineAddr(addr),
            kind: if write {
                MsgKind::GblGetM
            } else {
                MsgKind::GblGetS
            },
            src: Agent::l2(NodeId(from_l2)),
            dst: Agent::dir(NodeId(4)),
            requester: NodeId(from_l2),
            issued_at: 0,
        }
    }

    fn unblock(addr: u64, from_l2: u16) -> ProtocolMsg {
        ProtocolMsg {
            kind: MsgKind::Unblock,
            ..get(addr, from_l2, false)
        }
    }

    #[test]
    fn first_read_fetches_from_memory_and_grants_ownership() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(get(7, 10, false), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind, MsgKind::MemData);
        assert_eq!(out[0].delay, 210);
        assert_eq!(d.stats().offchip_fetches, 1);
    }

    #[test]
    fn second_read_is_forwarded_to_the_owner() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(get(7, 10, false), &mut out);
        d.handle(unblock(7, 10), &mut out);
        let mut out = Vec::new();
        d.handle(get(7, 20, false), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind, MsgKind::FwdGetS);
        assert_eq!(out[0].msg.dst, Agent::l2(NodeId(10)));
        assert_eq!(d.stats().offchip_fetches, 1, "no second DRAM access");
    }

    #[test]
    fn write_invalidates_sharers_and_reports_ack_count() {
        let mut d = dir();
        let mut out = Vec::new();
        // Owner 10, sharers 20 and 30.
        d.handle(get(7, 10, false), &mut out);
        d.handle(unblock(7, 10), &mut out);
        d.handle(get(7, 20, false), &mut out);
        d.handle(unblock(7, 20), &mut out);
        d.handle(get(7, 30, false), &mut out);
        d.handle(unblock(7, 30), &mut out);
        let mut out = Vec::new();
        d.handle(get(7, 40, true), &mut out);
        let invs: Vec<_> = out
            .iter()
            .filter(|o| o.msg.kind == MsgKind::InvL2)
            .collect();
        assert_eq!(invs.len(), 2, "sharers 20 and 30 are invalidated");
        assert!(out
            .iter()
            .any(|o| o.msg.kind == MsgKind::FwdGetM && o.msg.dst == Agent::l2(NodeId(10))));
        let info = out
            .iter()
            .find(|o| matches!(o.msg.kind, MsgKind::DirInfo { .. }))
            .unwrap();
        assert_eq!(
            info.msg.kind,
            MsgKind::DirInfo {
                acks: 2,
                data_coming: true
            }
        );
    }

    #[test]
    fn upgrade_write_by_a_sharer_needs_no_data() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(get(9, 10, false), &mut out);
        d.handle(unblock(9, 10), &mut out);
        d.handle(get(9, 20, false), &mut out);
        d.handle(unblock(9, 20), &mut out);
        let mut out = Vec::new();
        // Node 20 (a sharer, not the owner) upgrades.
        d.handle(get(9, 20, true), &mut out);
        let info = out
            .iter()
            .find(|o| matches!(o.msg.kind, MsgKind::DirInfo { .. }))
            .unwrap();
        // Data comes from the owner (node 10) via FwdGetM, so data_coming is
        // true and only the owner (not counted in acks) is contacted.
        assert_eq!(
            info.msg.kind,
            MsgKind::DirInfo {
                acks: 0,
                data_coming: true
            }
        );
        assert!(out.iter().any(|o| o.msg.kind == MsgKind::FwdGetM));
    }

    #[test]
    fn busy_line_queues_until_unblock() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(get(3, 10, false), &mut out);
        let mut out = Vec::new();
        d.handle(get(3, 20, false), &mut out);
        assert!(out.is_empty(), "second request queued while busy");
        let mut out = Vec::new();
        d.handle(unblock(3, 10), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind, MsgKind::GblGetS);
        assert_eq!(out[0].msg.src, Agent::l2(NodeId(20)));
    }

    #[test]
    fn put_removes_sharer_and_owner() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(get(3, 10, false), &mut out);
        d.handle(unblock(3, 10), &mut out);
        let put = ProtocolMsg {
            kind: MsgKind::PutL2,
            ..get(3, 10, false)
        };
        d.handle(put, &mut out);
        // The next read must go to memory again.
        let mut out = Vec::new();
        d.handle(get(3, 20, false), &mut out);
        assert_eq!(out[0].msg.kind, MsgKind::MemData);
        assert_eq!(d.stats().offchip_fetches, 2);
    }
}
