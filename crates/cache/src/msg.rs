//! Coherence protocol messages exchanged between L1 controllers, home (L2)
//! controllers, the global directory and the memory controllers.
//!
//! Every message names a source and destination [`Agent`] (a node plus the
//! unit within the tile) and threads through the original requester and
//! issue time so that end-to-end latency statistics can be attributed at the
//! point of completion.

use crate::address::{LineAddr, LINE_BYTES};
use crate::line::MoesiState;
use loco_noc::{NodeId, VirtualNetwork};

/// The unit within a tile that a protocol message addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// The per-core L1 controller.
    L1,
    /// The L2 slice / home-node controller.
    L2,
    /// The global directory (co-located with a memory controller).
    Dir,
    /// The memory (DRAM) controller.
    Mem,
}

/// A protocol endpoint: a unit at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Agent {
    /// Tile the unit lives on.
    pub node: NodeId,
    /// Which unit at that tile.
    pub unit: Unit,
}

impl Agent {
    /// Convenience constructor.
    pub fn new(node: NodeId, unit: Unit) -> Self {
        Agent { node, unit }
    }

    /// The L1 controller at `node`.
    pub fn l1(node: NodeId) -> Self {
        Agent::new(node, Unit::L1)
    }

    /// The L2 controller at `node`.
    pub fn l2(node: NodeId) -> Self {
        Agent::new(node, Unit::L2)
    }

    /// The directory at `node`.
    pub fn dir(node: NodeId) -> Self {
        Agent::new(node, Unit::Dir)
    }

    /// The memory controller at `node`.
    pub fn mem(node: NodeId) -> Self {
        Agent::new(node, Unit::Mem)
    }
}

/// Where the data that satisfied a request came from; carried on the final
/// data grant to the L1 so the simulator can attribute latency to the right
/// histogram (L2-hit latency vs. on-chip search vs. off-chip access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseSource {
    /// The line was resident at the requester's home L2 (an "L2 hit").
    Home,
    /// The line was found in another cluster / another tile's L2 on chip.
    Remote,
    /// The line was fetched from off-chip memory.
    Memory,
}

/// Protocol message kinds.
///
/// The first group is the intra-cluster (first-level) directory protocol
/// between L1s and their home L2; the second group is the global (second
/// level) protocol between home L2s, the global directory and memory; the
/// last group implements inter-cluster victim replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    // ---- L1 <-> home L2 (first-level protocol) ----
    /// L1 read miss.
    GetS,
    /// L1 write miss / upgrade.
    GetM,
    /// Shared-data grant to an L1.
    DataS(ResponseSource),
    /// Exclusive-data grant to an L1.
    DataM(ResponseSource),
    /// Invalidate an L1 copy.
    InvL1,
    /// L1 invalidation acknowledgement; `dirty` if the L1 held modified data.
    InvAckL1 {
        /// The invalidated copy was modified (data travels back with the ack).
        dirty: bool,
    },
    /// L1 eviction writeback of a modified line.
    WbL1,

    // ---- home L2 <-> directory / other home L2s / memory ----
    /// Read request to the global directory (private baseline, LOCO CC).
    GblGetS,
    /// Write request to the global directory.
    GblGetM,
    /// Directory response telling the requester how many invalidation acks
    /// to expect and whether data is on its way from an owner or memory.
    DirInfo {
        /// Number of `InvAckL2` messages the requester must collect.
        acks: u32,
        /// Whether a data response (owner or memory) will follow.
        data_coming: bool,
    },
    /// Directory-forwarded read to the owning L2.
    FwdGetS,
    /// Directory-forwarded write to the owning L2.
    FwdGetM,
    /// Directory-initiated invalidation of a sharing L2 (cluster).
    InvL2,
    /// Sharing L2 finished invalidating its cluster; sent to the requester.
    InvAckL2,
    /// Owner L2 supplies a shared copy to the requesting home L2.
    OwnerData,
    /// Owner L2 supplies data and ownership for a write.
    OwnerDataM,
    /// Broadcast read on the VMS (global data search).
    BcastGetS,
    /// Broadcast write/invalidate on the VMS.
    BcastGetM,
    /// Remote home node searched and does not own the line (and, for writes,
    /// has invalidated its local copies).
    AckNoData,
    /// Home L2 evicted a line; global directory bookkeeping (fire & forget).
    PutL2,
    /// Requester tells the directory the transaction is complete.
    Unblock,

    // ---- memory ----
    /// Fetch a line from DRAM; the reply goes to `requester`'s L2.
    MemRead,
    /// Cancel a speculative DRAM fetch: a VMS broadcast sends the request to
    /// memory in parallel (Section 3.4), and cancels it when an on-chip
    /// owner supplies the data first.
    MemCancel,
    /// DRAM data response.
    MemData,
    /// Dirty writeback to DRAM.
    MemWb,

    // ---- inter-cluster victim replacement (Section 3.3) ----
    /// A victim line migrating to the same-HNid home node of another cluster.
    IvrMigrate {
        /// Coherence state the line had at the evicting node.
        state: MoesiState,
        /// Quantized last-access timestamp used for the age comparison.
        last_access: u64,
        /// Number of migration attempts so far (threshold 4 in the paper).
        hop: u8,
    },
}

impl MsgKind {
    /// Whether this message carries a full cache line of data.
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            MsgKind::DataS(_)
                | MsgKind::DataM(_)
                | MsgKind::InvAckL1 { dirty: true }
                | MsgKind::WbL1
                | MsgKind::OwnerData
                | MsgKind::OwnerDataM
                | MsgKind::MemData
                | MsgKind::MemWb
                | MsgKind::IvrMigrate { .. }
        )
    }

    /// The virtual network this message class travels on (protocol-level
    /// deadlock avoidance: requests, forwards, responses, writebacks and
    /// broadcasts never share a VN).
    pub fn virtual_network(self) -> VirtualNetwork {
        match self {
            MsgKind::GetS
            | MsgKind::GetM
            | MsgKind::GblGetS
            | MsgKind::GblGetM
            | MsgKind::MemRead
            | MsgKind::MemCancel => VirtualNetwork::Request,
            MsgKind::FwdGetS | MsgKind::FwdGetM | MsgKind::InvL1 | MsgKind::InvL2 => {
                VirtualNetwork::Forward
            }
            MsgKind::DataS(_)
            | MsgKind::DataM(_)
            | MsgKind::InvAckL1 { .. }
            | MsgKind::InvAckL2
            | MsgKind::OwnerData
            | MsgKind::OwnerDataM
            | MsgKind::MemData
            | MsgKind::AckNoData
            | MsgKind::DirInfo { .. }
            | MsgKind::Unblock => VirtualNetwork::Response,
            MsgKind::WbL1 | MsgKind::MemWb | MsgKind::PutL2 | MsgKind::IvrMigrate { .. } => {
                VirtualNetwork::Writeback
            }
            MsgKind::BcastGetS | MsgKind::BcastGetM => VirtualNetwork::Broadcast,
        }
    }

    /// Message size on the wire: an 8-byte control header, plus the
    /// [`LINE_BYTES`]-byte line for data-carrying messages (on Table 1's
    /// 16-byte links, data messages are 3 flits and control messages 1).
    pub fn size_bytes(self) -> u32 {
        const HEADER_BYTES: u32 = 8;
        if self.carries_data() {
            HEADER_BYTES + LINE_BYTES
        } else {
            HEADER_BYTES
        }
    }
}

/// A protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolMsg {
    /// The cache line this message concerns.
    pub addr: LineAddr,
    /// What the message is.
    pub kind: MsgKind,
    /// Sending agent.
    pub src: Agent,
    /// Receiving agent.
    pub dst: Agent,
    /// The L1/core that originally triggered the transaction (threaded
    /// through forwards so data can be routed and latency attributed).
    pub requester: NodeId,
    /// Cycle at which the original L1 request was issued.
    pub issued_at: u64,
}

impl ProtocolMsg {
    /// Creates a message, copying `requester`/`issued_at` bookkeeping from a
    /// parent message.
    pub fn derived(parent: &ProtocolMsg, kind: MsgKind, src: Agent, dst: Agent) -> Self {
        ProtocolMsg {
            addr: parent.addr,
            kind,
            src,
            dst,
            requester: parent.requester,
            issued_at: parent.issued_at,
        }
    }
}

/// A message to be sent after `delay` cycles of local processing (cache
/// lookup latency, directory latency, DRAM latency, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outgoing {
    /// The message to send.
    pub msg: ProtocolMsg,
    /// Local processing delay before the message enters the network.
    pub delay: u64,
}

impl Outgoing {
    /// A message sent after `delay` cycles.
    pub fn after(delay: u64, msg: ProtocolMsg) -> Self {
        Outgoing { msg, delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_messages_are_larger_than_control() {
        assert_eq!(MsgKind::GetS.size_bytes(), 8);
        assert_eq!(MsgKind::OwnerData.size_bytes(), 40);
        assert_eq!(MsgKind::InvAckL1 { dirty: false }.size_bytes(), 8);
        assert_eq!(MsgKind::InvAckL1 { dirty: true }.size_bytes(), 40);
    }

    #[test]
    fn vn_assignment_separates_message_classes() {
        assert_eq!(MsgKind::GetS.virtual_network(), VirtualNetwork::Request);
        assert_eq!(MsgKind::InvL1.virtual_network(), VirtualNetwork::Forward);
        assert_eq!(
            MsgKind::DataS(ResponseSource::Home).virtual_network(),
            VirtualNetwork::Response
        );
        assert_eq!(MsgKind::MemWb.virtual_network(), VirtualNetwork::Writeback);
        assert_eq!(
            MsgKind::BcastGetM.virtual_network(),
            VirtualNetwork::Broadcast
        );
        assert_eq!(
            MsgKind::IvrMigrate {
                state: MoesiState::O,
                last_access: 0,
                hop: 0
            }
            .virtual_network(),
            VirtualNetwork::Writeback
        );
    }

    #[test]
    fn derived_messages_keep_bookkeeping() {
        let parent = ProtocolMsg {
            addr: LineAddr(42),
            kind: MsgKind::GetS,
            src: Agent::l1(NodeId(3)),
            dst: Agent::l2(NodeId(7)),
            requester: NodeId(3),
            issued_at: 100,
        };
        let child = ProtocolMsg::derived(
            &parent,
            MsgKind::MemRead,
            Agent::l2(NodeId(7)),
            Agent::mem(NodeId(0)),
        );
        assert_eq!(child.addr, LineAddr(42));
        assert_eq!(child.requester, NodeId(3));
        assert_eq!(child.issued_at, 100);
        assert_eq!(child.kind, MsgKind::MemRead);
    }
}
