//! The home-node (L2 slice) controller.
//!
//! Each tile's L2 slice acts as the *home node* for the addresses that map to
//! it. Within its coherence domain (the cluster for LOCO, the whole chip for
//! the shared baseline, the single tile for the private baseline) it runs a
//! directory-based MOESI protocol over the tracked L1 sharers. Beyond the
//! domain it runs the second-level protocol selected by the
//! [`Organization`]: directory indirection through the memory controllers
//! (private baseline, LOCO CC), VMS broadcasts (LOCO CC+VMS), and
//! inter-cluster victim replacement (LOCO CC+VMS+IVR).
//!
//! Conflicting transactions for the same line are serialized at the home
//! node's MSHR (see DESIGN.md §9); remote-side requests (broadcast searches,
//! forwarded invalidations) are answered from the current array state.

use crate::address::LineAddr;
use crate::array::{CacheArray, CacheGeometry, Entry, Eviction};
use crate::line::{MoesiState, SharerSet};
use crate::msg::{Agent, MsgKind, Outgoing, ProtocolMsg, ResponseSource};
use crate::organization::{MemoryMap, Organization};
use crate::stats::CacheStats;
use loco_noc::FxHashMap;
use loco_noc::{NodeId, SplitMix64};

/// Tunables of the home-node controller beyond the array geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Array geometry (Table 1: 64 KB, 8-way, 4-cycle).
    pub geometry: CacheGeometry,
    /// IVR migration-chain threshold (the paper uses 4).
    pub ivr_threshold: u8,
    /// Quantum, in cycles, of the coarse IVR timestamps (the paper
    /// increments a counter every T cycles).
    pub timestamp_quantum: u64,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            geometry: CacheGeometry::asplos_l2(),
            ivr_threshold: 4,
            timestamp_quantum: 64,
        }
    }
}

/// Per-line metadata held by a home L2 slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Meta {
    /// MOESI state of the cluster's copy.
    pub state: MoesiState,
    /// L1s inside the coherence domain holding a copy.
    pub sharers: SharerSet,
    /// The L1 holding a modified copy, if any.
    pub l1_owner: Option<NodeId>,
}

impl L2Meta {
    fn new(state: MoesiState) -> Self {
        L2Meta {
            state,
            sharers: SharerSet::new(),
            l1_owner: None,
        }
    }
}

/// What a home-node transaction does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnKind {
    /// A local L1 read (GetS): completes on its data.
    Read,
    /// A local L1 write / upgrade (GetM): completes on its data and every
    /// ack.
    Write,
    /// Invalidation of the local L1 copies on behalf of a remote requester:
    /// completes on its L1 acks, then replies to `reply_to`: `OwnerDataM`
    /// if `with_data` (we owned the line), else `InvAckL2`.
    RemoteInv { reply_to: Agent, with_data: bool },
}

/// How a transaction reaches beyond the coherence domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Not at all, or straight to DRAM (the shared baseline).
    Local,
    /// A VMS broadcast: each other cluster's home answers once, an owner
    /// with its data. A miss also sends the speculative `MemRead`.
    Vms,
    /// The global directory; `Unblock` it on completion. A write waits for
    /// its `DirInfo` (`info_pending`) to learn how many acks to collect.
    Directory { info_pending: bool },
}

/// One outstanding transaction at the home node.
#[derive(Debug)]
struct Mshr {
    kind: TxnKind,
    leg: Leg,
    /// The request that opened the transaction.
    origin: ProtocolMsg,
    started_search_at: Option<u64>,
    acks_needed: u32,
    acks_received: u32,
    /// Where the data came from, once it is here.
    data: Option<ResponseSource>,
    /// State to install on completion (`None`: keep the resident state).
    install_state: Option<MoesiState>,
}

impl Mshr {
    fn new(kind: TxnKind, leg: Leg, origin: ProtocolMsg) -> Self {
        Mshr {
            kind,
            leg,
            origin,
            started_search_at: None,
            acks_needed: 0,
            acks_received: 0,
            data: None,
            install_state: None,
        }
    }
}

/// The home-node (L2) controller of one tile.
#[derive(Debug)]
pub struct L2Controller {
    node: NodeId,
    org: Organization,
    memmap: MemoryMap,
    cfg: L2Config,
    array: CacheArray<L2Meta>,
    mshrs: FxHashMap<LineAddr, Mshr>,
    /// Local requests parked behind an open transaction on their line, in
    /// arrival order; replayed when it completes.
    parked: Vec<ProtocolMsg>,
    stats: CacheStats,
    rng: SplitMix64,
}

impl L2Controller {
    /// Creates the home-node controller for `node`.
    pub fn new(node: NodeId, cfg: L2Config, org: Organization, memmap: MemoryMap) -> Self {
        L2Controller {
            node,
            org,
            memmap,
            cfg,
            array: CacheArray::new(cfg.geometry),
            mshrs: FxHashMap::default(),
            parked: Vec::new(),
            stats: CacheStats::default(),
            rng: SplitMix64::new(0x10c0 ^ node.index() as u64),
        }
    }

    /// The tile this controller belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Statistics collected by this controller.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of outstanding transactions (occupied MSHRs).
    pub fn outstanding(&self) -> usize {
        self.mshrs.len()
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.array.occupancy()
    }

    fn lat(&self) -> u64 {
        self.cfg.geometry.latency
    }

    fn set_of(&self, line: LineAddr) -> usize {
        line.set_index(self.org.hnid_bits(), self.array.num_sets())
    }

    fn quantize(&self, t: u64) -> u64 {
        (t / self.cfg.timestamp_quantum) * self.cfg.timestamp_quantum
    }

    /// Sends `kind` from this L2 to `dst` after `delay` cycles. The line,
    /// requester and issue time are those of `about`.
    fn send(
        &self,
        out: &mut Vec<Outgoing>,
        delay: u64,
        about: &ProtocolMsg,
        kind: MsgKind,
        dst: Agent,
    ) {
        let msg = ProtocolMsg::derived(about, kind, Agent::l2(self.node), dst);
        out.push(Outgoing::after(delay, msg));
    }

    /// The same-HNid home node of `line` in a random cluster other than
    /// this node's: the target of an IVR migration.
    fn random_other_home(&mut self, line: LineAddr) -> NodeId {
        let my_cluster = self.org.cluster_of(self.node);
        let n = self.org.num_clusters();
        let mut target = self.rng.index(n);
        if target == my_cluster {
            target = (target + 1) % n;
        }
        self.org.home_in_cluster(target, line)
    }

    /// Handles a protocol message addressed to this L2.
    pub fn handle(&mut self, msg: ProtocolMsg, now: u64, out: &mut Vec<Outgoing>) {
        match msg.kind {
            MsgKind::GetS | MsgKind::GetM => self.handle_l1_request(msg, now, out),
            MsgKind::WbL1 => self.handle_l1_writeback(msg, now),
            MsgKind::InvAckL1 { .. } | MsgKind::AckNoData | MsgKind::InvAckL2 => {
                self.handle_ack(msg, now, out)
            }
            MsgKind::DirInfo { acks, data_coming } => {
                self.handle_dir_info(msg, acks, data_coming, now, out)
            }
            MsgKind::FwdGetS => self.handle_fwd_gets(msg, now, out),
            MsgKind::FwdGetM | MsgKind::InvL2 => self.handle_remote_inv(msg, out),
            MsgKind::BcastGetS => self.handle_bcast_gets(msg, now, out),
            MsgKind::BcastGetM => self.handle_bcast_getm(msg, out),
            MsgKind::OwnerData | MsgKind::OwnerDataM | MsgKind::MemData => {
                self.handle_data(msg, now, out)
            }
            MsgKind::IvrMigrate {
                state,
                last_access,
                hop,
            } => self.handle_ivr(msg, state, last_access, hop, now, out),
            other => panic!("L2 controller received unexpected message kind {other:?}"),
        }
    }

    // ---------------------------------------------------------------- L1 side

    fn handle_l1_request(&mut self, msg: ProtocolMsg, now: u64, out: &mut Vec<Outgoing>) {
        if self.mshrs.contains_key(&msg.addr) {
            self.parked.push(msg);
            return;
        }
        let is_write = msg.kind == MsgKind::GetM;
        self.stats.l2_accesses += 1;
        self.stats.l2_tag_probes += 1;
        let set = self.set_of(msg.addr);
        let resident = self
            .array
            .lookup_mut(set, msg.addr, now)
            .map(|e| (e.meta.state, e.meta.sharers, e.meta.l1_owner))
            .filter(|(s, _, _)| s.is_valid());

        match resident {
            Some((state, sharers, l1_owner)) => {
                self.stats.l2_hits += 1;
                if !is_write {
                    self.serve_local_read_hit(msg, l1_owner, out);
                } else {
                    self.serve_local_write_hit(msg, state, sharers, now, out);
                }
            }
            None => {
                self.stats.l2_misses += 1;
                self.start_global_fetch(msg, is_write, now, out);
            }
        }
    }

    fn serve_local_read_hit(
        &mut self,
        msg: ProtocolMsg,
        l1_owner: Option<NodeId>,
        out: &mut Vec<Outgoing>,
    ) {
        let set = self.set_of(msg.addr);
        if let Some(owner) = l1_owner.filter(|&o| o != msg.requester) {
            // Another L1 in the domain holds a modified copy: recall it
            // before granting the shared copy.
            let mut mshr = Mshr::new(TxnKind::Read, Leg::Local, msg);
            mshr.data = Some(ResponseSource::Home);
            mshr.acks_needed = 1;
            self.mshrs.insert(msg.addr, mshr);
            self.stats.invalidations += 1;
            if let Some(entry) = self.array.peek_mut(set, msg.addr) {
                entry.meta.l1_owner = None;
                entry.meta.sharers.remove(owner);
            }
            self.send(out, self.lat(), &msg, MsgKind::InvL1, Agent::l1(owner));
            return;
        }
        if let Some(entry) = self.array.peek_mut(set, msg.addr) {
            entry.meta.sharers.insert(msg.requester);
        }
        self.stats.l2_data_reads += 1;
        let grant = MsgKind::DataS(ResponseSource::Home);
        self.send(out, self.lat(), &msg, grant, Agent::l1(msg.requester));
    }

    fn serve_local_write_hit(
        &mut self,
        msg: ProtocolMsg,
        state: MoesiState,
        sharers: SharerSet,
        now: u64,
        out: &mut Vec<Outgoing>,
    ) {
        let mut mshr = Mshr::new(TxnKind::Write, Leg::Local, msg);
        mshr.data = Some(ResponseSource::Home);
        mshr.install_state = Some(MoesiState::M);
        // Invalidate other L1 copies inside the domain.
        for l1 in sharers.iter().filter(|&s| s != msg.requester) {
            mshr.acks_needed += 1;
            self.stats.invalidations += 1;
            self.send(out, self.lat(), &msg, MsgKind::InvL1, Agent::l1(l1));
        }
        // Other clusters / tiles may hold copies when the line is not
        // exclusively ours.
        let needs_global =
            !self.org.is_chip_wide_shared() && matches!(state, MoesiState::S | MoesiState::O);
        if needs_global {
            if self.org.uses_vms() {
                mshr.leg = Leg::Vms;
                mshr.acks_needed += (self.org.num_clusters() - 1) as u32;
                self.stats.broadcasts += 1;
                let me = Agent::l2(self.node);
                self.send(out, self.lat(), &msg, MsgKind::BcastGetM, me);
            } else if self.org.uses_global_directory() {
                mshr.leg = Leg::Directory { info_pending: true };
                let dir = Agent::dir(self.memmap.controller_for(msg.addr));
                self.send(out, self.lat(), &msg, MsgKind::GblGetM, dir);
            }
        }
        self.mshrs.insert(msg.addr, mshr);
        self.try_complete(msg.addr, now, out);
    }

    fn start_global_fetch(
        &mut self,
        msg: ProtocolMsg,
        is_write: bool,
        now: u64,
        out: &mut Vec<Outgoing>,
    ) {
        let (kind, state, bcast, global) = match is_write {
            true => (
                TxnKind::Write,
                MoesiState::M,
                MsgKind::BcastGetM,
                MsgKind::GblGetM,
            ),
            false => (
                TxnKind::Read,
                MoesiState::S,
                MsgKind::BcastGetS,
                MsgKind::GblGetS,
            ),
        };
        let leg = if self.org.is_chip_wide_shared() {
            Leg::Local
        } else if self.org.uses_vms() {
            Leg::Vms
        } else {
            Leg::Directory {
                info_pending: is_write,
            }
        };
        let mut mshr = Mshr::new(kind, leg, msg);
        mshr.started_search_at = Some(now);
        mshr.install_state = Some(state);
        let controller = self.memmap.controller_for(msg.addr);
        let (mem, dir) = (Agent::mem(controller), Agent::dir(controller));
        match leg {
            // The home L2 is the only on-chip copy: straight to memory.
            Leg::Local => self.send(out, self.lat(), &msg, MsgKind::MemRead, mem),
            Leg::Vms => {
                mshr.acks_needed = (self.org.num_clusters() - 1) as u32;
                self.stats.broadcasts += 1;
                self.send(out, self.lat(), &msg, bcast, Agent::l2(self.node));
                // Section 3.4: "The request is sent to off-chip memory as
                // well." The DRAM fetch is speculative; it is cancelled if an
                // on-chip owner responds first.
                self.send(out, self.lat(), &msg, MsgKind::MemRead, mem);
            }
            // Private baseline and LOCO CC: indirection through the global
            // directory at the memory controller.
            Leg::Directory { .. } => self.send(out, self.lat(), &msg, global, dir),
        }
        self.mshrs.insert(msg.addr, mshr);
    }

    fn handle_l1_writeback(&mut self, msg: ProtocolMsg, now: u64) {
        let set = self.set_of(msg.addr);
        self.stats.l2_tag_probes += 1;
        // The data write is charged only when the line is still resident —
        // a writeback racing an L2 eviction probes the tags and deposits
        // nothing.
        if let Some(entry) = self.array.lookup_mut(set, msg.addr, now) {
            self.stats.l2_data_writes += 1;
            entry.meta.sharers.remove(msg.src.node);
            if entry.meta.l1_owner == Some(msg.src.node) {
                entry.meta.l1_owner = None;
            }
            // The dirty data now lives (only) in the L2.
            if !entry.meta.state.is_dirty() {
                entry.meta.state = MoesiState::M;
            }
        }
    }

    fn handle_dir_info(
        &mut self,
        msg: ProtocolMsg,
        acks: u32,
        data_coming: bool,
        now: u64,
        out: &mut Vec<Outgoing>,
    ) {
        let Some(mshr) = self.mshrs.get_mut(&msg.addr) else {
            return;
        };
        mshr.leg = Leg::Directory {
            info_pending: false,
        };
        mshr.acks_needed += acks;
        if !data_coming {
            // Upgrade: we already hold the data.
            mshr.data.get_or_insert(ResponseSource::Home);
        }
        self.try_complete(msg.addr, now, out);
    }

    // ------------------------------------------------------------ remote side

    fn handle_fwd_gets(&mut self, msg: ProtocolMsg, now: u64, out: &mut Vec<Outgoing>) {
        // The directory believes we own this line; supply a shared copy to
        // the requesting home L2. If the line slipped out of our array in the
        // meantime we still respond with data (see module docs) to keep the
        // requester from stalling.
        let set = self.set_of(msg.addr);
        self.stats.l2_tag_probes += 1;
        if let Some(entry) = self.array.lookup_mut(set, msg.addr, now) {
            entry.meta.state = entry.meta.state.after_sharing();
        }
        self.stats.l2_data_reads += 1;
        let requester_home = self.org.home_node(msg.requester, msg.addr);
        let dst = Agent::l2(requester_home);
        self.send(out, self.lat(), &msg, MsgKind::OwnerData, dst);
    }

    fn handle_remote_inv(&mut self, msg: ProtocolMsg, out: &mut Vec<Outgoing>) {
        // FwdGetM (we are the owner) or InvL2 (we are a sharer): invalidate
        // the domain's copy, collecting local L1 acks first, then acknowledge
        // to the requesting home L2 (with data iff we owned the line).
        self.stats.l2_tag_probes += 1;
        let with_data = msg.kind == MsgKind::FwdGetM;
        let requester_home = self.org.home_node(msg.requester, msg.addr);
        self.remote_invalidate(msg, Agent::l2(requester_home), with_data, out);
    }

    fn handle_bcast_gets(&mut self, msg: ProtocolMsg, now: u64, out: &mut Vec<Outgoing>) {
        let set = self.set_of(msg.addr);
        self.stats.l2_tag_probes += 1;
        let reply_kind = match self.array.lookup_mut(set, msg.addr, now) {
            Some(entry) if entry.meta.state.is_owner() => {
                entry.meta.state = entry.meta.state.after_sharing();
                self.stats.l2_data_reads += 1;
                MsgKind::OwnerData
            }
            _ => MsgKind::AckNoData,
        };
        self.send(out, self.lat(), &msg, reply_kind, msg.src);
    }

    fn handle_bcast_getm(&mut self, msg: ProtocolMsg, out: &mut Vec<Outgoing>) {
        let set = self.set_of(msg.addr);
        self.stats.l2_tag_probes += 1;
        match self.array.peek(set, msg.addr) {
            Some(entry) => {
                let was_owner = entry.meta.state.is_owner();
                self.remote_invalidate(msg, msg.src, was_owner, out);
            }
            None => self.send(out, self.lat(), &msg, MsgKind::AckNoData, msg.src),
        }
    }

    /// Invalidate the domain's copy of `msg.addr`, collecting local L1 acks,
    /// then reply to `reply_to` (see `TxnKind::RemoteInv`).
    fn remote_invalidate(
        &mut self,
        msg: ProtocolMsg,
        reply_to: Agent,
        with_data: bool,
        out: &mut Vec<Outgoing>,
    ) {
        let set = self.set_of(msg.addr);
        let sharers = self
            .array
            .peek(set, msg.addr)
            .map(|e| e.meta.sharers)
            .unwrap_or_default();
        // Drop the line from the array immediately; in-flight local requests
        // for it will simply miss and re-fetch.
        self.array.invalidate(set, msg.addr);
        if sharers.is_empty() || self.mshrs.contains_key(&msg.addr) {
            // No local L1 copies to chase (or the line is already in a local
            // transaction — answer immediately to avoid cross-cluster
            // deadlock; the local transaction will re-establish coherence
            // when it completes).
            self.reply_remote(out, self.lat(), &msg, reply_to, with_data);
            return;
        }
        let kind = TxnKind::RemoteInv {
            reply_to,
            with_data,
        };
        let mut mshr = Mshr::new(kind, Leg::Local, msg);
        mshr.acks_needed = sharers.len() as u32;
        for l1 in sharers.iter() {
            self.stats.invalidations += 1;
            self.send(out, self.lat(), &msg, MsgKind::InvL1, Agent::l1(l1));
        }
        self.mshrs.insert(msg.addr, mshr);
    }

    /// Answers a remote invalidation of `about`'s line: `OwnerDataM` if
    /// `with_data`, else `InvAckL2`.
    fn reply_remote(
        &mut self,
        out: &mut Vec<Outgoing>,
        delay: u64,
        about: &ProtocolMsg,
        reply_to: Agent,
        with_data: bool,
    ) {
        let kind = if with_data {
            self.stats.l2_data_reads += 1;
            MsgKind::OwnerDataM
        } else {
            MsgKind::InvAckL2
        };
        self.send(out, delay, about, kind, reply_to);
    }

    // ------------------------------------------------------- data / ack side

    /// `OwnerData`, `OwnerDataM` (an on-chip owner) or `MemData` (DRAM, or
    /// the directory's DRAM fetch): the first one is the transaction's data.
    fn handle_data(&mut self, msg: ProtocolMsg, now: u64, out: &mut Vec<Outgoing>) {
        let (source, install) = match msg.kind {
            MsgKind::OwnerData => (ResponseSource::Remote, MoesiState::S),
            MsgKind::OwnerDataM => (ResponseSource::Remote, MoesiState::M),
            _ => (ResponseSource::Memory, MoesiState::E),
        };
        let Some(mshr) = self.mshrs.get_mut(&msg.addr) else {
            return;
        };
        if matches!(mshr.kind, TxnKind::RemoteInv { .. }) {
            return;
        }
        // On the VMS an owner's data is its answer to the broadcast.
        let vms_owner = mshr.leg == Leg::Vms && source == ResponseSource::Remote;
        if vms_owner {
            mshr.acks_received += 1;
        }
        let first = mshr.data.is_none();
        if first {
            mshr.data = Some(source);
            if mshr.kind == TxnKind::Read {
                mshr.install_state = Some(install);
            }
        }
        if first && vms_owner {
            // An on-chip owner answered: cancel the speculative DRAM fetch.
            let mem = Agent::mem(self.memmap.controller_for(msg.addr));
            self.send(out, 1, &msg, MsgKind::MemCancel, mem);
        }
        self.try_complete(msg.addr, now, out);
    }

    /// `InvAckL1` (a local L1), `AckNoData` (a VMS broadcast) or `InvAckL2`
    /// (a directory invalidation of another cluster or tile).
    fn handle_ack(&mut self, msg: ProtocolMsg, now: u64, out: &mut Vec<Outgoing>) {
        let Some(mshr) = self.mshrs.get_mut(&msg.addr) else {
            // Fire-and-forget invalidation (e.g. inclusive-eviction back-inval).
            return;
        };
        // A remote invalidation counts only its local L1 acks.
        let from_l1 = matches!(msg.kind, MsgKind::InvAckL1 { .. });
        if from_l1 || !matches!(mshr.kind, TxnKind::RemoteInv { .. }) {
            mshr.acks_received += 1;
        }
        self.try_complete(msg.addr, now, out);
    }

    fn try_complete(&mut self, addr: LineAddr, now: u64, out: &mut Vec<Outgoing>) {
        let Some(mshr) = self.mshrs.get(&addr) else {
            return;
        };
        let acks_done = mshr.acks_received >= mshr.acks_needed
            && mshr.leg != (Leg::Directory { info_pending: true });
        let done = match mshr.kind {
            TxnKind::Read => mshr.data.is_some(),
            TxnKind::Write => mshr.data.is_some() && acks_done,
            TxnKind::RemoteInv { .. } => acks_done,
        };
        if !done {
            return;
        }
        let mshr = self.mshrs.remove(&addr).expect("mshr present");
        match mshr.kind {
            TxnKind::RemoteInv {
                reply_to,
                with_data,
            } => self.reply_remote(out, 1, &mshr.origin, reply_to, with_data),
            TxnKind::Read | TxnKind::Write => self.fill_and_grant(&mshr, now, out),
        }
        // Replay the requests parked behind it.
        self.parked.retain(|m| {
            if m.addr == addr {
                out.push(Outgoing::after(1, *m));
            }
            m.addr != addr
        });
    }

    /// Completes a local read or write: installs the line and grants it to
    /// the requesting L1.
    fn fill_and_grant(&mut self, mshr: &Mshr, now: u64, out: &mut Vec<Outgoing>) {
        let addr = mshr.origin.addr;
        let requester = mshr.origin.requester;
        let source = mshr
            .data
            .expect("a completed local transaction has its data");
        let is_write = mshr.kind == TxnKind::Write;

        // Install or update the line.
        let set = self.set_of(addr);
        if let Some(entry) = self.array.peek_mut(set, addr) {
            entry.last_access = now;
            if let Some(state) = mshr.install_state {
                entry.meta.state = state;
            }
            if is_write {
                entry.meta.sharers.clear();
                entry.meta.l1_owner = Some(requester);
            }
            entry.meta.sharers.insert(requester);
        } else {
            let mut meta = L2Meta::new(mshr.install_state.unwrap_or(MoesiState::S));
            meta.sharers.insert(requester);
            if is_write {
                meta.l1_owner = Some(requester);
            }
            self.stats.l2_data_writes += 1;
            if let Eviction::Victim(victim) = self.array.insert(set, addr, meta, now) {
                self.handle_eviction(victim, 0, now, out);
            }
        }

        // Statistics: on-chip search delay (Figure 9) and remote hits.
        if let Some(start) = mshr.started_search_at {
            if source == ResponseSource::Remote {
                self.stats.search_delay_sum += now.saturating_sub(start);
                self.stats.search_delay_count += 1;
                self.stats.remote_hits += 1;
            }
        }

        // Grant to the requesting L1 (the data is read back out of the
        // array, or forwarded straight through on a miss fill).
        self.stats.l2_data_reads += 1;
        let grant = if is_write {
            MsgKind::DataM(source)
        } else {
            MsgKind::DataS(source)
        };
        self.send(out, self.lat(), &mshr.origin, grant, Agent::l1(requester));
        if let Leg::Directory { .. } = mshr.leg {
            let dir = Agent::dir(self.memmap.controller_for(addr));
            self.send(out, self.lat(), &mshr.origin, MsgKind::Unblock, dir);
        }
    }

    // -------------------------------------------------------------- evictions

    fn handle_eviction(
        &mut self,
        victim: Entry<L2Meta>,
        chain_hop: u8,
        now: u64,
        out: &mut Vec<Outgoing>,
    ) {
        // The eviction's messages name this node as requester (a recalled
        // L1, for its own recall), issued now; `send` reads nothing else.
        let about = ProtocolMsg {
            addr: victim.addr,
            kind: MsgKind::PutL2,
            src: Agent::l2(self.node),
            dst: Agent::l2(self.node),
            requester: self.node,
            issued_at: now,
        };
        // Inclusive L2: recall L1 copies (fire and forget).
        for l1 in victim.meta.sharers.iter() {
            self.stats.invalidations += 1;
            let recall = ProtocolMsg {
                requester: l1,
                ..about
            };
            self.send(out, self.lat(), &recall, MsgKind::InvL1, Agent::l1(l1));
        }
        if self.org.uses_ivr() && victim.meta.state.is_valid() && chain_hop < self.cfg.ivr_threshold
        {
            // Inter-cluster victim replacement: migrate to the same-HNid home
            // node of a random other cluster (the victim's data is read out
            // of the array to travel with the migration).
            self.stats.ivr_migrations += 1;
            self.stats.l2_data_reads += 1;
            let dst = self.random_other_home(victim.addr);
            let migrate = MsgKind::IvrMigrate {
                state: victim.meta.state,
                last_access: self.quantize(victim.last_access),
                hop: chain_hop,
            };
            self.send(out, self.lat(), &about, migrate, Agent::l2(dst));
            return;
        }
        if self.org.uses_ivr() && chain_hop >= self.cfg.ivr_threshold {
            self.stats.ivr_writebacks += 1;
        }
        let controller = self.memmap.controller_for(victim.addr);
        let (mem, dir) = (Agent::mem(controller), Agent::dir(controller));
        if victim.meta.state.is_dirty() {
            // The dirty victim is read out for the off-chip writeback.
            self.stats.l2_data_reads += 1;
            self.send(out, self.lat(), &about, MsgKind::MemWb, mem);
        }
        if self.org.uses_global_directory() {
            self.send(out, self.lat(), &about, MsgKind::PutL2, dir);
        }
    }

    // -------------------------------------------------------------------- IVR

    fn handle_ivr(
        &mut self,
        msg: ProtocolMsg,
        state: MoesiState,
        last_access: u64,
        hop: u8,
        now: u64,
        out: &mut Vec<Outgoing>,
    ) {
        let set = self.set_of(msg.addr);
        self.stats.l2_tag_probes += 1;
        // Already resident: merge ownership and drop the migrant.
        if let Some(entry) = self.array.peek_mut(set, msg.addr) {
            if state.is_owner() && !entry.meta.state.is_owner() {
                entry.meta.state = MoesiState::O;
            }
            self.stats.ivr_accepted += 1;
            return;
        }
        let accept = match self.array.would_evict(set) {
            None => true,
            Some(local_victim) => last_access > self.quantize(local_victim.last_access),
        };
        if accept {
            self.stats.ivr_accepted += 1;
            self.stats.l2_data_writes += 1;
            let meta = L2Meta::new(state);
            let displaced = self.array.insert(set, msg.addr, meta, now);
            // Preserve the migrant's age so it does not unfairly outlive
            // younger local lines.
            if let Some(entry) = self.array.peek_mut(set, msg.addr) {
                entry.last_access = last_access;
            }
            if let Eviction::Victim(victim) = displaced {
                // The displaced (older) local victim continues the chain.
                self.handle_eviction(victim, hop.saturating_add(1), now, out);
            }
        } else {
            self.stats.ivr_denied += 1;
            // Steer the migrant to another random cluster, or write it back
            // once the chain is exhausted.
            if hop.saturating_add(1) >= self.cfg.ivr_threshold {
                self.stats.ivr_writebacks += 1;
                if state.is_dirty() {
                    let mem = Agent::mem(self.memmap.controller_for(msg.addr));
                    self.send(out, self.lat(), &msg, MsgKind::MemWb, mem);
                }
                return;
            }
            let dst = self.random_other_home(msg.addr);
            self.stats.ivr_migrations += 1;
            let migrate = MsgKind::IvrMigrate {
                state,
                last_access,
                hop: hop.saturating_add(1),
            };
            self.send(out, self.lat(), &msg, migrate, Agent::l2(dst));
        }
    }

    /// Test-and-inspection helper: the MOESI state of `line` if resident.
    pub fn line_state(&self, line: LineAddr) -> Option<MoesiState> {
        let set = self.set_of(line);
        self.array.peek(set, line).map(|e| e.meta.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loco_noc::Mesh;

    fn mk(org: Organization, node: u16) -> L2Controller {
        let memmap = MemoryMap::asplos(org.mesh());
        L2Controller::new(NodeId(node), L2Config::default(), org, memmap)
    }

    fn gets(addr: u64, requester: u16, home: u16) -> ProtocolMsg {
        ProtocolMsg {
            addr: LineAddr(addr),
            kind: MsgKind::GetS,
            src: Agent::l1(NodeId(requester)),
            dst: Agent::l2(NodeId(home)),
            requester: NodeId(requester),
            issued_at: 0,
        }
    }

    fn getm(addr: u64, requester: u16, home: u16) -> ProtocolMsg {
        ProtocolMsg {
            kind: MsgKind::GetM,
            ..gets(addr, requester, home)
        }
    }

    #[test]
    fn shared_l2_miss_goes_to_memory_and_fill_grants_data() {
        let org = Organization::shared(Mesh::new(8, 8));
        let mut l2 = mk(org, 5);
        let mut out = Vec::new();
        l2.handle(gets(5, 9, 5), 0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind, MsgKind::MemRead);
        assert_eq!(out[0].msg.dst.unit, Unit::Mem);
        assert_eq!(l2.stats().l2_misses, 1);
        // Memory data arrives.
        let mut out = Vec::new();
        let memdata = ProtocolMsg {
            addr: LineAddr(5),
            kind: MsgKind::MemData,
            src: Agent::mem(NodeId(4)),
            dst: Agent::l2(NodeId(5)),
            requester: NodeId(9),
            issued_at: 0,
        };
        l2.handle(memdata, 210, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind, MsgKind::DataS(ResponseSource::Memory));
        assert_eq!(out[0].msg.dst, Agent::l1(NodeId(9)));
        assert_eq!(l2.line_state(LineAddr(5)), Some(MoesiState::E));
        // A second read now hits.
        let mut out = Vec::new();
        l2.handle(gets(5, 10, 5), 220, &mut out);
        assert_eq!(out[0].msg.kind, MsgKind::DataS(ResponseSource::Home));
        assert_eq!(l2.stats().l2_hits, 1);
    }

    use crate::msg::Unit;

    #[test]
    fn vms_miss_sends_the_dram_read_with_the_broadcast_and_acks_add_nothing() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCcVms,
            crate::organization::ClusterShape::new(4, 4),
        );
        // Home of line 0 for requester 0 is node 0 itself.
        let mut l2 = mk(org, 0);
        let mut out = Vec::new();
        l2.handle(gets(0, 1, 0), 0, &mut out);
        // Section 3.4: the request is broadcast on the VMS *and* sent to
        // off-chip memory in parallel.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].msg.kind, MsgKind::BcastGetS);
        assert_eq!(out[1].msg.kind, MsgKind::MemRead);
        assert_eq!(l2.stats().broadcasts, 1);
        // Three remote home nodes reply "not owner": nothing more to send,
        // the controller is already waiting for the (uncancelled) DRAM
        // response.
        let mut out = Vec::new();
        for i in 0..3 {
            let ack = ProtocolMsg {
                addr: LineAddr(0),
                kind: MsgKind::AckNoData,
                src: Agent::l2(NodeId(32 + i)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(1),
                issued_at: 0,
            };
            l2.handle(ack, 10 + u64::from(i), &mut out);
        }
        assert!(out.is_empty());
        assert!(!out.iter().any(|o| o.msg.kind == MsgKind::MemCancel));
    }

    #[test]
    fn vms_miss_satisfied_by_remote_owner_records_search_delay() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCcVms,
            crate::organization::ClusterShape::new(4, 4),
        );
        let mut l2 = mk(org, 0);
        let mut out = Vec::new();
        l2.handle(gets(0, 1, 0), 0, &mut out);
        let mut out = Vec::new();
        let data = ProtocolMsg {
            addr: LineAddr(0),
            kind: MsgKind::OwnerData,
            src: Agent::l2(NodeId(36)),
            dst: Agent::l2(NodeId(0)),
            requester: NodeId(1),
            issued_at: 0,
        };
        l2.handle(data, 25, &mut out);
        // The on-chip owner answered: the speculative DRAM fetch is cancelled
        // and the requesting L1 receives the data.
        assert!(out.iter().any(|o| o.msg.kind == MsgKind::MemCancel));
        assert!(out
            .iter()
            .any(|o| o.msg.kind == MsgKind::DataS(ResponseSource::Remote)));
        assert_eq!(l2.stats().remote_hits, 1);
        assert_eq!(l2.stats().search_delay_count, 1);
        assert_eq!(l2.stats().search_delay_sum, 25);
        assert_eq!(l2.line_state(LineAddr(0)), Some(MoesiState::S));
    }

    #[test]
    fn remote_broadcast_read_owner_replies_with_data() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCcVms,
            crate::organization::ClusterShape::new(4, 4),
        );
        let mut l2 = mk(org, 0);
        // Fill the line via a miss + memory data so the node owns it (E).
        let mut out = Vec::new();
        l2.handle(gets(0, 1, 0), 0, &mut out);
        let mut out = Vec::new();
        for i in 0..3 {
            l2.handle(
                ProtocolMsg {
                    addr: LineAddr(0),
                    kind: MsgKind::AckNoData,
                    src: Agent::l2(NodeId(32 + i)),
                    dst: Agent::l2(NodeId(0)),
                    requester: NodeId(1),
                    issued_at: 0,
                },
                5,
                &mut out,
            );
        }
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(0),
                kind: MsgKind::MemData,
                src: Agent::mem(NodeId(4)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(1),
                issued_at: 0,
            },
            210,
            &mut out,
        );
        assert_eq!(l2.line_state(LineAddr(0)), Some(MoesiState::E));
        // Now a broadcast read from another cluster's home node arrives.
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(0),
                kind: MsgKind::BcastGetS,
                src: Agent::l2(NodeId(36)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(37),
                issued_at: 300,
            },
            300,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind, MsgKind::OwnerData);
        assert_eq!(out[0].msg.dst, Agent::l2(NodeId(36)));
        // Ownership downgraded to O.
        assert_eq!(l2.line_state(LineAddr(0)), Some(MoesiState::O));
    }

    #[test]
    fn remote_broadcast_read_non_owner_acks_without_data() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCcVms,
            crate::organization::ClusterShape::new(4, 4),
        );
        let mut l2 = mk(org, 0);
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(16),
                kind: MsgKind::BcastGetS,
                src: Agent::l2(NodeId(36)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(37),
                issued_at: 0,
            },
            0,
            &mut out,
        );
        assert_eq!(out[0].msg.kind, MsgKind::AckNoData);
    }

    #[test]
    fn write_hit_with_local_sharers_invalidates_them_before_granting() {
        let org = Organization::shared(Mesh::new(8, 8));
        let mut l2 = mk(org, 5);
        // Two readers share the line (via memory fill then a hit).
        let mut out = Vec::new();
        l2.handle(gets(5, 9, 5), 0, &mut out);
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(5),
                kind: MsgKind::MemData,
                src: Agent::mem(NodeId(4)),
                dst: Agent::l2(NodeId(5)),
                requester: NodeId(9),
                issued_at: 0,
            },
            200,
            &mut out,
        );
        let mut out = Vec::new();
        l2.handle(gets(5, 10, 5), 210, &mut out);
        // Now node 10 writes: node 9's copy must be invalidated first.
        let mut out = Vec::new();
        l2.handle(getm(5, 10, 5), 220, &mut out);
        let invs: Vec<_> = out
            .iter()
            .filter(|o| o.msg.kind == MsgKind::InvL1)
            .collect();
        assert_eq!(invs.len(), 1);
        assert_eq!(invs[0].msg.dst, Agent::l1(NodeId(9)));
        assert!(out.iter().all(|o| !matches!(o.msg.kind, MsgKind::DataM(_))));
        // The ack releases the grant.
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(5),
                kind: MsgKind::InvAckL1 { dirty: false },
                src: Agent::l1(NodeId(9)),
                dst: Agent::l2(NodeId(5)),
                requester: NodeId(10),
                issued_at: 220,
            },
            230,
            &mut out,
        );
        assert!(out.iter().any(|o| matches!(o.msg.kind, MsgKind::DataM(_))));
        assert_eq!(l2.line_state(LineAddr(5)), Some(MoesiState::M));
    }

    #[test]
    fn conflicting_request_waits_for_outstanding_mshr() {
        let org = Organization::shared(Mesh::new(8, 8));
        let mut l2 = mk(org, 5);
        let mut out = Vec::new();
        l2.handle(gets(5, 9, 5), 0, &mut out);
        // A second request for the same line while the first is outstanding.
        let mut out = Vec::new();
        l2.handle(gets(5, 10, 5), 1, &mut out);
        assert!(
            out.is_empty(),
            "second request must be queued, not serviced"
        );
        // Memory data completes the first and replays the second.
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(5),
                kind: MsgKind::MemData,
                src: Agent::mem(NodeId(4)),
                dst: Agent::l2(NodeId(5)),
                requester: NodeId(9),
                issued_at: 0,
            },
            200,
            &mut out,
        );
        // One grant to node 9, plus the replayed request addressed to self.
        assert!(out.iter().any(|o| o.msg.dst == Agent::l1(NodeId(9))));
        assert!(out
            .iter()
            .any(|o| o.msg.kind == MsgKind::GetS && o.msg.dst == Agent::l2(NodeId(5))));
    }

    #[test]
    fn ivr_migration_accepted_when_set_has_room() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCcVmsIvr,
            crate::organization::ClusterShape::new(4, 4),
        );
        let mut l2 = mk(org, 0);
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(0),
                kind: MsgKind::IvrMigrate {
                    state: MoesiState::O,
                    last_access: 100,
                    hop: 0,
                },
                src: Agent::l2(NodeId(36)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(36),
                issued_at: 0,
            },
            500,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(l2.stats().ivr_accepted, 1);
        assert_eq!(l2.line_state(LineAddr(0)), Some(MoesiState::O));
    }

    #[test]
    fn ivr_denied_migrant_is_resteered_and_eventually_written_back() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCcVmsIvr,
            crate::organization::ClusterShape::new(4, 4),
        );
        let mut l2 = mk(org, 0);
        // Fill set 0 of the array with young lines so the migrant (old) is
        // denied. Set index uses bits above the 4 HNid bits: lines k*16*256
        // map to HNid 0, set 0... use addresses with hnid=0 and same set.
        let sets = l2.array.num_sets() as u64;
        for i in 0..8u64 {
            let line = LineAddr((i * sets) << 4); // hnid 0, set 0
            let meta = L2Meta::new(MoesiState::S);
            l2.array.insert(0, line, meta, 1_000_000 + i);
        }
        // An old migrant arrives with one hop left before the threshold.
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr((99 * sets) << 4),
                kind: MsgKind::IvrMigrate {
                    state: MoesiState::M,
                    last_access: 10,
                    hop: 2,
                },
                src: Agent::l2(NodeId(36)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(36),
                issued_at: 0,
            },
            2_000_000,
            &mut out,
        );
        assert_eq!(l2.stats().ivr_denied, 1);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].msg.kind,
            MsgKind::IvrMigrate { hop: 3, .. }
        ));
        // Another denial at the threshold forces the writeback.
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr((98 * sets) << 4),
                kind: MsgKind::IvrMigrate {
                    state: MoesiState::M,
                    last_access: 10,
                    hop: 3,
                },
                src: Agent::l2(NodeId(36)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(36),
                issued_at: 0,
            },
            2_000_001,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind, MsgKind::MemWb);
        assert_eq!(l2.stats().ivr_writebacks, 1);
    }

    #[test]
    fn directory_write_path_waits_for_dir_info_and_acks() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCc,
            crate::organization::ClusterShape::new(4, 4),
        );
        let mut l2 = mk(org, 0);
        // Prime the line as shared (S) via a read fill from a remote owner.
        let mut out = Vec::new();
        l2.handle(gets(0, 1, 0), 0, &mut out);
        assert_eq!(out[0].msg.kind, MsgKind::GblGetS);
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(0),
                kind: MsgKind::OwnerData,
                src: Agent::l2(NodeId(36)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(1),
                issued_at: 0,
            },
            30,
            &mut out,
        );
        assert_eq!(l2.line_state(LineAddr(0)), Some(MoesiState::S));
        // Unblock must have been sent to the directory.
        assert!(out.iter().any(|o| o.msg.kind == MsgKind::Unblock));
        // A write now needs the directory round trip.
        let mut out = Vec::new();
        l2.handle(getm(0, 1, 0), 40, &mut out);
        assert!(out.iter().any(|o| o.msg.kind == MsgKind::GblGetM));
        // DirInfo says: one remote sharer to invalidate, no data coming.
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(0),
                kind: MsgKind::DirInfo {
                    acks: 1,
                    data_coming: false,
                },
                src: Agent::dir(NodeId(4)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(1),
                issued_at: 40,
            },
            55,
            &mut out,
        );
        assert!(out.is_empty(), "must wait for the remote invalidation ack");
        let mut out = Vec::new();
        l2.handle(
            ProtocolMsg {
                addr: LineAddr(0),
                kind: MsgKind::InvAckL2,
                src: Agent::l2(NodeId(36)),
                dst: Agent::l2(NodeId(0)),
                requester: NodeId(1),
                issued_at: 40,
            },
            70,
            &mut out,
        );
        assert!(out.iter().any(|o| matches!(o.msg.kind, MsgKind::DataM(_))));
        assert_eq!(l2.line_state(LineAddr(0)), Some(MoesiState::M));
    }

    fn remote(addr: u64, kind: MsgKind, src: Agent) -> ProtocolMsg {
        ProtocolMsg {
            addr: LineAddr(addr),
            kind,
            src,
            dst: Agent::l2(NodeId(0)),
            requester: NodeId(37),
            issued_at: 300,
        }
    }

    #[test]
    fn remote_invalidation_replies_after_the_last_local_ack() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCcVms,
            crate::organization::ClusterShape::new(4, 4),
        );
        let mut l2 = mk(org, 0);
        // Node 0 owns line 0 (E, from DRAM) with local L1 sharers 1 and 2.
        let mut out = Vec::new();
        l2.handle(gets(0, 1, 0), 0, &mut out);
        l2.handle(
            ProtocolMsg {
                kind: MsgKind::MemData,
                src: Agent::mem(NodeId(4)),
                ..gets(0, 1, 0)
            },
            210,
            &mut out,
        );
        l2.handle(gets(0, 2, 0), 220, &mut out);
        assert_eq!(l2.line_state(LineAddr(0)), Some(MoesiState::E));
        assert_eq!(l2.outstanding(), 0);

        // Another cluster's home broadcasts a write: both L1 copies are
        // invalidated before the owner replies.
        let bcast = remote(0, MsgKind::BcastGetM, Agent::l2(NodeId(36)));
        let mut out = Vec::new();
        l2.handle(bcast, 300, &mut out);
        let invs: Vec<_> = out.iter().map(|o| (o.msg.kind, o.msg.dst)).collect();
        assert_eq!(
            invs,
            vec![
                (MsgKind::InvL1, Agent::l1(NodeId(1))),
                (MsgKind::InvL1, Agent::l1(NodeId(2))),
            ]
        );
        assert!(out.iter().all(|o| o.delay == l2.lat()));
        assert_eq!(l2.line_state(LineAddr(0)), None);

        // A local read arriving meanwhile waits behind the invalidation.
        let mut out = Vec::new();
        l2.handle(gets(0, 3, 0), 305, &mut out);
        let ack = |from: u16| ProtocolMsg {
            kind: MsgKind::InvAckL1 { dirty: false },
            src: Agent::l1(NodeId(from)),
            ..bcast
        };
        l2.handle(ack(1), 310, &mut out);
        assert!(out.is_empty(), "no reply before the last local ack");

        let reads = l2.stats().l2_data_reads;
        l2.handle(ack(2), 312, &mut out);
        assert_eq!(l2.stats().l2_data_reads, reads + 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].delay, 1);
        assert_eq!(
            out[0].msg,
            ProtocolMsg {
                kind: MsgKind::OwnerDataM,
                src: Agent::l2(NodeId(0)),
                dst: Agent::l2(NodeId(36)),
                ..bcast
            }
        );
        assert_eq!(out[1], Outgoing::after(1, gets(0, 3, 0)));
        assert_eq!(l2.outstanding(), 0);
    }

    #[test]
    fn remote_invalidation_without_local_sharers_replies_at_once() {
        let org = Organization::loco(
            Mesh::new(8, 8),
            crate::organization::OrganizationKind::LocoCc,
            crate::organization::ClusterShape::new(4, 4),
        );
        let mut l2 = mk(org, 0);
        let dir = Agent::dir(NodeId(4));
        // The directory forwards a write to us as the owner: the data goes
        // straight to the requester's home (node 36).
        let mut out = Vec::new();
        l2.handle(remote(0, MsgKind::FwdGetM, dir), 300, &mut out);
        assert_eq!(l2.stats().l2_data_reads, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].delay, l2.lat());
        assert_eq!(out[0].msg.kind, MsgKind::OwnerDataM);
        assert_eq!(out[0].msg.dst, Agent::l2(NodeId(36)));
        // A sharer's invalidation is acknowledged without data.
        let mut out = Vec::new();
        l2.handle(remote(16, MsgKind::InvL2, dir), 301, &mut out);
        assert_eq!(l2.stats().l2_data_reads, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].delay, l2.lat());
        assert_eq!(out[0].msg.kind, MsgKind::InvAckL2);
        assert_eq!(out[0].msg.dst, Agent::l2(NodeId(36)));
        assert_eq!(l2.outstanding(), 0);
    }
}
