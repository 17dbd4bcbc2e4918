//! The simulated CMP: cores, caches, directories, memory controllers and the
//! NoC.
//!
//! # Two execution modes, one semantics
//!
//! [`CmpSystem::step`] is the *naive reference*: it advances every component
//! by exactly one cycle, and its behaviour defines the simulation. On top of
//! it, [`CmpSystem::run`] is an **event-driven scheduler with cycle
//! skipping**: after each stepped cycle it computes the earliest future
//! cycle at which *any* component can act and fast-forwards the clock across
//! the dead cycles in between (e.g. the 200-cycle DRAM latency while every
//! core is stalled). [`CmpSystem::run_naive`] keeps the literal per-cycle
//! loop; the two must produce bit-identical [`SimResults`] (locked in by the
//! root `tests/equivalence.rs` suite).
//!
//! # Event-driven invariants
//!
//! Cycle skipping is exact because a skipped cycle is provably a no-op step.
//! Every time-dependent component therefore exposes its schedule:
//!
//! * **Cores** — [`CoreModel::needs_tick`] is `false` only when a tick
//!   cannot change state (finished, stalled on a fill, or parked at an
//!   already-announced barrier). Any core that needs a tick forces the next
//!   step to happen on the very next cycle.
//! * **Pending protocol messages** — a timing wheel (`loco_noc::TimingWheel`)
//!   keyed by ready cycle holds them in `(ready, send order)` order; its
//!   earliest entry names the next injection cycle.
//! * **NoC retries** — messages bounced by back-pressure retry every cycle,
//!   so a non-empty retry queue disables skipping entirely (conservative,
//!   and rare outside saturation).
//! * **Memory controllers** — `MemoryController::next_event` is a
//!   controller's earliest pending DRAM `fire_at`. The system caches the
//!   minimum over every controller, exactly, recomputing it after each
//!   dispatch to a memory controller and each DRAM tick (debug builds check
//!   the cache wherever it is read). A step visits the controllers only
//!   when that minimum is due, and the horizon folds it as one value.
//! * **Network** — `Network::next_event` names the earliest cycle at which
//!   a network tick can change state *even under partial occupancy*: it
//!   folds the earliest queued arrival (multi-flit releases,
//!   high-radix pipeline exits) with the fabric's per-head probe
//!   (`Fabric::next_event`), which scans every occupied (router,
//!   lane) head for the first cycle it is both switch-eligible
//!   (`ready_at`) and sees its requested output link free. The probes are
//!   conservative from below: they may name a cycle at which arbitration
//!   or downstream occupancy then denies every move — such a tick changes
//!   no state, because arbiter pointers and event counters only move when
//!   a candidate exists — but they never skip past a live event. This is
//!   the **per-component horizon contract**: skipping engages whenever
//!   *all* components agree on a future horizon, not only at global NoC
//!   drain (the pre-PR-5 behaviour), so barrier-phased and DRAM-bound
//!   workloads with stragglers in flight still fast-forward.
//!
//! The horizon fold itself short-circuits: any source whose event is due
//! *now* ends the probe immediately, so compute-dense phases pay one bitset
//! scan and congested phases stop at the first now-eligible head.
//!
//! Anyone adding new time-dependent state to the system must either expose
//! its next event in [`CmpSystem`]'s horizon computation (and keep that
//! probe free of state mutation — counters may only move in
//! `inject`/`tick`/handlers) or force per-cycle stepping while that state
//! is active, otherwise `run` silently diverges from `run_naive`. The root
//! `tests/equivalence.rs` suite — including its seeded randomized stress
//! runs over hundreds of short configurations — is the oracle for every
//! probe in this chain.

use crate::config::SystemConfig;
use crate::core::{CoreModel, CoreStatus};
use crate::results::SimResults;
use loco_cache::{
    CacheStats, DirectoryController, L1Controller, L2Controller, MemoryController, MemoryMap,
    MsgKind, Organization, Outgoing, ProtocolMsg, ResponseSource, Unit,
};
use loco_noc::{
    Delivered, Destination, MulticastGroupId, NetMessage, Network, NodeId, TimingWheel,
};
use loco_workloads::CoreTrace;
use std::collections::VecDeque;

/// A protocol message waiting out its local processing delay before being
/// injected into the network at the given node.
type Pending = (NodeId, ProtocolMsg);

/// Barrier arrivals as one bitset over the cores per barrier group. A group
/// has at most one open barrier: it releases every member in the step it
/// completes, so no member can reach the group's next barrier before then.
#[derive(Debug)]
struct BarrierTracker {
    /// Dense group index of each core.
    group_of: Vec<usize>,
    /// Per group: the members a barrier waits for (cores with a non-empty
    /// trace), the open barrier's id and the members arrived at it so far.
    open: Vec<(usize, u32, usize)>,
    /// `words` words per group: bit `i` set iff core `i` arrived.
    arrived: Vec<u64>,
    words: usize,
}

impl BarrierTracker {
    /// A tracker for the cores of `groups` (one group id per core); a
    /// barrier waits for the cores `i` with `member(i)`.
    fn new(groups: &[usize], member: impl Fn(usize) -> bool) -> Self {
        let mut ids = groups.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let group_of: Vec<usize> = groups
            .iter()
            .map(|g| ids.binary_search(g).expect("every group id is listed"))
            .collect();
        let mut open = vec![(0, 0, 0); ids.len()];
        for (core, &g) in group_of.iter().enumerate() {
            open[g].0 += usize::from(member(core));
        }
        let words = groups.len().div_ceil(64);
        BarrierTracker {
            group_of,
            open,
            arrived: vec![0; ids.len() * words],
            words,
        }
    }

    /// Registers `core`'s arrival at barrier `id`; returns the core's group
    /// if that barrier is now complete.
    fn arrive(&mut self, core: usize, id: u32) -> Option<usize> {
        let g = self.group_of[core];
        let (size, open_id, arrived) = &mut self.open[g];
        debug_assert!(
            *arrived == 0 || *open_id == id,
            "two open barriers in group {g}"
        );
        *open_id = id;
        let (word, bit) = (
            &mut self.arrived[g * self.words + core / 64],
            1 << (core % 64),
        );
        *arrived += usize::from(*word & bit == 0);
        *word |= bit;
        (*arrived >= *size).then_some(g)
    }

    /// Closes group `g`'s open barrier, calling `wake` with every core that
    /// arrived at it, in ascending core order.
    fn release(&mut self, g: usize, mut wake: impl FnMut(usize)) {
        self.open[g].2 = 0;
        let words = &mut self.arrived[g * self.words..(g + 1) * self.words];
        for (w, word) in words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                wake(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// A full simulated chip multiprocessor.
pub struct CmpSystem {
    cfg: SystemConfig,
    org: Organization,
    memmap: MemoryMap,
    network: Network<ProtocolMsg>,
    cores: Vec<CoreModel>,
    l1s: Vec<L1Controller>,
    l2s: Vec<L2Controller>,
    /// One directory and one memory controller per memory-controller node,
    /// in ascending node order: the DRAM tick's order, which decides the
    /// order of same-cycle replies in `pending`.
    dirs: Vec<DirectoryController>,
    mems: Vec<MemoryController>,
    /// The earliest DRAM release over all of `mems` (`u64::MAX` when no
    /// read is outstanding). Exact, not a lower bound: it is recomputed
    /// after every dispatch to a memory controller and every DRAM tick, the
    /// only places where a controller's `next_event` can move.
    dram_next: u64,
    /// `controller[node]`: the index into `dirs` and `mems` of the
    /// controllers at `node`, if it has any.
    controller: Vec<Option<u16>>,
    /// The multicast group of each virtual mesh, indexed by HNid.
    vms_groups: Vec<MulticastGroupId>,
    pending: TimingWheel<Pending>,
    retry: VecDeque<NetMessage<ProtocolMsg>>,
    barriers: BarrierTracker,
    now: u64,
    /// Number of `step()` calls executed (diagnostic: `cycle() -
    /// steps_executed()` is how many dead cycles the event-driven scheduler
    /// skipped).
    steps_executed: u64,
    /// Cycles skipped while the NoC still held in-flight packets — skips the
    /// pre-PR-5 drain-only probe could never take. Event-driven mode only;
    /// deliberately not part of [`SimResults`] (naive runs never skip).
    skipped_while_busy: u64,
    // Persistent per-step scratch buffers: the step loop is the simulator's
    // hottest path and must not allocate in steady state.
    outgoing_scratch: Vec<Outgoing>,
    due_scratch: Vec<Pending>,
    delivery_scratch: Vec<Delivered<ProtocolMsg>>,
    /// Groups whose barrier completed this step.
    barrier_scratch: Vec<usize>,
    /// Bitset mirror of `CoreModel::needs_tick` per core, maintained at
    /// every transition (after a tick, on fill, on barrier release). The
    /// per-cycle core loop walks set bits instead of probing every core, and
    /// the event horizon's "any core runnable?" probe becomes O(words).
    runnable: Vec<u64>,
    /// Cores whose trace has completed (a one-way transition, counted when a
    /// core's tick first reports it), making `all_finished` O(1) instead of
    /// an O(cores) scan per cycle.
    finished_count: usize,
    // System-level latency accounting (attributed at L1 fill time).
    l2_hit_latency_sum: u64,
    l2_hit_latency_count: u64,
    miss_latency_sum: u64,
    miss_latency_count: u64,
}

impl CmpSystem {
    /// Builds a system where core `i` replays `traces[i]`; all cores belong
    /// to barrier group 0.
    ///
    /// # Panics
    ///
    /// Panics if there are more traces than tiles.
    pub fn new(cfg: SystemConfig, traces: Vec<CoreTrace>) -> Self {
        let n = traces.len();
        Self::with_groups(cfg, traces, vec![0; n])
    }

    /// Builds a system with an explicit barrier/task group per core
    /// (multi-program workloads map each task instance to its own group).
    ///
    /// # Panics
    ///
    /// Panics if there are more traces than tiles or the group vector length
    /// does not match.
    pub fn with_groups(
        cfg: SystemConfig,
        mut traces: Vec<CoreTrace>,
        mut groups: Vec<usize>,
    ) -> Self {
        let cores_n = cfg.num_cores();
        assert!(
            traces.len() <= cores_n,
            "{} traces for a {}-core system",
            traces.len(),
            cores_n
        );
        assert_eq!(traces.len(), groups.len(), "one group per trace");
        traces.resize(cores_n, CoreTrace::default());
        groups.resize(cores_n, usize::MAX);
        let org = cfg.organization();
        let memmap = cfg.memory_map();
        let mut network = Network::new(cfg.noc_config());

        // Pre-register one multicast group per virtual mesh (one per HNid).
        let vms = if org.uses_vms() {
            org.num_vms() as u64
        } else {
            0
        };
        let vms_groups = (0..vms)
            .map(|hnid| {
                network.register_multicast_group(org.vms_members(loco_cache::LineAddr(hnid)))
            })
            .collect();

        let barriers = BarrierTracker::new(&groups, |i| !traces[i].is_empty());

        let cores: Vec<CoreModel> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| CoreModel::new(NodeId(i as u16), t, groups[i]))
            .collect();
        let l1s: Vec<L1Controller> = (0..cores_n)
            .map(|i| L1Controller::new(NodeId(i as u16), cfg.l1, org))
            .collect();
        let l2s: Vec<L2Controller> = (0..cores_n)
            .map(|i| L2Controller::new(NodeId(i as u16), cfg.l2, org, memmap.clone()))
            .collect();
        let mut ctrl_nodes: Vec<NodeId> = memmap.controllers().to_vec();
        ctrl_nodes.sort_unstable();
        let mut controller = vec![None; cores_n];
        for (i, n) in ctrl_nodes.iter().enumerate() {
            controller[n.index()] = Some(i as u16);
        }
        let dirs = ctrl_nodes
            .iter()
            .map(|&n| DirectoryController::new(n, cfg.mem.latency))
            .collect();
        let mems = ctrl_nodes
            .iter()
            .map(|&n| MemoryController::new(n, cfg.mem))
            .collect();

        CmpSystem {
            cfg,
            org,
            memmap,
            network,
            cores,
            l1s,
            l2s,
            dirs,
            mems,
            dram_next: u64::MAX,
            controller,
            vms_groups,
            pending: TimingWheel::new(),
            retry: VecDeque::new(),
            barriers,
            now: 0,
            steps_executed: 0,
            skipped_while_busy: 0,
            outgoing_scratch: Vec::new(),
            due_scratch: Vec::new(),
            delivery_scratch: Vec::new(),
            barrier_scratch: Vec::new(),
            // Every core starts runnable (even an empty trace needs one tick
            // to record its finish, exactly as in naive stepping).
            runnable: {
                let mut words = vec![0u64; cores_n.div_ceil(64)];
                for i in 0..cores_n {
                    words[i / 64] |= 1 << (i % 64);
                }
                words
            },
            finished_count: 0,
            l2_hit_latency_sum: 0,
            l2_hit_latency_count: 0,
            miss_latency_sum: 0,
            miss_latency_count: 0,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Number of cycles actually stepped so far; the difference to
    /// [`CmpSystem::cycle`] is the dead time the event-driven scheduler
    /// skipped.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Cycles the event-driven scheduler skipped while the NoC still held
    /// in-flight packets. The pre-PR-5 probe only skipped once the network
    /// had fully drained, so any non-zero value here is progress only the
    /// fine-grained per-component horizon can make (the equivalence suite
    /// asserts this stays non-zero on stall-heavy workloads).
    pub fn skipped_while_busy(&self) -> u64 {
        self.skipped_while_busy
    }

    /// Whether every core has finished its trace.
    pub fn all_finished(&self) -> bool {
        debug_assert_eq!(
            self.finished_count == self.cores.len(),
            self.cores.iter().all(CoreModel::is_finished)
        );
        self.finished_count == self.cores.len()
    }

    /// Drains `outgoing` into the pending-injection wheel (the buffer is a
    /// reusable scratch; its capacity survives for the next caller).
    fn schedule(&mut self, node: NodeId, outgoing: &mut Vec<Outgoing>) {
        for o in outgoing.drain(..) {
            self.pending.push(self.now + o.delay, (node, o.msg));
        }
    }

    /// The earliest pending DRAM release over every memory controller, or
    /// `u64::MAX` when none is outstanding: what `dram_next` caches.
    fn dram_horizon(&self) -> u64 {
        self.mems
            .iter()
            .filter_map(MemoryController::next_event)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Index into `dirs` and `mems` of the controllers at `node`.
    fn controller_at(&self, node: NodeId) -> usize {
        usize::from(self.controller[node.index()].expect("memory-controller node"))
    }

    fn to_net(&self, node: NodeId, msg: ProtocolMsg) -> NetMessage<ProtocolMsg> {
        let dest = match msg.kind {
            MsgKind::BcastGetS | MsgKind::BcastGetM => {
                let hnid = self.org.vms_id(msg.addr);
                Destination::Multicast(self.vms_groups[hnid as usize])
            }
            _ => Destination::Unicast(msg.dst.node),
        };
        NetMessage {
            src: node,
            dest,
            vn: msg.kind.virtual_network(),
            size_bytes: msg.kind.size_bytes(),
            payload: msg,
        }
    }

    fn dispatch(&mut self, delivered: Delivered<ProtocolMsg>, out: &mut Vec<Outgoing>) {
        let node = delivered.receiver;
        let msg = delivered.msg.payload;
        let idx = node.index();
        debug_assert!(out.is_empty());
        match msg.dst.unit {
            Unit::L1 => {
                if let Some(fill) = self.l1s[idx].handle(msg, self.now, out) {
                    let latency = fill.completed_at.saturating_sub(fill.issued_at);
                    self.miss_latency_sum += latency;
                    self.miss_latency_count += 1;
                    if fill.source == ResponseSource::Home {
                        self.l2_hit_latency_sum += latency;
                        self.l2_hit_latency_count += 1;
                    }
                    self.cores[idx].on_fill();
                    self.runnable[idx / 64] |= 1 << (idx % 64);
                }
            }
            Unit::L2 => self.l2s[idx].handle(msg, self.now, out),
            Unit::Dir => {
                let c = self.controller_at(node);
                self.dirs[c].handle(msg, out);
            }
            Unit::Mem => {
                let c = self.controller_at(node);
                self.mems[c].handle(msg, self.now, out);
                self.dram_next = self.dram_horizon();
            }
        }
        self.schedule(node, out);
    }

    /// Advances the system by exactly one cycle (the naive reference
    /// semantics — see the module docs).
    pub fn step(&mut self) {
        let now = self.now;
        self.steps_executed += 1;
        let model_barriers = self.cfg.full_system;

        // 1. Cores issue instructions. Quiescent cores are skipped: their
        // tick is a proven no-op (see `CoreModel::needs_tick`), so skipping
        // is exact in both execution modes. The runnable bitset mirrors
        // `needs_tick` and is walked in ascending core order, matching the
        // naive full scan.
        let mut completed_barriers = std::mem::take(&mut self.barrier_scratch);
        debug_assert!(completed_barriers.is_empty());
        let mut out = std::mem::take(&mut self.outgoing_scratch);
        debug_assert!(out.is_empty());
        for w in 0..self.runnable.len() {
            let mut bits = self.runnable[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let status = self.cores[i].tick(now, &mut self.l1s[i], &mut out, model_barriers);
                if let CoreStatus::AtBarrier(id) = status {
                    if let Some(group) = self.barriers.arrive(i, id) {
                        completed_barriers.push(group);
                    }
                }
                if !self.cores[i].needs_tick() {
                    self.runnable[w] &= !(1 << (i % 64));
                    // A finished core leaves the runnable set for good; this
                    // is the only place the transition can be observed.
                    if self.cores[i].is_finished() {
                        self.finished_count += 1;
                    }
                }
                if !out.is_empty() {
                    self.schedule(NodeId(i as u16), &mut out);
                }
            }
        }
        for group in completed_barriers.drain(..) {
            self.barriers.release(group, |core_idx| {
                self.cores[core_idx].on_barrier_release();
                self.runnable[core_idx / 64] |= 1 << (core_idx % 64);
            });
        }
        self.barrier_scratch = completed_barriers;

        // 2. Messages whose local processing delay elapsed are injected:
        // retries first (older messages), then the newly ready ones. Each
        // retry is popped from the front once; a rejected message travels
        // back out through the error (nothing is cloned speculatively on
        // this path) and rejoins the queue at the back, behind the retries
        // still to be tried.
        let mut due = std::mem::take(&mut self.due_scratch);
        debug_assert!(due.is_empty());
        self.pending.drain_due(now, &mut due);
        for _ in 0..self.retry.len() {
            let m = self.retry.pop_front().expect("counted retry");
            if let Err(rejected) = self.network.inject(m) {
                self.retry.push_back(rejected.into_message());
            }
        }
        for (node, msg) in due.drain(..) {
            if let Err(rejected) = self.network.inject(self.to_net(node, msg)) {
                self.retry.push_back(rejected.into_message());
            }
        }
        self.due_scratch = due;

        // 3. Memory controllers release DRAM responses whose latency
        // elapsed. None is due before `dram_next`; on a cycle when one is,
        // every controller is visited in ascending node order, which fixes
        // the order of same-cycle replies.
        debug_assert_eq!(self.dram_next, self.dram_horizon(), "stale dram_next");
        if now >= self.dram_next {
            for i in 0..self.mems.len() {
                self.mems[i].tick(now, &mut out);
                if !out.is_empty() {
                    let node = self.mems[i].node();
                    self.schedule(node, &mut out);
                }
            }
            self.dram_next = self.dram_horizon();
        }

        // 4. The fabric advances one cycle and deliveries are dispatched.
        self.network.tick();
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        debug_assert!(deliveries.is_empty());
        self.network.eject_all_into(&mut deliveries);
        for delivered in deliveries.drain(..) {
            self.dispatch(delivered, &mut out);
        }
        self.delivery_scratch = deliveries;
        self.outgoing_scratch = out;

        self.now += 1;
    }

    /// Earliest cycle `>= self.now` at which [`CmpSystem::step`] can make
    /// progress, or `None` when no component will ever act again on its own
    /// (every remaining naive step would be a no-op).
    ///
    /// See the module docs for the per-component event sources and why the
    /// bound is exact.
    fn next_step_cycle(&self) -> Option<u64> {
        // A runnable core retires work every cycle; an unannounced barrier
        // arrival must also tick immediately. Checked first because it is
        // the cheapest probe (one bitset scan) and, during compute-dense
        // phases, short-circuits the fabric scan below.
        if self.runnable.iter().any(|&w| w != 0) {
            debug_assert!(self.cores.iter().any(CoreModel::needs_tick));
            return Some(self.now);
        }
        debug_assert!(!self.cores.iter().any(CoreModel::needs_tick));
        // Messages bounced by injection back-pressure retry every cycle.
        if !self.retry.is_empty() {
            return Some(self.now);
        }
        // Fold the timed event sources, cheapest probe first. Events can be
        // timestamped at or before `self.now` (e.g. a message scheduled with
        // zero delay during the dispatch phase of the step that just ran):
        // the naive loop would act on those on the very next cycle, so they
        // clamp to "step immediately" — and since `self.now` is the lowest
        // any candidate can fold to, a due-now source short-circuits the
        // remaining probes (in particular the per-head fabric scan, which is
        // the most expensive one and runs last).
        let now = self.now;
        let mut next = u64::MAX;
        if let Some(ready) = self.pending.next_ready() {
            if ready <= now {
                return Some(now);
            }
            next = next.min(ready);
        }
        debug_assert_eq!(self.dram_next, self.dram_horizon(), "stale dram_next");
        if self.dram_next <= now {
            return Some(now);
        }
        next = next.min(self.dram_next);
        // The network probe covers partial occupancy: the earliest queued
        // arrival and every buffered head's (ready, link-free) cycle.
        // Before PR 5 this was pinned to `now` whenever any packet was in
        // flight; the per-component horizon lets barrier and DRAM stalls
        // with stragglers in the fabric skip too.
        if let Some(t) = self.network.next_event() {
            if t <= now {
                return Some(now);
            }
            next = next.min(t);
        }
        if next == u64::MAX {
            None
        } else {
            Some(next)
        }
    }

    /// Runs until every core finishes or `max_cycles` elapse, and returns
    /// the aggregated results.
    ///
    /// This is the event-driven scheduler: dead cycles between events (DRAM
    /// waits, in-flight NoC gaps) are skipped wholesale. The results are
    /// bit-identical to [`CmpSystem::run_naive`]; see the module docs for
    /// the invariants that make the skipping exact.
    pub fn run(&mut self, max_cycles: u64) -> SimResults {
        while !self.all_finished() && self.now < max_cycles {
            self.step();
            if self.all_finished() || self.now >= max_cycles {
                break;
            }
            // Fast-forward across provably dead cycles. A fully quiescent
            // system (no future event at all) jumps straight to the cycle
            // budget, exactly where the naive no-op loop would end up.
            let target = self.next_step_cycle().unwrap_or(max_cycles).min(max_cycles);
            if target > self.now {
                if self.network.in_flight() > 0 {
                    self.skipped_while_busy += target - self.now;
                }
                self.network.advance_to(target);
                self.now = target;
            }
        }
        self.results()
    }

    /// Runs the naive per-cycle loop: [`CmpSystem::step`] for every single
    /// cycle, with no skipping. This is the reference semantics that
    /// [`CmpSystem::run`] must reproduce bit-for-bit; it is kept (and
    /// exercised by the equivalence suite) as the oracle for the
    /// event-driven scheduler.
    pub fn run_naive(&mut self, max_cycles: u64) -> SimResults {
        while !self.all_finished() && self.now < max_cycles {
            self.step();
        }
        self.results()
    }

    /// Assembles the results accumulated so far.
    pub fn results(&self) -> SimResults {
        let mut cache = CacheStats::default();
        for l1 in &self.l1s {
            cache.merge(l1.stats());
        }
        for l2 in &self.l2s {
            cache.merge(l2.stats());
        }
        for dir in &self.dirs {
            cache.merge(dir.stats());
        }
        for mem in &self.mems {
            cache.merge(mem.stats());
        }
        cache.instructions = self.cores.iter().map(CoreModel::instructions).sum();
        cache.l2_hit_latency_sum = self.l2_hit_latency_sum;
        cache.l2_hit_latency_count = self.l2_hit_latency_count;
        let runtime = self
            .cores
            .iter()
            .filter_map(CoreModel::finished_at)
            .max()
            .unwrap_or(self.now)
            .max(if self.all_finished() { 0 } else { self.now });
        SimResults {
            runtime_cycles: runtime,
            completed: self.all_finished(),
            avg_l2_hit_latency: cache.avg_l2_hit_latency(),
            avg_miss_latency: if self.miss_latency_count == 0 {
                0.0
            } else {
                self.miss_latency_sum as f64 / self.miss_latency_count as f64
            },
            avg_search_delay: cache.avg_search_delay(),
            l2_mpki: cache.l2_mpki(),
            offchip_accesses: cache.offchip_accesses(),
            instructions: cache.instructions,
            network: self.network.stats(),
            cache,
        }
    }

    /// The memory-controller placement (exposed for tests and tools).
    pub fn memory_map(&self) -> &MemoryMap {
        &self.memmap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loco_cache::{ClusterShape, OrganizationKind};
    use loco_noc::RouterKind;
    use loco_workloads::{Benchmark, TraceGenerator};

    /// A small 16-core system so the protocol tests stay fast.
    fn small_cfg(org: OrganizationKind) -> SystemConfig {
        let mut cfg = SystemConfig::asplos_64(org);
        cfg.mesh_width = 4;
        cfg.mesh_height = 4;
        cfg.cluster = ClusterShape::new(2, 2);
        cfg
    }

    fn small_traces(mem_ops: u64, cores: usize) -> Vec<CoreTrace> {
        let spec = Benchmark::Lu.spec();
        TraceGenerator::new(7).generate(&spec, cores, mem_ops)
    }

    #[test]
    fn barrier_tracker_releases_a_group_in_ascending_core_order() {
        // Group 7 spans two bitset words; core 1 is alone in group 3; the
        // other cores have no trace and never arrive.
        let mut groups = vec![usize::MAX; 71];
        for (core, g) in [(70, 7), (1, 3), (2, 7), (0, 7)] {
            groups[core] = g;
        }
        let mut t = BarrierTracker::new(&groups, |i| groups[i] != usize::MAX);
        assert_eq!(t.arrive(70, 5), None);
        assert_eq!(t.arrive(2, 5), None);
        assert_eq!(t.arrive(2, 5), None, "a repeated arrival counts once");
        assert_eq!(t.arrive(1, 9), Some(0), "group 3 is dense group 0");
        assert_eq!(t.arrive(0, 5), Some(1));
        let mut woken = Vec::new();
        t.release(1, |core| woken.push(core));
        assert_eq!(woken, vec![0, 2, 70]);
        assert_eq!(t.arrive(2, 6), None, "the next barrier starts empty");
    }

    #[test]
    fn every_organization_runs_to_completion() {
        for org in [
            OrganizationKind::Private,
            OrganizationKind::Shared,
            OrganizationKind::LocoCc,
            OrganizationKind::LocoCcVms,
            OrganizationKind::LocoCcVmsIvr,
        ] {
            let cfg = small_cfg(org);
            let mut sys = CmpSystem::new(cfg, small_traces(150, 16));
            let r = sys.run(2_000_000);
            assert!(r.completed, "{org:?} did not complete");
            assert!(r.runtime_cycles > 0);
            assert!(r.instructions > 16 * 150);
            assert!(r.cache.l1_accesses >= 16 * 150);
            assert!(r.offchip_accesses > 0, "{org:?} never touched memory");
        }
    }

    #[test]
    fn every_router_kind_runs_to_completion() {
        for router in [
            RouterKind::Smart,
            RouterKind::Conventional,
            RouterKind::HighRadix,
        ] {
            let cfg = small_cfg(OrganizationKind::LocoCcVms).with_router(router);
            let mut sys = CmpSystem::new(cfg, small_traces(120, 16));
            let r = sys.run(2_000_000);
            assert!(r.completed, "{router:?} did not complete");
        }
    }

    #[test]
    fn shared_lines_are_found_on_chip_with_vms() {
        let cfg = small_cfg(OrganizationKind::LocoCcVms);
        let mut sys = CmpSystem::new(cfg, small_traces(400, 16));
        let r = sys.run(4_000_000);
        assert!(r.completed);
        assert!(r.cache.broadcasts > 0, "VMS broadcasts must occur");
        assert!(
            r.cache.remote_hits > 0,
            "some data must be found in other clusters"
        );
        assert!(r.avg_search_delay > 0.0);
    }

    #[test]
    fn ivr_migrations_happen_under_capacity_pressure() {
        // Radix has a working set much larger than one L2 slice; with the
        // slice shrunk to 4 KB the home nodes must evict, and with IVR those
        // victims migrate to other clusters instead of being dropped.
        let spec = Benchmark::Radix.spec();
        let traces = TraceGenerator::new(3).generate(&spec, 16, 600);
        let mut cfg = small_cfg(OrganizationKind::LocoCcVmsIvr);
        cfg.l2.geometry.size_bytes = 4 * 1024;
        let mut sys = CmpSystem::new(cfg, traces);
        let r = sys.run(6_000_000);
        assert!(r.completed);
        assert!(r.cache.ivr_migrations > 0, "IVR must trigger migrations");
        assert!(r.cache.ivr_accepted > 0, "some migrations must be accepted");
    }

    #[test]
    fn smart_has_lower_l2_hit_latency_than_conventional() {
        let traces = small_traces(300, 16);
        let smart = {
            let cfg = small_cfg(OrganizationKind::LocoCcVms);
            CmpSystem::new(cfg, traces.clone()).run(4_000_000)
        };
        let conv = {
            let cfg = small_cfg(OrganizationKind::LocoCcVms).with_router(RouterKind::Conventional);
            CmpSystem::new(cfg, traces).run(4_000_000)
        };
        assert!(smart.completed && conv.completed);
        assert!(
            smart.avg_l2_hit_latency < conv.avg_l2_hit_latency,
            "SMART {:.2} should beat conventional {:.2}",
            smart.avg_l2_hit_latency,
            conv.avg_l2_hit_latency
        );
        assert!(smart.runtime_cycles <= conv.runtime_cycles);
    }

    #[test]
    fn full_system_mode_with_barriers_completes() {
        let spec = Benchmark::Fft.spec();
        let traces = TraceGenerator::new(9)
            .with_barriers(true)
            .generate(&spec, 16, 300);
        let cfg = small_cfg(OrganizationKind::LocoCcVms).with_full_system(true);
        let mut sys = CmpSystem::new(cfg, traces);
        let r = sys.run(6_000_000);
        assert!(r.completed, "barrier workload must not deadlock");
    }

    #[test]
    fn event_driven_run_matches_naive_run_bit_for_bit() {
        // The root tests/equivalence.rs suite covers every organization and
        // router; this is the fast in-crate canary.
        let cfg = small_cfg(OrganizationKind::LocoCcVms);
        let traces = small_traces(200, 16);
        let event = CmpSystem::new(cfg, traces.clone()).run(2_000_000);
        let naive = CmpSystem::new(cfg, traces).run_naive(2_000_000);
        assert!(event.completed);
        assert_eq!(format!("{event:?}"), format!("{naive:?}"));
    }

    #[test]
    fn cycle_budget_is_respected_with_skipping() {
        // A budget that expires mid-flight: both modes must stop at exactly
        // the same cycle with the same partial results.
        let cfg = small_cfg(OrganizationKind::Private);
        let traces = small_traces(200, 16);
        let event = CmpSystem::new(cfg, traces.clone()).run(700);
        let naive = CmpSystem::new(cfg, traces).run_naive(700);
        assert!(!event.completed, "budget chosen to interrupt the run");
        assert_eq!(event.runtime_cycles, 700);
        assert_eq!(format!("{event:?}"), format!("{naive:?}"));
    }

    #[test]
    fn empty_traces_finish_immediately() {
        let cfg = small_cfg(OrganizationKind::Shared);
        let mut sys = CmpSystem::new(cfg, vec![CoreTrace::default(); 16]);
        let r = sys.run(100);
        assert!(r.completed);
        assert!(r.runtime_cycles <= 1);
        assert_eq!(r.offchip_accesses, 0);
    }

    #[test]
    fn private_cache_misses_more_than_shared_on_shared_data() {
        // A sharing-dominated workload with the L2 slices shrunk to 8 KB:
        // private per-tile L2s replicate the shared working set and thrash,
        // while the shared LLC holds a single copy chip-wide (Figure 6).
        let spec = loco_workloads::BenchmarkSpec::new(Benchmark::Barnes)
            .private_lines(64)
            .shared_lines(2048)
            .shared_fraction(0.9)
            .reuse(0.3)
            .pattern(loco_workloads::SharingPattern::Global);
        let traces = TraceGenerator::new(5).generate(&spec, 16, 600);
        let mut pcfg = small_cfg(OrganizationKind::Private);
        pcfg.l2.geometry.size_bytes = 8 * 1024;
        let mut scfg = small_cfg(OrganizationKind::Shared);
        scfg.l2.geometry.size_bytes = 8 * 1024;
        let private = CmpSystem::new(pcfg, traces.clone()).run(8_000_000);
        let shared = CmpSystem::new(scfg, traces).run(8_000_000);
        assert!(private.completed && shared.completed);
        assert!(
            private.offchip_accesses > shared.offchip_accesses,
            "private {} should exceed shared {}",
            private.offchip_accesses,
            shared.offchip_accesses
        );
    }
}
