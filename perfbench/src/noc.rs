//! The `noc_synth` workload: seeded open-loop traffic driven straight into
//! `loco_noc::Network` on 8x8 SMART, conventional and high-radix fabrics.
//!
//! Traffic is generated before timing. Each node owns a FIFO source queue
//! of `(due cycle, message)`; every cycle only the head of each queue is
//! offered to `Network::inject`, and a rejected head stays at the front
//! until a later cycle accepts it. (Retrying every queued message every
//! cycle would spend nearly all the time in rejected `inject` calls.) How
//! late the queues ran is reported as the source delay.

use crate::report::Metrics;
use crate::trace::Tracer;
use crate::Oracle;
use loco_noc::{
    Coord, Delivered, MulticastGroupId, NetMessage, Network, NetworkStats, NocConfig, NodeId,
    RouterKind, SplitMix64, VirtualMesh, VirtualNetwork,
};
use std::collections::VecDeque;
use std::time::Instant;

const MESH: u16 = 8;
/// VMS-shaped multicast groups: one member per 4x4 cluster.
const CLUSTER: u16 = 4;

pub const FABRICS: [(&str, RouterKind); 3] = [
    ("smart", RouterKind::Smart),
    ("conventional", RouterKind::Conventional),
    ("highradix", RouterKind::HighRadix),
];

/// One offered-load point.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub name: &'static str,
    /// Messages per node per cycle.
    pub rate: f64,
    /// Cycles over which messages are generated.
    pub cycles: u64,
    /// Whether the driver skips dead cycles with `next_event`/`advance_to`.
    pub skip: bool,
}

/// The two load points: sparse traffic the driver fast-forwards through,
/// and dense traffic just short of a growing backlog on the conventional
/// fabric.
pub const LOADS: [Load; 2] = [
    Load {
        name: "low",
        rate: 0.002,
        cycles: 200_000,
        skip: true,
    },
    Load {
        name: "high",
        rate: 0.15,
        cycles: 40_000,
        skip: false,
    },
];

fn config(router: RouterKind) -> NocConfig {
    match router {
        RouterKind::Smart => NocConfig::smart_mesh(MESH, MESH, 4),
        RouterKind::Conventional => NocConfig::conventional_mesh(MESH, MESH),
        RouterKind::HighRadix => NocConfig::highradix_mesh(MESH, MESH, 4),
    }
}

/// The VMS group a node belongs to: nodes at the same offset inside their
/// cluster form one virtual mesh.
fn group_of(node: usize) -> MulticastGroupId {
    let (x, y) = (node as u16 % MESH, node as u16 / MESH);
    MulticastGroupId(u32::from((y % CLUSTER) * CLUSTER + x % CLUSTER))
}

/// Builds a network with the 16 VMS groups registered in `group_of` order.
pub fn build_network(router: RouterKind) -> Network<()> {
    let cfg = config(router);
    let mut net = Network::new(cfg);
    for y in 0..CLUSTER {
        for x in 0..CLUSTER {
            let vms = VirtualMesh::new(cfg.mesh, CLUSTER, CLUSTER, Coord::new(x, y));
            net.register_multicast_group(vms.members().to_vec());
        }
    }
    net
}

/// Per-node source queues of `(due cycle, message)`.
#[derive(Clone)]
pub struct Traffic {
    queues: Vec<VecDeque<(u64, NetMessage<()>)>>,
    total: usize,
}

/// Generates one load point's traffic: Bernoulli arrivals per node and
/// cycle; half are 1-flit control requests, four in ten are 5-flit data
/// responses, one in ten is a VMS multicast on the broadcast network.
pub fn generate(seed: u64, load: &Load) -> Traffic {
    let nodes = usize::from(MESH * MESH);
    let mut rng = SplitMix64::new(seed ^ (load.rate.to_bits().rotate_left(17)));
    let mut queues = vec![VecDeque::new(); nodes];
    let mut total = 0;
    for cycle in 0..load.cycles {
        for (node, q) in queues.iter_mut().enumerate() {
            if !rng.gen_bool(load.rate) {
                continue;
            }
            let src = NodeId(node as u16);
            let kind = rng.next_f64();
            let msg = if kind < 0.9 {
                let mut dst = rng.index(nodes - 1);
                if dst >= node {
                    dst += 1;
                }
                let dst = NodeId(dst as u16);
                if kind < 0.5 {
                    NetMessage::unicast(src, dst, VirtualNetwork::Request, 8, ())
                } else {
                    NetMessage::unicast(src, dst, VirtualNetwork::Response, 72, ())
                }
            } else {
                NetMessage::multicast(src, group_of(node), VirtualNetwork::Broadcast, 8, ())
            };
            q.push_back((cycle, msg));
            total += 1;
        }
    }
    Traffic { queues, total }
}

/// Wall-clock cost of the network calls, gathered only in the traced pass.
pub trait CallTimer {
    fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T;
}

#[derive(Debug, Clone, Copy)]
pub enum Call {
    Inject = 0,
    Tick = 1,
    NextEvent = 2,
}

/// The untraced driver: no clock reads.
pub struct Untimed;

impl CallTimer for Untimed {
    #[inline(always)]
    fn time<T>(&mut self, _: Call, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// Calls and nanoseconds per [`Call`] kind.
#[derive(Debug, Default)]
pub struct Timed {
    pub calls: [u64; 3],
    pub ns: [u64; 3],
}

impl CallTimer for Timed {
    fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns[call as usize] += start.elapsed().as_nanos() as u64;
        self.calls[call as usize] += 1;
        out
    }
}

/// What one fabric run produced.
pub struct RunOutcome {
    pub stats: NetworkStats,
    pub drained: bool,
    pub cycles: u64,
    pub ticks: u64,
    pub attempts: u64,
    pub rejects: u64,
    pub injected: u64,
    pub source_delay: u64,
}

impl RunOutcome {
    /// The simulated outcome: delivery statistics with the fabric counters,
    /// plus rejections and source delay. Step counts are left out, since
    /// they depend on the skip horizon, not on what was simulated.
    pub fn fingerprint(&self) -> String {
        crate::fnv_hex(&format!(
            "{:?} rejects={} source_delay={} injected={}",
            self.stats, self.rejects, self.source_delay, self.injected
        ))
    }
}

/// Drives `traffic` through `net` until every message is delivered (or a
/// drain limit is hit).
pub fn drive<C: CallTimer>(
    net: &mut Network<()>,
    mut traffic: Traffic,
    skip: bool,
    timer: &mut C,
) -> RunOutcome {
    let limit = traffic
        .queues
        .iter()
        .filter_map(|q| q.back())
        .map(|(due, _)| *due)
        .max()
        .unwrap_or(0)
        * 4
        + 10_000;
    let mut out = RunOutcome {
        stats: NetworkStats::default(),
        drained: false,
        cycles: 0,
        ticks: 0,
        attempts: 0,
        rejects: 0,
        injected: 0,
        source_delay: 0,
    };
    let mut remaining = traffic.total;
    let mut delivered: Vec<Delivered<()>> = Vec::new();
    let mut now = net.cycle();
    loop {
        for q in &mut traffic.queues {
            let Some(&(due, _)) = q.front() else { continue };
            if due > now {
                continue;
            }
            let (due, msg) = q.pop_front().expect("head checked above");
            out.attempts += 1;
            match timer.time(Call::Inject, || net.inject(msg)) {
                Ok(()) => {
                    out.injected += 1;
                    out.source_delay += now - due;
                    remaining -= 1;
                }
                Err(rejected) => {
                    out.rejects += 1;
                    q.push_front((due, rejected.into_message()));
                }
            }
        }
        timer.time(Call::Tick, || net.tick());
        out.ticks += 1;
        net.eject_all_into(&mut delivered);
        delivered.clear();
        now = net.cycle();
        if remaining == 0 && net.in_flight() == 0 {
            out.drained = true;
            break;
        }
        if now > limit {
            break;
        }
        if skip {
            let next_due = traffic
                .queues
                .iter()
                .filter_map(|q| q.front())
                .map(|(d, _)| *d)
                .min();
            let next_net = timer.time(Call::NextEvent, || net.next_event());
            let target = match (next_due, next_net) {
                (Some(a), Some(b)) => a.min(b),
                (a, b) => a.or(b).unwrap_or(now),
            };
            if target > now {
                net.advance_to(target);
                now = target;
            }
        }
    }
    out.cycles = now;
    out.stats = net.stats();
    out
}

/// The generated traffic of one pass: one entry per load point.
pub fn generate_all(seed: u64) -> Vec<Traffic> {
    LOADS.iter().map(|l| generate(seed, l)).collect()
}

/// One untraced pass over every fabric and load point. Returns the timed
/// phase's wall seconds and simulated cycles.
pub fn untraced_pass(traffic: &[Traffic], oracle: &mut Oracle) -> (f64, u64, Vec<NetworkStats>) {
    let mut nets: Vec<Network<()>> = Vec::new();
    for (_, router) in FABRICS {
        for _ in LOADS {
            nets.push(build_network(router));
        }
    }
    let inputs: Vec<Traffic> = FABRICS
        .iter()
        .flat_map(|_| traffic.iter().cloned())
        .collect();
    let start = Instant::now();
    let outcomes: Vec<RunOutcome> = nets
        .iter_mut()
        .zip(inputs)
        .enumerate()
        .map(|(i, (net, t))| drive(net, t, LOADS[i % LOADS.len()].skip, &mut Untimed))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let mut cycles = 0;
    let mut stats = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        let label = format!(
            "{}/{}",
            FABRICS[i / LOADS.len()].0,
            LOADS[i % LOADS.len()].name
        );
        oracle.check(&label, &o.fingerprint(), o.drained);
        cycles += o.cycles;
        stats.push(o.stats.clone());
    }
    (wall, cycles, stats)
}

/// One traced pass: a span per fabric run and per-call timers around
/// `inject`, `tick` and `next_event`. Pushes the `noc.<fabric>.*` metrics.
pub fn traced_pass(
    traffic: &[Traffic],
    tracer: &mut Tracer,
    oracle: &mut Oracle,
    m: &mut Metrics,
) -> (f64, Vec<NetworkStats>) {
    let start = Instant::now();
    let mut stats = Vec::new();
    for (f, (fabric, router)) in FABRICS.iter().enumerate() {
        let mut per_load: Vec<(RunOutcome, Timed)> = Vec::new();
        for (l, load) in LOADS.iter().enumerate() {
            let op = f * LOADS.len() + l;
            let label = format!("{fabric}/{}", load.name);
            let mut net = build_network(*router);
            let t = traffic[l].clone();
            let mut timer = Timed::default();
            let o = tracer.span("fabric_run", &label, op, |_| {
                drive(&mut net, t, load.skip, &mut timer)
            });
            oracle.check(&label, &o.fingerprint(), o.drained);
            stats.push(o.stats.clone());
            per_load.push((o, timer));
        }
        let (low, low_t) = &per_load[0];
        let (high, high_t) = &per_load[1];
        let per_call =
            |t: &Timed, c: Call| t.ns[c as usize] as f64 / t.calls[c as usize].max(1) as f64;
        m.push(
            &format!("noc.{fabric}.tick_ns"),
            per_call(high_t, Call::Tick),
            "ns",
        );
        m.push(
            &format!("noc.{fabric}.inject_ns"),
            per_call(high_t, Call::Inject),
            "ns",
        );
        m.push(
            &format!("noc.{fabric}.probe_ns"),
            per_call(low_t, Call::NextEvent),
            "ns",
        );
        m.push(
            &format!("noc.{fabric}.skip_frac"),
            1.0 - low.ticks as f64 / low.cycles.max(1) as f64,
            "ratio",
        );
        m.push(
            &format!("noc.{fabric}.reject_frac"),
            high.rejects as f64 / high.attempts.max(1) as f64,
            "ratio",
        );
        m.push(
            &format!("noc.{fabric}.avg_latency_cycles"),
            high.stats.avg_latency(),
            "cycles",
        );
        m.push(
            &format!("noc.{fabric}.source_delay_cycles"),
            high.source_delay as f64 / high.injected.max(1) as f64,
            "cycles",
        );
        m.push(
            &format!("noc.{fabric}.buffer_writes"),
            high.stats.fabric.buffer_writes as f64,
            "count",
        );
    }
    (start.elapsed().as_secs_f64(), stats)
}
