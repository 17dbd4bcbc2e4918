//! Aggregate network statistics and fabric event counters.
//!
//! Two layers of accounting live here:
//!
//! * [`NetworkStats`] — delivery-level statistics accumulated by the
//!   [`crate::Network`] front-end (latencies, per-VN counts, multicast
//!   forks).
//! * [`FabricCounters`] — micro-architectural *event* counters accumulated
//!   inside the fabric engines (buffer reads/writes, crossbar traversals,
//!   link hops, SMART SSR broadcasts and premature stops, high-radix
//!   pipeline passes). These are the per-event quantities the `loco-energy`
//!   crate multiplies by per-event costs; they are integers only and
//!   bit-identical between event-driven and naive execution (counters only
//!   mutate when a packet actually moves, never in quiescence probes).

use crate::message::VirtualNetwork;

/// Micro-architectural event counters of one NoC fabric. Every field is a
/// monotonic event count; each engine increments the classes it implements
/// (e.g. only SMART produces SSR events, only high-radix produces pipeline
/// passes), so a zero simply means "this fabric has no such event".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Packets latched into a router input buffer (injections plus every
    /// intermediate stop). SMART's raison d'être is keeping this low.
    pub buffer_writes: u64,
    /// Packets read out of a router input buffer to traverse the switch.
    pub buffer_reads: u64,
    /// Router crossbar traversals. A SMART multi-hop bypass crosses the
    /// crossbar of every router on its pre-set path, so a `k`-hop traversal
    /// counts `k` crossbars.
    pub crossbar_traversals: u64,
    /// Physical link hops crossed, weighted by packet length in flits
    /// (energy on wires scales with bits moved times distance). A high-radix
    /// express link spanning `s` mesh hops counts `s` wire hops per flit.
    pub link_flit_hops: u64,
    /// SMART: Setup Requests granted at switch allocation (one broadcast of
    /// the dedicated SSR wires per winner per cycle).
    pub ssr_broadcasts: u64,
    /// SMART: total routers reached by SSR broadcast wires (the sum of each
    /// SSR's requested hop count — the wire length the broadcast drives).
    pub ssr_hops: u64,
    /// SMART: flits buffered short of their intended SMART-hop because they
    /// lost SSR arbitration to a nearer flit.
    pub premature_stops: u64,
    /// SMART: intermediate routers crossed on a pre-set bypass path without
    /// being latched (the hops that cost no buffer energy).
    pub bypass_hops: u64,
    /// Routers at which a flit terminated a traversal and was latched
    /// (intermediate stops plus final ejection) — the complement of
    /// [`FabricCounters::bypass_hops`] on SMART fabrics.
    pub stop_hops: u64,
    /// High-radix: express-link traversals (one per move, regardless of the
    /// span the link covers; wire length is in `link_flit_hops`).
    pub express_traversals: u64,
    /// High-radix: multi-stage router pipeline passes (each stop pays the
    /// deep arbiter/crossbar pipeline once).
    pub pipeline_passes: u64,
}

impl FabricCounters {
    /// Fraction of SMART traversal hops that bypassed a router instead of
    /// stopping (0 when no hop was taken; a pure SSR diagnostic).
    pub fn bypass_ratio(&self) -> f64 {
        let total = self.bypass_hops + self.stop_hops;
        if total == 0 {
            0.0
        } else {
            self.bypass_hops as f64 / total as f64
        }
    }
}

/// Counters accumulated by a [`crate::Network`] over a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkStats {
    /// Messages handed to `inject` (multicasts count once).
    pub injected_messages: u64,
    /// Copies delivered at destination NICs (a multicast to `n` members
    /// counts `n` times).
    pub delivered_copies: u64,
    /// Sum of end-to-end latencies of all delivered copies.
    pub total_latency: u64,
    /// Largest single delivery latency observed.
    pub max_latency: u64,
    /// Sum of router-buffer stops over all delivered copies.
    pub total_stops: u64,
    /// Deliveries per virtual network.
    pub per_vn_delivered: [u64; 5],
    /// Latency sum per virtual network.
    pub per_vn_latency: [u64; 5],
    /// Multicast child copies spawned at fork points.
    pub multicast_forks: u64,
    /// Fabric-level event counters (buffer/crossbar/link/SSR events). Live
    /// counts are kept inside the fabric engine; [`crate::Network::stats`]
    /// snapshots them into this field.
    pub fabric: FabricCounters,
}

impl NetworkStats {
    /// Records one delivered copy.
    pub fn record_delivery(&mut self, vn: VirtualNetwork, latency: u64, stops: u32) {
        self.delivered_copies += 1;
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
        self.total_stops += u64::from(stops);
        self.per_vn_delivered[vn.index()] += 1;
        self.per_vn_latency[vn.index()] += latency;
    }

    /// Average delivery latency in cycles (0 if nothing delivered).
    pub fn avg_latency(&self) -> f64 {
        if self.delivered_copies == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered_copies as f64
        }
    }

    /// Average number of router stops per delivered copy.
    pub fn avg_stops(&self) -> f64 {
        if self.delivered_copies == 0 {
            0.0
        } else {
            self.total_stops as f64 / self.delivered_copies as f64
        }
    }

    /// A human-readable multi-line summary of the network statistics,
    /// including the fabric event counters and the SMART SSR diagnostics
    /// (premature stops, bypass-vs-stop hops).
    pub fn report(&self) -> String {
        let f = &self.fabric;
        let mut out = String::new();
        out.push_str(&format!(
            "messages           : {} injected, {} delivered (avg latency {:.2} cycles, max {})\n",
            self.injected_messages,
            self.delivered_copies,
            self.avg_latency(),
            self.max_latency
        ));
        out.push_str(&format!(
            "router stops       : {:.2} per delivery ({} multicast forks)\n",
            self.avg_stops(),
            self.multicast_forks
        ));
        out.push_str(&format!(
            "buffer events      : {} writes, {} reads\n",
            f.buffer_writes, f.buffer_reads
        ));
        out.push_str(&format!(
            "crossbar / links   : {} crossbar traversals, {} link flit-hops\n",
            f.crossbar_traversals, f.link_flit_hops
        ));
        out.push_str(&format!(
            "SMART SSRs         : {} broadcasts over {} wire-hops, {} premature stops\n",
            f.ssr_broadcasts, f.ssr_hops, f.premature_stops
        ));
        out.push_str(&format!(
            "bypass vs stop     : {} bypassed, {} latched ({:.1}% bypassed)\n",
            f.bypass_hops,
            f.stop_hops,
            100.0 * f.bypass_ratio()
        ));
        if f.pipeline_passes > 0 || f.express_traversals > 0 {
            out.push_str(&format!(
                "high-radix         : {} express traversals, {} pipeline passes\n",
                f.express_traversals, f.pipeline_passes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_empty_and_nonempty() {
        let mut s = NetworkStats::default();
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.avg_stops(), 0.0);
        s.record_delivery(VirtualNetwork::Request, 10, 2);
        s.record_delivery(VirtualNetwork::Response, 20, 4);
        assert_eq!(s.avg_latency(), 15.0);
        assert_eq!(s.avg_stops(), 3.0);
        assert_eq!(s.max_latency, 20);
        let (req, fwd) = (
            VirtualNetwork::Request.index(),
            VirtualNetwork::Forward.index(),
        );
        assert_eq!((s.per_vn_delivered[req], s.per_vn_latency[req]), (1, 10));
        assert_eq!((s.per_vn_delivered[fwd], s.per_vn_latency[fwd]), (0, 0));
    }

    #[test]
    fn bypass_ratio_and_report_cover_the_ssr_diagnostics() {
        let mut s = NetworkStats::default();
        s.fabric.bypass_hops = 3;
        s.fabric.stop_hops = 1;
        s.fabric.premature_stops = 2;
        s.fabric.ssr_broadcasts = 5;
        assert!((s.fabric.bypass_ratio() - 0.75).abs() < 1e-12);
        let r = s.report();
        assert!(r.contains("premature stops"), "{r}");
        assert!(r.contains("3 bypassed, 1 latched"), "{r}");
        assert!(r.contains("75.0% bypassed"), "{r}");
        assert_eq!(FabricCounters::default().bypass_ratio(), 0.0);
    }
}
