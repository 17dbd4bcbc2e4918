//! # loco-energy — event-level energy accounting for the LOCO reproduction
//!
//! The paper's evaluation pairs performance with network *energy*: DSENT-
//! style per-event costs for router buffers, crossbars, SSR wires and links,
//! summed over the events of a simulation. This crate reproduces that
//! methodology for the whole modelled system:
//!
//! * every component exposes **event counters** — the NoC fabrics count
//!   buffer reads/writes, crossbar traversals, link flit-hops, SSR
//!   broadcasts and premature stops ([`loco_noc::FabricCounters`]); the
//!   cache hierarchy counts tag probes, array reads/writes, directory
//!   lookups, VMS searches, IVR migrations and DRAM accesses
//!   ([`loco_cache::CacheStats`]);
//! * [`EnergyParams`] holds one **per-event cost** (in femtojoules) for each
//!   event class, with defaults calibrated to 1 GHz / 45 nm-class numbers
//!   (see DESIGN.md §10 for the calibration caveats);
//! * [`EnergyParams::breakdown`] folds the counters of one
//!   [`loco_sim::SimResults`] into an [`EnergyBreakdown`].
//!
//! Everything is **integer-only** (u64 femtojoules, u128 for the
//! energy-delay product): a breakdown is bit-identical between
//! `CmpSystem::run` and `run_naive` and across executor thread counts,
//! because the event counters are (the root `tests/energy.rs` suite and
//! `scripts/verify.sh` lock this in). Derived conveniences
//! ([`EnergyBreakdown::epi_fj`], nanojoule conversions) are `f64` but are
//! computed from the integer totals, never accumulated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use loco_cache::CacheStats;
use loco_noc::{FabricCounters, NetworkStats};
use loco_sim::SimResults;

/// `cost * events` with a loud panic on u64 overflow. The breakdown is an
/// integer contract — a silent wrap would corrupt every downstream figure
/// bit-for-bit *reproducibly*, which no test comparing two equally-wrapped
/// runs can catch — so paper256-scale counter values that exceed ~1.8e19 fJ
/// must abort instead. (Headroom check: the costliest event, a 26 nJ DRAM
/// access, leaves room for ~7e11 accesses — far beyond any simulated run —
/// but a caller-supplied `EnergyParams` can shrink that margin arbitrarily.)
#[inline]
fn mul_fj(cost: u64, events: u64, what: &str) -> u64 {
    cost.checked_mul(events).unwrap_or_else(|| {
        panic!("energy accumulation overflowed u64 fJ: {what} = {cost} fJ x {events} events")
    })
}

/// Checked fJ addition (see [`mul_fj`]); `what` names the sum being folded.
#[inline]
fn add_fj(a: u64, b: u64, what: &str) -> u64 {
    a.checked_add(b)
        .unwrap_or_else(|| panic!("energy accumulation overflowed u64 fJ while summing {what}"))
}

/// Checked fold of a list of fJ terms.
#[inline]
fn sum_fj(terms: &[u64], what: &str) -> u64 {
    terms.iter().fold(0u64, |acc, &t| add_fj(acc, t, what))
}

/// Per-event energy costs in femtojoules (fJ). All fields are public and
/// overridable; [`EnergyParams::default`] is calibrated to a 1 GHz, 45
/// nm-class process (128-bit flits, 32 B lines — the scale of the paper's
/// Table 1), with DSENT-style router/link numbers and CACTI-style array
/// numbers. Absolute magnitudes are order-of-magnitude engineering
/// estimates; *relative* comparisons across organizations and NoCs are the
/// reproduction target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyParams {
    /// Router input-buffer write (one packet latched).
    pub buffer_write_fj: u64,
    /// Router input-buffer read (one packet read out for the switch).
    pub buffer_read_fj: u64,
    /// One crossbar traversal (SMART bypasses cross one per router passed).
    pub crossbar_fj: u64,
    /// One link hop crossed by one flit (per mm-class mesh hop).
    pub link_flit_hop_fj: u64,
    /// Driving the dedicated SSR wires one hop far (narrow control wires).
    pub ssr_hop_fj: u64,
    /// Fixed setup cost per SSR broadcast (arbitration latches).
    pub ssr_setup_fj: u64,
    /// One pass through the high-radix multi-stage router pipeline.
    pub pipeline_pass_fj: u64,
    /// Spawning one multicast child copy at an XY-tree fork.
    pub multicast_fork_fj: u64,
    /// L1 tag-array probe.
    pub l1_tag_fj: u64,
    /// L1 data-array read.
    pub l1_read_fj: u64,
    /// L1 data-array write.
    pub l1_write_fj: u64,
    /// L2 tag-array probe.
    pub l2_tag_fj: u64,
    /// L2 data-array read.
    pub l2_read_fj: u64,
    /// L2 data-array write.
    pub l2_write_fj: u64,
    /// Global-directory lookup (CAM + sharer-vector read).
    pub dir_lookup_fj: u64,
    /// Home-node bookkeeping per VMS search issued (the broadcast's wire
    /// and router energy is already in the NoC events).
    pub vms_search_fj: u64,
    /// Bookkeeping per IVR migration message (timestamp compare, steering).
    pub ivr_event_fj: u64,
    /// One off-chip DRAM access (activate + burst for a 32 B line).
    pub dram_access_fj: u64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            buffer_write_fj: 1_500,
            buffer_read_fj: 1_100,
            crossbar_fj: 2_400,
            link_flit_hop_fj: 1_750,
            ssr_hop_fj: 120,
            ssr_setup_fj: 80,
            pipeline_pass_fj: 3_600,
            multicast_fork_fj: 500,
            l1_tag_fj: 320,
            l1_read_fj: 2_600,
            l1_write_fj: 2_900,
            l2_tag_fj: 640,
            l2_read_fj: 9_200,
            l2_write_fj: 10_400,
            dir_lookup_fj: 4_200,
            vms_search_fj: 450,
            ivr_event_fj: 900,
            dram_access_fj: 26_000_000,
        }
    }
}

impl EnergyParams {
    /// Folds the event counters of one completed run into an
    /// [`EnergyBreakdown`]. Pure integer arithmetic over the counters — the
    /// same results always produce the same breakdown, bit for bit. Every
    /// multiply and fold is overflow-checked: a counter set large enough to
    /// wrap u64 femtojoules panics loudly instead of silently corrupting
    /// the figures (see `mul_fj`).
    pub fn breakdown(&self, results: &SimResults) -> EnergyBreakdown {
        EnergyBreakdown {
            network: self.network_energy(&results.network),
            cache: self.cache_energy(&results.cache),
            dram_fj: mul_fj(
                self.dram_access_fj,
                add_fj(
                    results.cache.offchip_fetches,
                    results.cache.offchip_writebacks,
                    "off-chip accesses",
                ),
                "dram_access",
            ),
            instructions: results.instructions,
            runtime_cycles: results.runtime_cycles,
        }
    }

    /// The NoC share of the energy, from the fabric event counters and the
    /// front-end multicast statistics.
    pub fn network_energy(&self, network: &NetworkStats) -> NetworkEnergy {
        let f: &FabricCounters = &network.fabric;
        NetworkEnergy {
            buffer_fj: add_fj(
                mul_fj(self.buffer_write_fj, f.buffer_writes, "buffer_write"),
                mul_fj(self.buffer_read_fj, f.buffer_reads, "buffer_read"),
                "buffer energy",
            ),
            crossbar_fj: mul_fj(self.crossbar_fj, f.crossbar_traversals, "crossbar"),
            link_fj: mul_fj(self.link_flit_hop_fj, f.link_flit_hops, "link_flit_hop"),
            ssr_fj: add_fj(
                mul_fj(self.ssr_setup_fj, f.ssr_broadcasts, "ssr_setup"),
                mul_fj(self.ssr_hop_fj, f.ssr_hops, "ssr_hop"),
                "SSR energy",
            ),
            pipeline_fj: mul_fj(self.pipeline_pass_fj, f.pipeline_passes, "pipeline_pass"),
            multicast_fj: mul_fj(
                self.multicast_fork_fj,
                network.multicast_forks,
                "multicast_fork",
            ),
        }
    }

    /// The cache-hierarchy share of the energy (L1/L2 arrays, directory,
    /// VMS and IVR bookkeeping — DRAM is separate).
    pub fn cache_energy(&self, cache: &CacheStats) -> CacheEnergy {
        CacheEnergy {
            l1_fj: sum_fj(
                &[
                    mul_fj(self.l1_tag_fj, cache.l1_tag_probes, "l1_tag"),
                    mul_fj(self.l1_read_fj, cache.l1_data_reads, "l1_read"),
                    mul_fj(self.l1_write_fj, cache.l1_data_writes, "l1_write"),
                ],
                "L1 energy",
            ),
            l2_fj: sum_fj(
                &[
                    mul_fj(self.l2_tag_fj, cache.l2_tag_probes, "l2_tag"),
                    mul_fj(self.l2_read_fj, cache.l2_data_reads, "l2_read"),
                    mul_fj(self.l2_write_fj, cache.l2_data_writes, "l2_write"),
                ],
                "L2 energy",
            ),
            directory_fj: mul_fj(self.dir_lookup_fj, cache.dir_lookups, "dir_lookup"),
            vms_fj: mul_fj(self.vms_search_fj, cache.broadcasts, "vms_search"),
            ivr_fj: mul_fj(self.ivr_event_fj, cache.ivr_migrations, "ivr_event"),
        }
    }
}

/// NoC energy by component, in femtojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkEnergy {
    /// Router input buffers (reads + writes).
    pub buffer_fj: u64,
    /// Crossbar traversals.
    pub crossbar_fj: u64,
    /// Link wires (flit-hop weighted, express spans included).
    pub link_fj: u64,
    /// SMART SSR broadcast wires and setup.
    pub ssr_fj: u64,
    /// High-radix multi-stage pipeline passes.
    pub pipeline_fj: u64,
    /// Multicast-tree fork events.
    pub multicast_fj: u64,
}

impl NetworkEnergy {
    /// Total NoC energy in femtojoules (overflow-checked).
    pub fn total_fj(&self) -> u64 {
        sum_fj(
            &[
                self.buffer_fj,
                self.crossbar_fj,
                self.link_fj,
                self.ssr_fj,
                self.pipeline_fj,
                self.multicast_fj,
            ],
            "NoC total",
        )
    }
}

/// Cache-hierarchy energy by component, in femtojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheEnergy {
    /// L1 arrays (tags + data).
    pub l1_fj: u64,
    /// L2 arrays (tags + data).
    pub l2_fj: u64,
    /// Global-directory lookups.
    pub directory_fj: u64,
    /// VMS search bookkeeping at the home nodes.
    pub vms_fj: u64,
    /// IVR migration bookkeeping.
    pub ivr_fj: u64,
}

impl CacheEnergy {
    /// Total cache-hierarchy energy in femtojoules (overflow-checked).
    pub fn total_fj(&self) -> u64 {
        sum_fj(
            &[
                self.l1_fj,
                self.l2_fj,
                self.directory_fj,
                self.vms_fj,
                self.ivr_fj,
            ],
            "cache total",
        )
    }
}

/// The energy of one simulation run, broken down by subsystem. Built by
/// [`EnergyParams::breakdown`]; all fields are integers, so equality is
/// exact (`Eq`) and the breakdown is as deterministic as the counters it is
/// derived from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyBreakdown {
    /// NoC energy (buffers, crossbars, links, SSRs, pipelines, multicast).
    pub network: NetworkEnergy,
    /// Cache-hierarchy energy (L1, L2, directory, VMS, IVR).
    pub cache: CacheEnergy,
    /// Off-chip DRAM energy.
    pub dram_fj: u64,
    /// Instructions retired by the run (for per-instruction normalization).
    pub instructions: u64,
    /// Run time in cycles (for the energy-delay product).
    pub runtime_cycles: u64,
}

impl EnergyBreakdown {
    /// Total energy in femtojoules (overflow-checked, like every fold in
    /// this crate: wrap-around would corrupt figures silently and
    /// reproducibly, so it aborts instead).
    pub fn total_fj(&self) -> u64 {
        sum_fj(
            &[self.network.total_fj(), self.cache.total_fj(), self.dram_fj],
            "system total",
        )
    }

    /// Energy per instruction in femtojoules (0 when no instruction
    /// retired).
    pub fn epi_fj(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.total_fj() as f64 / self.instructions as f64
        }
    }

    /// The energy-delay product, in exact integer fJ·cycles (the figure of
    /// merit of the cluster-size energy sweep).
    pub fn edp_fj_cycles(&self) -> u128 {
        u128::from(self.total_fj()) * u128::from(self.runtime_cycles)
    }

    /// This run's EDP normalized against a baseline run's EDP.
    pub fn edp_normalized_to(&self, baseline: &EnergyBreakdown) -> f64 {
        let base = baseline.edp_fj_cycles();
        if base == 0 {
            0.0
        } else {
            self.edp_fj_cycles() as f64 / base as f64
        }
    }

    /// A human-readable multi-line summary (nanojoules).
    pub fn report(&self) -> String {
        let nj = |fj: u64| fj as f64 / 1e6;
        format!(
            "energy total       : {:>12.3} nJ  ({:.1} fJ/instruction)\n\
             \x20 network           : {:>12.3} nJ  (buffers {:.3}, crossbars {:.3}, links {:.3}, SSRs {:.3})\n\
             \x20 caches            : {:>12.3} nJ  (L1 {:.3}, L2 {:.3}, directory {:.3}, VMS {:.3}, IVR {:.3})\n\
             \x20 DRAM              : {:>12.3} nJ\n",
            nj(self.total_fj()),
            self.epi_fj(),
            nj(self.network.total_fj()),
            nj(self.network.buffer_fj),
            nj(self.network.crossbar_fj),
            nj(self.network.link_fj),
            nj(self.network.ssr_fj),
            nj(self.cache.total_fj()),
            nj(self.cache.l1_fj),
            nj(self.cache.l2_fj),
            nj(self.cache.directory_fj),
            nj(self.cache.vms_fj),
            nj(self.cache.ivr_fj),
            nj(self.dram_fj),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_params() -> EnergyParams {
        // 1 fJ per event: totals equal event counts, making the arithmetic
        // transparent to assert on.
        EnergyParams {
            buffer_write_fj: 1,
            buffer_read_fj: 1,
            crossbar_fj: 1,
            link_flit_hop_fj: 1,
            ssr_hop_fj: 1,
            ssr_setup_fj: 1,
            pipeline_pass_fj: 1,
            multicast_fork_fj: 1,
            l1_tag_fj: 1,
            l1_read_fj: 1,
            l1_write_fj: 1,
            l2_tag_fj: 1,
            l2_read_fj: 1,
            l2_write_fj: 1,
            dir_lookup_fj: 1,
            vms_search_fj: 1,
            ivr_event_fj: 1,
            dram_access_fj: 1,
        }
    }

    #[test]
    fn unit_costs_sum_the_event_counts() {
        let mut results = SimResults::default();
        results.network.fabric = FabricCounters {
            buffer_writes: 2,
            buffer_reads: 3,
            crossbar_traversals: 4,
            link_flit_hops: 5,
            ssr_broadcasts: 6,
            ssr_hops: 7,
            premature_stops: 1, // diagnostic, not an energy event by itself
            bypass_hops: 1,
            stop_hops: 1,
            express_traversals: 1,
            pipeline_passes: 8,
        };
        results.network.multicast_forks = 9;
        results.cache.l1_tag_probes = 10;
        results.cache.l1_data_reads = 11;
        results.cache.l1_data_writes = 12;
        results.cache.l2_tag_probes = 13;
        results.cache.l2_data_reads = 14;
        results.cache.l2_data_writes = 15;
        results.cache.dir_lookups = 16;
        results.cache.broadcasts = 17;
        results.cache.ivr_migrations = 18;
        results.cache.offchip_fetches = 19;
        results.cache.offchip_writebacks = 20;
        results.instructions = 100;
        results.runtime_cycles = 10;

        let b = unit_params().breakdown(&results);
        assert_eq!(b.network.buffer_fj, 5);
        assert_eq!(b.network.crossbar_fj, 4);
        assert_eq!(b.network.link_fj, 5);
        assert_eq!(b.network.ssr_fj, 13);
        assert_eq!(b.network.pipeline_fj, 8);
        assert_eq!(b.network.multicast_fj, 9);
        assert_eq!(b.cache.l1_fj, 33);
        assert_eq!(b.cache.l2_fj, 42);
        assert_eq!(b.cache.directory_fj, 16);
        assert_eq!(b.cache.vms_fj, 17);
        assert_eq!(b.cache.ivr_fj, 18);
        assert_eq!(b.dram_fj, 39);
        assert_eq!(
            b.total_fj(),
            5 + 4 + 5 + 13 + 8 + 9 + 33 + 42 + 16 + 17 + 18 + 39
        );
        assert!((b.epi_fj() - b.total_fj() as f64 / 100.0).abs() < 1e-12);
        assert_eq!(b.edp_fj_cycles(), u128::from(b.total_fj()) * 10);
    }

    #[test]
    fn empty_results_cost_nothing() {
        let b = EnergyParams::default().breakdown(&SimResults::default());
        assert_eq!(b.total_fj(), 0);
        assert_eq!(b.epi_fj(), 0.0);
        assert_eq!(b.edp_fj_cycles(), 0);
        assert_eq!(b.edp_normalized_to(&b), 0.0, "zero baseline yields 0");
    }

    #[test]
    fn edp_normalization_is_a_plain_ratio() {
        let a = EnergyBreakdown {
            dram_fj: 100,
            runtime_cycles: 10,
            ..EnergyBreakdown::default()
        };
        let mut b = a;
        b.dram_fj = 200;
        b.runtime_cycles = 20;
        assert!((b.edp_normalized_to(&a) - 4.0).abs() < 1e-12);
        assert!((a.edp_normalized_to(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counter_values_at_the_overflow_boundary_still_fold() {
        // The largest event count the default DRAM cost can absorb without
        // wrapping u64 fJ: the fold must succeed exactly at the boundary...
        let p = EnergyParams::default();
        let max_accesses = u64::MAX / p.dram_access_fj;
        let mut results = SimResults::default();
        results.cache.offchip_fetches = max_accesses;
        let b = p.breakdown(&results);
        assert_eq!(b.dram_fj, p.dram_access_fj * max_accesses);
        // ...even when the total is taken (the other subsystems are zero
        // here, so the checked sum still fits).
        assert_eq!(b.total_fj(), b.dram_fj);
    }

    #[test]
    #[should_panic(expected = "energy accumulation overflowed u64 fJ")]
    fn paper256_scale_overflow_panics_instead_of_wrapping() {
        // One access past the boundary must abort loudly: a silent wrap
        // would make fig17/fig18 wrong bit-for-bit reproducibly, which no
        // run-vs-run comparison can catch.
        let p = EnergyParams::default();
        let mut results = SimResults::default();
        results.cache.offchip_fetches = u64::MAX / p.dram_access_fj + 1;
        let _ = p.breakdown(&results);
    }

    #[test]
    #[should_panic(expected = "energy accumulation overflowed u64 fJ")]
    fn overflowing_totals_panic_instead_of_wrapping() {
        // Two subsystem totals that individually fit but jointly wrap.
        let b = EnergyBreakdown {
            dram_fj: u64::MAX - 5,
            cache: CacheEnergy {
                l1_fj: 10,
                ..CacheEnergy::default()
            },
            ..EnergyBreakdown::default()
        };
        let _ = b.total_fj();
    }

    #[test]
    fn default_params_weight_dram_heaviest() {
        let p = EnergyParams::default();
        assert!(p.dram_access_fj > p.l2_read_fj);
        assert!(p.l2_read_fj > p.l1_read_fj);
        assert!(p.buffer_write_fj > p.ssr_hop_fj, "SSR wires are cheap");
    }

    #[test]
    fn report_renders_every_subsystem() {
        let mut b = EnergyBreakdown::default();
        b.network.buffer_fj = 1_000_000;
        b.cache.l2_fj = 2_000_000;
        b.dram_fj = 3_000_000;
        b.instructions = 10;
        let r = b.report();
        assert!(r.contains("network"), "{r}");
        assert!(r.contains("DRAM"), "{r}");
        assert!(r.contains("6.000 nJ"), "{r}");
    }
}
