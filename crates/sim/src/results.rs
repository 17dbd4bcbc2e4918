//! Aggregated results of one simulation run.

use loco_cache::CacheStats;
use loco_noc::NetworkStats;

/// Everything a figure of the paper needs from one run.
#[derive(Debug, Clone, Default)]
pub struct SimResults {
    /// Total run time in cycles (until every core finished its trace).
    pub runtime_cycles: u64,
    /// Whether every core finished within the cycle budget.
    pub completed: bool,
    /// Merged cache-hierarchy statistics (L1s, L2s, directory, memory).
    pub cache: CacheStats,
    /// NoC statistics.
    pub network: NetworkStats,
    /// Average L1-issue→fill latency of requests satisfied at the home L2
    /// ("L2 hit latency", Figure 7).
    pub avg_l2_hit_latency: f64,
    /// Average L1-issue→fill latency over all L1 misses.
    pub avg_miss_latency: f64,
    /// Average on-chip search delay for data found in other clusters
    /// (Figure 9).
    pub avg_search_delay: f64,
    /// L2 misses per thousand instructions (Figure 8).
    pub l2_mpki: f64,
    /// Off-chip accesses (fetches + writebacks, Figure 10).
    pub offchip_accesses: u64,
    /// Total instructions retired by all cores.
    pub instructions: u64,
}

impl SimResults {
    /// This run's time normalized against a baseline run time
    /// (the y-axis of Figures 6, 11, 13, 15 and 16).
    pub fn runtime_normalized_to(&self, baseline: &SimResults) -> f64 {
        if baseline.runtime_cycles == 0 {
            0.0
        } else {
            self.runtime_cycles as f64 / baseline.runtime_cycles as f64
        }
    }

    /// Off-chip accesses normalized against a baseline run
    /// (the y-axis of Figures 10 and 15a).
    pub fn offchip_normalized_to(&self, baseline: &SimResults) -> f64 {
        if baseline.offchip_accesses == 0 {
            0.0
        } else {
            self.offchip_accesses as f64 / baseline.offchip_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_ipc() {
        let a = SimResults {
            runtime_cycles: 100,
            offchip_accesses: 10,
            ..SimResults::default()
        };
        let b = SimResults {
            runtime_cycles: 200,
            offchip_accesses: 40,
            ..SimResults::default()
        };
        assert!((b.runtime_normalized_to(&a) - 2.0).abs() < 1e-12);
        assert!((a.offchip_normalized_to(&b) - 0.25).abs() < 1e-12);
        assert_eq!(a.runtime_normalized_to(&SimResults::default()), 0.0);
    }
}
