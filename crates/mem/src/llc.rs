//! The Cheshire shared last-level cache (LLC).
//!
//! Cheshire's LLC sits between the system crossbar and the DRAM controller
//! and can be partitioned at run time between cache ways and
//! scratchpad-mapped ways. In the paper's platform it is configured as
//! 128 KiB and — crucially for the SVA evaluation — it serves only **host**
//! and **IOMMU page-table-walk** traffic: device DMA uses the bypass address
//! window so long bursts do not get broken into line refills and do not evict
//! host data.
//!
//! The model is a tag-only write-back cache plus the hit/refill timing used
//! by [`crate::system::MemorySystem`].

use sva_common::stats::HitMiss;
use sva_common::{Cycles, PhysAddr, CACHE_LINE_SIZE, KIB};

use crate::cache::{Cache, CacheConfig, CacheOutcome};

/// Configuration of the last-level cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes (cache + SPM partition).
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Number of ways mapped out as scratchpad (not usable as cache).
    pub spm_ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Latency of a hit, including the crossbar-to-LLC hop.
    pub hit_latency: Cycles,
}

impl LlcConfig {
    /// The paper's configuration: 128 KiB, 8-way, all ways used as cache,
    /// 64-byte lines.
    pub const fn cheshire_128k() -> Self {
        Self {
            size_bytes: 128 * KIB,
            ways: 8,
            spm_ways: 0,
            line_bytes: CACHE_LINE_SIZE,
            hit_latency: Cycles::new(9),
        }
    }

    /// Number of ways usable as cache after the SPM partition is removed.
    pub const fn cache_ways(&self) -> usize {
        self.ways - self.spm_ways
    }

    /// Effective cache capacity in bytes after partitioning.
    pub const fn cache_bytes(&self) -> u64 {
        self.size_bytes / self.ways as u64 * self.cache_ways() as u64
    }
}

impl Default for LlcConfig {
    fn default() -> Self {
        Self::cheshire_128k()
    }
}

/// Who issued an LLC access; used only for statistics so the experiments can
/// report host and PTW hit rates separately.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum LlcRequester {
    /// CVA6 host traffic (through the L1).
    Host,
    /// IOMMU page-table-walk traffic.
    Ptw,
    /// Device DMA traffic (only when the bypass is disabled for ablation).
    Dma,
}

/// The last-level cache model.
#[derive(Clone, Debug)]
pub struct Llc {
    config: LlcConfig,
    cache: Cache,
    host_stats: HitMiss,
    ptw_stats: HitMiss,
    dma_stats: HitMiss,
    flushes: u64,
}

impl Llc {
    /// Creates an LLC with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration partitions away all cache ways or has an
    /// inconsistent geometry.
    pub fn new(config: LlcConfig) -> Self {
        assert!(
            config.cache_ways() > 0,
            "LLC configured with zero cache ways (all ways given to the SPM partition)"
        );
        let cache = Cache::new(CacheConfig {
            size_bytes: config.cache_bytes(),
            ways: config.cache_ways(),
            line_bytes: config.line_bytes,
            write_back: true,
        });
        Self {
            config,
            cache,
            host_stats: HitMiss::new(),
            ptw_stats: HitMiss::new(),
            dma_stats: HitMiss::new(),
            flushes: 0,
        }
    }

    /// The configuration of this LLC.
    pub const fn config(&self) -> &LlcConfig {
        &self.config
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    pub fn access(
        &mut self,
        requester: LlcRequester,
        addr: PhysAddr,
        is_write: bool,
    ) -> CacheOutcome {
        let outcome = self.cache.access(addr, is_write);
        let stats = match requester {
            LlcRequester::Host => &mut self.host_stats,
            LlcRequester::Ptw => &mut self.ptw_stats,
            LlcRequester::Dma => &mut self.dma_stats,
        };
        if outcome.is_hit() {
            stats.hit();
        } else {
            stats.miss();
        }
        outcome
    }

    /// Returns `true` if the line containing `addr` is resident (no state
    /// update).
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.cache.probe(addr)
    }

    /// Invalidates a single line; returns its base address if it was dirty.
    pub fn invalidate_line(&mut self, addr: PhysAddr) -> Option<PhysAddr> {
        self.cache.invalidate(addr)
    }

    /// Flushes the entire cache (the `flush_last_level_cache()` call of
    /// Listing 1), returning the number of dirty lines written back.
    pub fn flush_all(&mut self) -> u64 {
        self.flushes += 1;
        self.cache.flush_all()
    }

    /// Latency of a hit.
    pub const fn hit_latency(&self) -> Cycles {
        self.config.hit_latency
    }

    /// Line size in bytes (refill granularity).
    pub const fn line_bytes(&self) -> u64 {
        self.config.line_bytes
    }

    /// Hit/miss statistics for a given requester.
    pub const fn stats(&self, requester: LlcRequester) -> HitMiss {
        match requester {
            LlcRequester::Host => self.host_stats,
            LlcRequester::Ptw => self.ptw_stats,
            LlcRequester::Dma => self.dma_stats,
        }
    }

    /// Number of whole-cache flushes requested so far.
    pub const fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Number of dirty-line writebacks caused by evictions.
    pub fn writebacks(&self) -> u64 {
        self.cache.writebacks()
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.cache.resident_lines()
    }

    /// Clears all statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.host_stats.reset();
        self.ptw_stats.reset();
        self.dma_stats.reset();
        self.cache.reset_stats();
        self.flushes = 0;
    }
}

impl Default for Llc {
    fn default() -> Self {
        Self::new(LlcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_reduces_cache_capacity() {
        let cfg = LlcConfig {
            spm_ways: 4,
            ..LlcConfig::cheshire_128k()
        };
        assert_eq!(cfg.cache_ways(), 4);
        assert_eq!(cfg.cache_bytes(), 64 * KIB);
        let llc = Llc::new(cfg);
        assert_eq!(llc.config().cache_bytes(), 64 * KIB);
    }

    #[test]
    #[should_panic(expected = "zero cache ways")]
    fn all_spm_ways_is_rejected() {
        let _ = Llc::new(LlcConfig {
            spm_ways: 8,
            ..LlcConfig::cheshire_128k()
        });
    }

    #[test]
    fn per_requester_statistics() {
        let mut llc = Llc::default();
        let pte_addr = PhysAddr::new(0x8010_0000);
        // Host writes the PTE (miss, fill)...
        assert!(!llc.access(LlcRequester::Host, pte_addr, true).is_hit());
        // ...then the PTW reads it back and hits.
        assert!(llc.access(LlcRequester::Ptw, pte_addr, false).is_hit());
        assert_eq!(llc.stats(LlcRequester::Host).misses, 1);
        assert_eq!(llc.stats(LlcRequester::Ptw).hits, 1);
        assert_eq!(llc.stats(LlcRequester::Dma).total(), 0);
    }

    #[test]
    fn flush_writes_back_dirty_lines_and_empties_cache() {
        let mut llc = Llc::default();
        llc.access(LlcRequester::Host, PhysAddr::new(0x8000_0000), true);
        llc.access(LlcRequester::Host, PhysAddr::new(0x8000_0040), false);
        let dirty = llc.flush_all();
        assert_eq!(dirty, 1);
        assert_eq!(llc.resident_lines(), 0);
        assert_eq!(llc.flushes(), 1);
        assert!(!llc.probe(PhysAddr::new(0x8000_0000)));
    }

    #[test]
    fn invalidate_line_reports_dirtiness() {
        let mut llc = Llc::default();
        let a = PhysAddr::new(0x8000_1000);
        llc.access(LlcRequester::Host, a, true);
        assert_eq!(llc.invalidate_line(a), Some(a));
        llc.access(LlcRequester::Host, a, false);
        assert_eq!(llc.invalidate_line(a), None);
    }
}
