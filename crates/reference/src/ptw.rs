//! The retained flat walk table of `sva_iommu::ptw`.
//!
//! [`NaiveWalkTable`] plugs into the walker through its store parameter:
//! `PageTableWalker::<NaiveWalkTable>::with_batching(n)` is the reference
//! walker the cycle-identity suite (`crates/iommu/tests/ptw_identity.rs`)
//! and the `ptw_walk_storm` perf gate run the indexed
//! [`WalkTable`](sva_iommu::WalkTable) against.

use sva_iommu::WalkStore;

/// One in-flight PTE read held by the walk table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct WalkEntry {
    /// Physical address of the PTE being fetched.
    pte_addr: u64,
    /// The value the read returns.
    value: u64,
    /// Global-clock cycle at which the read was issued: a walk can only
    /// latch onto a read that is already outstanding at its own time.
    issued: u64,
    /// Global-clock cycle at which the read completes; the entry is dead
    /// (and reclaimable) from this point on.
    complete: u64,
}

/// The pre-index walk table, retained **verbatim** as the executable
/// specification of the MSHR semantics: a flat insertion-ordered `Vec`
/// whose coalescing probe is a first-match scan and whose concurrency
/// bound is a full-table filter. [`WalkTable`](sva_iommu::WalkTable) must
/// stay cycle-identical to it; the property suite and the `ptw_walk_storm`
/// perf gate twin-run both engines on the same workloads. It keeps its full
/// window history by design (compaction is the default no-op): its probe
/// semantics *are* the spec the compaction contract must not disturb.
#[derive(Clone, Debug, Default)]
pub struct NaiveWalkTable {
    table: Vec<WalkEntry>,
    events_peak: usize,
}

impl WalkStore for NaiveWalkTable {
    fn probe(&self, pte_addr: u64, now: u64) -> Option<(u64, u64)> {
        self.table
            .iter()
            .find(|e| e.pte_addr == pte_addr && e.issued <= now && e.complete > now)
            .map(|e| (e.value, e.complete))
    }

    fn in_flight_at(&self, now: u64) -> usize {
        self.table
            .iter()
            .filter(|e| e.issued <= now && e.complete > now)
            .count()
    }

    fn hold(&mut self, pte_addr: u64, value: u64, issued: u64, complete: u64) {
        self.table.push(WalkEntry {
            pte_addr,
            value,
            issued,
            complete,
        });
        self.events_peak = self.events_peak.max(self.table.len());
    }

    fn event_count(&self) -> usize {
        self.table.len()
    }

    fn events_peak(&self) -> usize {
        self.events_peak
    }

    fn clear(&mut self) {
        self.table.clear();
    }

    fn reset(&mut self) {
        self.table.clear();
        self.events_peak = 0;
    }
}
