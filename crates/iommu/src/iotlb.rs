//! The IO translation lookaside buffer: a generic set-associative TLB core.
//!
//! The prototype configures the IOMMU with **four** fully-associative,
//! true-LRU IOTLB entries — small on purpose, because the paper's point is
//! that even a minimal IOTLB suffices once the shared LLC serves page-table
//! walks. [`IoTlb::new`] builds exactly that configuration.
//!
//! The scaled platform generalises the same core into a configurable
//! organisation ([`TlbOrg`], `sets × ways`) with a pluggable
//! [`ReplacementPolicy`] (true LRU, bit-PLRU, FIFO, deterministic random),
//! and instantiates it **twice**: one private L1 address-translation cache
//! (ATC) per device and one shared L2 IOTLB behind them (see
//! `crate::iommu`). Entries are tagged by `(device_id, virtual page
//! number)`, so a shared instance naturally partitions between the
//! translating devices; hit/miss statistics are kept both globally and per
//! device.

use sva_common::rng::DeterministicRng;
use sva_common::stats::HitMiss;
use sva_common::{Iova, PhysAddr, ReplacementPolicy, TlbOrg, PAGE_SHIFT};
use sva_vm::PteFlags;

/// One cached translation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IoTlbEntry {
    /// Device that owns the translation.
    pub device_id: u32,
    /// IO virtual page number.
    pub vpn: u64,
    /// Physical page number the page maps to.
    pub ppn: u64,
    /// Leaf permissions.
    pub flags: PteFlags,
}

impl IoTlbEntry {
    /// Physical address corresponding to `iova` under this entry.
    pub fn translate(&self, iova: Iova) -> PhysAddr {
        PhysAddr::new((self.ppn << PAGE_SHIFT) | iova.page_offset())
    }
}

/// One way of a set: the cached translation plus the replacement metadata
/// the configured policy interprets (an LRU timestamp, a FIFO sequence
/// number or a PLRU mark bit).
#[derive(Copy, Clone, Debug)]
struct Slot {
    entry: IoTlbEntry,
    stamp: u64,
}

/// A set-associative TLB with a pluggable replacement policy.
///
/// [`IoTlb::new`] is the paper prototype's configuration (fully associative,
/// true LRU); [`IoTlb::with_org`] opens the full `sets × ways × policy`
/// space. Lookups and fills are **functional and untimed** — the lookup
/// latency of a level is charged by the [`crate::Iommu`] that owns it.
#[derive(Clone, Debug)]
pub struct IoTlb {
    org: TlbOrg,
    policy: ReplacementPolicy,
    sets: Vec<Vec<Slot>>,
    /// Monotonic operation counter providing unique LRU/FIFO stamps.
    clock: u64,
    /// Victim stream for [`ReplacementPolicy::Random`] (`None` otherwise).
    rng: Option<DeterministicRng>,
    stats: HitMiss,
    per_device: Vec<(u32, HitMiss)>,
    /// Valid-entry count per device, ordered by device ID. Functional
    /// cache state (not a statistic — survives `reset_stats` with the
    /// entries it counts): lets a device-scoped invalidation skip the
    /// whole-array sweep when the device holds no entries, which is the
    /// common case once many devices share one TLB.
    per_device_entries: Vec<(u32, usize)>,
    invalidations: u64,
}

impl IoTlb {
    /// Creates the prototype IOTLB: `capacity` fully-associative entries
    /// with true-LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "IOTLB needs at least one entry");
        Self::with_org(
            TlbOrg::fully_associative(capacity),
            ReplacementPolicy::TrueLru,
        )
    }

    /// Creates a TLB with the given organisation and replacement policy.
    pub fn with_org(org: TlbOrg, policy: ReplacementPolicy) -> Self {
        Self {
            org,
            policy,
            sets: vec![Vec::with_capacity(org.ways); org.sets],
            clock: 0,
            rng: match policy {
                ReplacementPolicy::Random(seed) => Some(DeterministicRng::new(seed)),
                _ => None,
            },
            stats: HitMiss::new(),
            per_device: Vec::new(),
            per_device_entries: Vec::new(),
            invalidations: 0,
        }
    }

    /// The organisation of this instance.
    pub const fn org(&self) -> TlbOrg {
        self.org
    }

    /// The replacement policy of this instance.
    pub const fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Set index of a `(device, page)` tag. With one set this is always
    /// zero (fully associative); otherwise the device ID is folded into the
    /// page number so co-running devices do not collide on set 0 for their
    /// low pages.
    fn set_index(&self, device_id: u32, vpn: u64) -> usize {
        ((vpn ^ (device_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % self.org.sets as u64)
            as usize
    }

    fn device_slot(&mut self, device_id: u32) -> &mut HitMiss {
        let pos = match self
            .per_device
            .binary_search_by_key(&device_id, |(d, _)| *d)
        {
            Ok(pos) => pos,
            Err(pos) => {
                self.per_device.insert(pos, (device_id, HitMiss::new()));
                pos
            }
        };
        &mut self.per_device[pos].1
    }

    /// Adjusts the valid-entry count of `device_id` by one.
    fn add_device_entry(&mut self, device_id: u32) {
        match self
            .per_device_entries
            .binary_search_by_key(&device_id, |(d, _)| *d)
        {
            Ok(pos) => self.per_device_entries[pos].1 += 1,
            Err(pos) => self.per_device_entries.insert(pos, (device_id, 1)),
        }
    }

    fn remove_device_entry(&mut self, device_id: u32) {
        let pos = self
            .per_device_entries
            .binary_search_by_key(&device_id, |(d, _)| *d)
            .expect("removing an entry of a device that holds none");
        let count = &mut self.per_device_entries[pos].1;
        debug_assert!(*count > 0);
        *count -= 1;
    }

    /// Number of entries the TLB can hold (`sets × ways`).
    pub const fn capacity(&self) -> usize {
        self.org.entries()
    }

    /// Number of currently valid entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Returns `true` if no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Marks `slot` of `set` as touched under the configured policy (hit or
    /// refill).
    fn touch(policy: ReplacementPolicy, set: &mut [Slot], slot: usize, clock: u64) {
        match policy {
            ReplacementPolicy::TrueLru => set[slot].stamp = clock,
            ReplacementPolicy::PseudoLru => {
                set[slot].stamp = 1;
                if set.iter().all(|s| s.stamp == 1) {
                    for (i, s) in set.iter_mut().enumerate() {
                        if i != slot {
                            s.stamp = 0;
                        }
                    }
                }
            }
            // FIFO age is fixed at fill time; random needs no metadata.
            ReplacementPolicy::Fifo | ReplacementPolicy::Random(_) => {}
        }
    }

    /// Picks the victim way of a full `set`.
    fn victim(&mut self, set_idx: usize) -> usize {
        let set = &self.sets[set_idx];
        match self.policy {
            ReplacementPolicy::TrueLru | ReplacementPolicy::Fifo => set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
                .expect("victim is only chosen in a full set"),
            ReplacementPolicy::PseudoLru => set
                .iter()
                .position(|s| s.stamp == 0)
                // Every way marked (possible right after an all-ways refill
                // burst): fall back to way 0, matching bit-PLRU hardware
                // that resets the marks lazily.
                .unwrap_or(0),
            ReplacementPolicy::Random(_) => {
                let ways = set.len() as u64;
                self.rng
                    .as_mut()
                    .expect("random policy carries its stream")
                    .next_below(ways) as usize
            }
        }
    }

    /// Looks up the translation of `iova` for `device_id`, updating the
    /// replacement state and hit/miss statistics.
    pub fn lookup(&mut self, device_id: u32, iova: Iova) -> Option<IoTlbEntry> {
        self.clock += 1;
        let vpn = iova.page_number();
        let set_idx = self.set_index(device_id, vpn);
        let clock = self.clock;
        let policy = self.policy;
        let set = &mut self.sets[set_idx];
        let entry = set
            .iter()
            .position(|s| s.entry.device_id == device_id && s.entry.vpn == vpn)
            .map(|slot| {
                Self::touch(policy, set, slot, clock);
                set[slot].entry
            });
        if entry.is_some() {
            self.stats.hit();
            self.device_slot(device_id).hit();
        } else {
            self.stats.miss();
            self.device_slot(device_id).miss();
        }
        entry
    }

    /// Peeks whether a translation is cached **without touching the
    /// replacement state or the statistics** — the untimed/uncounted probe
    /// contract (see `Iommu::probe_translation`).
    pub fn probe(&self, device_id: u32, iova: Iova) -> bool {
        let vpn = iova.page_number();
        self.sets[self.set_index(device_id, vpn)]
            .iter()
            .any(|s| s.entry.device_id == device_id && s.entry.vpn == vpn)
    }

    /// Inserts a translation, evicting the policy's victim if the target
    /// set is full.
    pub fn fill(&mut self, device_id: u32, iova: Iova, ppn: u64, flags: PteFlags) {
        self.clock += 1;
        let vpn = iova.page_number();
        let set_idx = self.set_index(device_id, vpn);
        let clock = self.clock;
        let policy = self.policy;
        if let Some(slot) = self.sets[set_idx]
            .iter()
            .position(|s| s.entry.device_id == device_id && s.entry.vpn == vpn)
        {
            let set = &mut self.sets[set_idx];
            set[slot].entry.ppn = ppn;
            set[slot].entry.flags = flags;
            Self::touch(policy, set, slot, clock);
            return;
        }
        let entry = IoTlbEntry {
            device_id,
            vpn,
            ppn,
            flags,
        };
        // FIFO/LRU read the fill stamp as the entry's age; PLRU's touch()
        // below overwrites it with the mark bit.
        let slot = Slot {
            entry,
            stamp: clock,
        };
        let ways = self.org.ways;
        if self.sets[set_idx].len() < ways {
            self.sets[set_idx].push(slot);
            let filled = self.sets[set_idx].len() - 1;
            Self::touch(policy, &mut self.sets[set_idx], filled, clock);
        } else {
            let victim = self.victim(set_idx);
            self.remove_device_entry(self.sets[set_idx][victim].entry.device_id);
            self.sets[set_idx][victim] = slot;
            Self::touch(policy, &mut self.sets[set_idx], victim, clock);
        }
        self.add_device_entry(device_id);
    }

    /// Invalidates every entry (the `IOTINVAL.VMA` broadcast the driver
    /// issues after changing mappings).
    pub fn invalidate_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.per_device_entries.clear();
        self.invalidations += 1;
    }

    /// Invalidates all entries belonging to one device. Devices that hold
    /// no entries (the common case with many devices behind one shared
    /// TLB) short-circuit on the per-device entry count without sweeping
    /// the sets; the invalidation is still counted — the command was
    /// processed either way.
    pub fn invalidate_device(&mut self, device_id: u32) {
        self.invalidations += 1;
        let held = self
            .per_device_entries
            .binary_search_by_key(&device_id, |(d, _)| *d)
            .map(|pos| self.per_device_entries[pos].1)
            .unwrap_or(0);
        if held == 0 {
            return;
        }
        let mut removed = 0usize;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|s| s.entry.device_id != device_id);
            removed += before - set.len();
            if removed == held {
                break;
            }
        }
        debug_assert_eq!(removed, held, "per-device entry count diverged");
        for _ in 0..removed {
            self.remove_device_entry(device_id);
        }
    }

    /// Invalidates the entry for one page of one device, if present.
    pub fn invalidate_page(&mut self, device_id: u32, iova: Iova) {
        let vpn = iova.page_number();
        let set_idx = self.set_index(device_id, vpn);
        let before = self.sets[set_idx].len();
        self.sets[set_idx].retain(|s| !(s.entry.device_id == device_id && s.entry.vpn == vpn));
        if self.sets[set_idx].len() < before {
            self.remove_device_entry(device_id);
        }
        self.invalidations += 1;
    }

    /// Hit/miss statistics.
    pub const fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Hit/miss statistics for one device (zero if it never looked up).
    pub fn device_stats(&self, device_id: u32) -> HitMiss {
        self.per_device
            .binary_search_by_key(&device_id, |(d, _)| *d)
            .map(|pos| self.per_device[pos].1)
            .unwrap_or_default()
    }

    /// Per-device hit/miss statistics, ordered by device ID.
    pub fn per_device_stats(&self) -> &[(u32, HitMiss)] {
        &self.per_device
    }

    /// Number of valid entries currently held by `device_id` (the index
    /// behind the device-invalidation short-circuit).
    pub fn device_entries(&self, device_id: u32) -> usize {
        self.per_device_entries
            .binary_search_by_key(&device_id, |(d, _)| *d)
            .map(|pos| self.per_device_entries[pos].1)
            .unwrap_or(0)
    }

    /// Checks that the per-device entry counts match the sets exactly.
    ///
    /// # Panics
    ///
    /// Panics when a count has diverged from the entries it summarises.
    #[doc(hidden)]
    pub fn debug_validate_device_entries(&self) {
        let mut counted: Vec<(u32, usize)> = Vec::new();
        for set in &self.sets {
            for s in set {
                match counted.binary_search_by_key(&s.entry.device_id, |(d, _)| *d) {
                    Ok(pos) => counted[pos].1 += 1,
                    Err(pos) => counted.insert(pos, (s.entry.device_id, 1)),
                }
            }
        }
        let nonzero: Vec<(u32, usize)> = self
            .per_device_entries
            .iter()
            .copied()
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(nonzero, counted, "per-device entry counts diverged");
    }

    /// Number of invalidation operations processed.
    pub const fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Clears statistics (entries are preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.per_device.clear();
        self.invalidations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_flags() -> PteFlags {
        PteFlags::user_rw()
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = IoTlb::new(4);
        let iova = Iova::new(0x1234_5000);
        assert!(tlb.lookup(1, iova).is_none());
        tlb.fill(1, iova, 0x8_0000, entry_flags());
        let e = tlb.lookup(1, iova + 0x123).expect("hit after fill");
        assert_eq!(
            e.translate(iova + 0x123),
            PhysAddr::new(0x8_0000 << 12 | 0x123)
        );
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn entries_are_tagged_by_device() {
        let mut tlb = IoTlb::new(4);
        let iova = Iova::new(0x1000);
        tlb.fill(1, iova, 0x100, entry_flags());
        assert!(tlb.lookup(2, iova).is_none());
        assert!(tlb.lookup(1, iova).is_some());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut tlb = IoTlb::new(4);
        for i in 0..4u64 {
            tlb.fill(1, Iova::new(i << 12), i, entry_flags());
        }
        // Touch page 0 so page 1 becomes LRU.
        assert!(tlb.lookup(1, Iova::new(0)).is_some());
        tlb.fill(1, Iova::new(4 << 12), 4, entry_flags());
        assert_eq!(tlb.len(), 4);
        assert!(tlb.probe(1, Iova::new(0)));
        assert!(
            !tlb.probe(1, Iova::new(1 << 12)),
            "LRU page 1 should be evicted"
        );
        assert!(tlb.probe(1, Iova::new(4 << 12)));
    }

    #[test]
    fn refill_of_existing_page_updates_in_place() {
        let mut tlb = IoTlb::new(2);
        let iova = Iova::new(0x5000);
        tlb.fill(1, iova, 0x10, entry_flags());
        tlb.fill(1, iova, 0x20, entry_flags());
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.lookup(1, iova).unwrap().ppn, 0x20);
    }

    #[test]
    fn invalidations() {
        let mut tlb = IoTlb::new(4);
        tlb.fill(1, Iova::new(0x1000), 1, entry_flags());
        tlb.fill(1, Iova::new(0x2000), 2, entry_flags());
        tlb.fill(2, Iova::new(0x3000), 3, entry_flags());

        tlb.invalidate_page(1, Iova::new(0x1000));
        assert!(!tlb.probe(1, Iova::new(0x1000)));
        assert!(tlb.probe(1, Iova::new(0x2000)));

        tlb.invalidate_device(1);
        assert!(!tlb.probe(1, Iova::new(0x2000)));
        assert!(tlb.probe(2, Iova::new(0x3000)));

        tlb.invalidate_all();
        assert!(tlb.is_empty());
        assert_eq!(tlb.invalidations(), 3);
    }

    /// The per-device entry counts (the index behind the
    /// `invalidate_device` short-circuit) track fills, in-place updates,
    /// evictions and every invalidation flavour, and survive a stats
    /// reset with the entries they count.
    #[test]
    fn per_device_entry_counts_track_every_membership_change() {
        let mut tlb = IoTlb::new(4);
        tlb.fill(1, Iova::new(0x1000), 1, entry_flags());
        tlb.fill(1, Iova::new(0x2000), 2, entry_flags());
        tlb.fill(2, Iova::new(0x3000), 3, entry_flags());
        tlb.fill(1, Iova::new(0x1000), 9, entry_flags()); // in-place update
        assert_eq!(tlb.device_entries(1), 2);
        assert_eq!(tlb.device_entries(2), 1);
        assert_eq!(tlb.device_entries(7), 0, "unseen device holds nothing");
        tlb.debug_validate_device_entries();

        // Fill to capacity, then one more: the LRU victim (device 1,
        // page 0x2000 — 0x1000 was refreshed by the update) hands its
        // count to the filling device.
        tlb.fill(2, Iova::new(0x4000), 4, entry_flags());
        tlb.fill(3, Iova::new(0x5000), 5, entry_flags());
        assert_eq!(tlb.len(), 4);
        assert_eq!(tlb.device_entries(1), 1);
        assert_eq!(tlb.device_entries(3), 1);
        tlb.debug_validate_device_entries();

        // A device-scoped invalidation of an absent device is counted but
        // touches nothing.
        tlb.invalidate_device(7);
        assert_eq!(tlb.len(), 4);
        tlb.invalidate_page(2, Iova::new(0x3000));
        assert_eq!(tlb.device_entries(2), 1);
        tlb.invalidate_device(2);
        assert_eq!(tlb.device_entries(2), 0);
        assert!(!tlb.probe(2, Iova::new(0x4000)));
        tlb.debug_validate_device_entries();

        // Counts are functional state: a stats reset keeps them with the
        // entries; a full invalidation clears both.
        tlb.reset_stats();
        assert_eq!(tlb.device_entries(1), 1);
        tlb.debug_validate_device_entries();
        tlb.invalidate_all();
        assert_eq!(tlb.device_entries(1), 0);
        tlb.debug_validate_device_entries();
        assert_eq!(tlb.invalidations(), 1, "reset_stats restarted the count");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = IoTlb::new(0);
    }

    #[test]
    fn per_device_stats_split_the_global_counts() {
        let mut tlb = IoTlb::new(4);
        let iova = Iova::new(0x1000);
        tlb.fill(1, iova, 0x100, entry_flags());
        tlb.lookup(1, iova); // hit for device 1
        tlb.lookup(2, iova); // miss for device 2
        tlb.lookup(2, iova); // miss again
        assert_eq!(tlb.device_stats(1).hits, 1);
        assert_eq!(tlb.device_stats(1).misses, 0);
        assert_eq!(tlb.device_stats(2).misses, 2);
        assert_eq!(tlb.device_stats(7).total(), 0, "unseen device is zero");
        let global = tlb.stats();
        let summed: u64 = tlb.per_device_stats().iter().map(|(_, s)| s.total()).sum();
        assert_eq!(global.total(), summed);
        tlb.reset_stats();
        assert!(tlb.per_device_stats().is_empty());
    }

    // ------------------------------------------------------------------
    // Set-associative organisations and alternative policies
    // ------------------------------------------------------------------

    /// Walks `pages` pages twice and returns the hit count of the second
    /// sweep.
    fn second_sweep_hits(mut tlb: IoTlb, pages: u64) -> u64 {
        for _ in 0..2 {
            for p in 0..pages {
                if tlb.lookup(1, Iova::new(p << 12)).is_none() {
                    tlb.fill(1, Iova::new(p << 12), p, entry_flags());
                }
            }
        }
        tlb.stats().hits
    }

    #[test]
    fn set_associative_tlb_partitions_by_set() {
        // 4 sets x 2 ways: pages that map to different sets never evict each
        // other, so an 8-page working set fits exactly.
        let tlb = IoTlb::with_org(TlbOrg::new(4, 2), ReplacementPolicy::TrueLru);
        assert_eq!(tlb.capacity(), 8);
        assert_eq!(second_sweep_hits(tlb, 8), 8);
    }

    #[test]
    fn direct_mapped_conflicts_miss() {
        // Direct-mapped with 4 sets: pages 0 and 4 (stride = set count)
        // conflict and evict each other.
        let mut tlb = IoTlb::with_org(TlbOrg::direct_mapped(4), ReplacementPolicy::TrueLru);
        tlb.fill(1, Iova::new(0), 0, entry_flags());
        tlb.fill(1, Iova::new(4 << 12), 4, entry_flags());
        assert!(
            !tlb.probe(1, Iova::new(0)),
            "conflicting fill must evict the resident page"
        );
        assert!(tlb.probe(1, Iova::new(4 << 12)));
    }

    #[test]
    fn fifo_ignores_hits_when_choosing_victims() {
        // Fill pages 0..4, touch page 0 (would save it under LRU), then
        // fill page 4: FIFO still evicts page 0 (oldest fill).
        let mut tlb = IoTlb::with_org(TlbOrg::fully_associative(4), ReplacementPolicy::Fifo);
        for i in 0..4u64 {
            tlb.fill(1, Iova::new(i << 12), i, entry_flags());
        }
        assert!(tlb.lookup(1, Iova::new(0)).is_some());
        tlb.fill(1, Iova::new(4 << 12), 4, entry_flags());
        assert!(!tlb.probe(1, Iova::new(0)), "FIFO evicts the oldest fill");
        assert!(tlb.probe(1, Iova::new(1 << 12)));
    }

    #[test]
    fn pseudo_lru_protects_the_most_recent_touch() {
        let mut tlb = IoTlb::with_org(TlbOrg::fully_associative(4), ReplacementPolicy::PseudoLru);
        for i in 0..4u64 {
            tlb.fill(1, Iova::new(i << 12), i, entry_flags());
        }
        // Touch page 3; the next victim must not be page 3.
        assert!(tlb.lookup(1, Iova::new(3 << 12)).is_some());
        tlb.fill(1, Iova::new(4 << 12), 4, entry_flags());
        assert!(tlb.probe(1, Iova::new(3 << 12)), "PLRU keeps the MRU entry");
        assert_eq!(tlb.len(), 4);
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut tlb = IoTlb::with_org(
                TlbOrg::fully_associative(4),
                ReplacementPolicy::Random(seed),
            );
            for i in 0..16u64 {
                tlb.fill(1, Iova::new(i << 12), i, entry_flags());
            }
            (0..16u64)
                .map(|i| tlb.probe(1, Iova::new(i << 12)))
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same victims");
        assert_eq!(run(7).iter().filter(|&&p| p).count(), 4);
    }

    #[test]
    fn policies_agree_on_contents_below_capacity() {
        for policy in [
            ReplacementPolicy::TrueLru,
            ReplacementPolicy::PseudoLru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random(3),
        ] {
            let mut tlb = IoTlb::with_org(TlbOrg::new(2, 4), policy);
            for i in 0..8u64 {
                tlb.fill(1, Iova::new(i << 12), i, entry_flags());
            }
            for i in 0..8u64 {
                let e = tlb
                    .lookup(1, Iova::new(i << 12))
                    .unwrap_or_else(|| panic!("{policy:?}: page {i} resident below capacity"));
                assert_eq!(e.ppn, i);
            }
        }
    }
}
