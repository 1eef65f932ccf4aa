//! Splitting of DMA transfers into AXI bursts.
//!
//! The AXI specification requires that a burst never crosses a 4 KiB address
//! boundary and never exceeds 256 beats. The cluster DMA engine therefore
//! chops a large 1-D transfer into a sequence of bursts; when the IOMMU is
//! enabled, **each burst that starts on a new page** needs a fresh IOTLB
//! lookup, and a miss serialises the burst behind a multi-access page-table
//! walk. This is the microarchitectural mechanism behind the bandwidth loss
//! quantified in Section IV-B of the paper.

use sva_common::{PhysAddr, PAGE_SIZE};

/// A single AXI burst: a contiguous transfer that respects the 4 KiB boundary
/// rule and the maximum burst length.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Burst {
    /// Start address of the burst. For DMA through the IOMMU this is an IO
    /// virtual address reinterpreted as a bus address prior to translation.
    pub addr: PhysAddr,
    /// Length of the burst in bytes (1 ..= max burst bytes).
    pub len: u64,
}

impl Burst {
    /// One past the last byte of the burst.
    pub const fn end(&self) -> PhysAddr {
        PhysAddr::new(self.addr.raw() + self.len)
    }

    /// Returns `true` if this burst begins on a different 4 KiB page than
    /// `prev` ended on (or if there is no previous burst), i.e. whether it
    /// requires a new address translation.
    pub fn starts_new_page(&self, prev: Option<&Burst>) -> bool {
        match prev {
            None => true,
            Some(p) => (p.end() - 1u64).page_number() != self.addr.page_number(),
        }
    }
}

/// The complete burst decomposition of one DMA transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BurstPlan {
    bursts: Vec<Burst>,
}

impl BurstPlan {
    /// Splits a transfer of `len` bytes starting at `addr` into bursts of at
    /// most `max_burst_bytes` bytes that never cross a 4 KiB boundary.
    ///
    /// A zero-length transfer produces an empty plan.
    ///
    /// # Panics
    ///
    /// Panics if `max_burst_bytes` is zero.
    pub fn split(addr: PhysAddr, len: u64, max_burst_bytes: u64) -> Self {
        assert!(max_burst_bytes > 0, "maximum burst size must be non-zero");
        let mut bursts = Vec::new();
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let to_page_end = PAGE_SIZE - cur.page_offset();
            let chunk = remaining.min(max_burst_bytes).min(to_page_end);
            bursts.push(Burst {
                addr: cur,
                len: chunk,
            });
            cur += chunk;
            remaining -= chunk;
        }
        Self { bursts }
    }

    /// The bursts in issue order.
    pub fn bursts(&self) -> &[Burst] {
        &self.bursts
    }

    /// Total number of bytes carried by the plan.
    pub fn total_bytes(&self) -> u64 {
        self.bursts.iter().map(|b| b.len).sum()
    }

    /// Number of bursts in the plan.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// Returns `true` if the plan contains no bursts.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Number of distinct 4 KiB pages touched by the plan — an upper bound on
    /// the number of IOTLB lookups the transfer can miss on.
    pub fn pages_touched(&self) -> u64 {
        if self.bursts.is_empty() {
            return 0;
        }
        let first = self.bursts.first().unwrap().addr.page_number();
        let last = (self.bursts.last().unwrap().end() - 1u64).page_number();
        last - first + 1
    }

    /// Iterates over bursts together with a flag saying whether the burst
    /// starts on a page not covered by the previous burst (i.e. whether the
    /// DMA engine must present a new translation request for it).
    pub fn iter_with_new_page(&self) -> impl Iterator<Item = (Burst, bool)> + '_ {
        self.bursts.iter().enumerate().map(move |(i, b)| {
            let prev = if i == 0 {
                None
            } else {
                Some(&self.bursts[i - 1])
            };
            (*b, b.starts_new_page(prev))
        })
    }
}

impl<'a> IntoIterator for &'a BurstPlan {
    type Item = &'a Burst;
    type IntoIter = core::slice::Iter<'a, Burst>;

    fn into_iter(self) -> Self::IntoIter {
        self.bursts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_transfer_is_empty() {
        let plan = BurstPlan::split(PhysAddr::new(0x8000_0000), 0, 2048);
        assert!(plan.is_empty());
        assert_eq!(plan.total_bytes(), 0);
        assert_eq!(plan.pages_touched(), 0);
    }

    #[test]
    fn aligned_transfer_splits_at_max_burst() {
        let plan = BurstPlan::split(PhysAddr::new(0x8000_0000), 8192, 2048);
        assert_eq!(plan.len(), 4);
        assert!(plan.bursts().iter().all(|b| b.len == 2048));
        assert_eq!(plan.total_bytes(), 8192);
        assert_eq!(plan.pages_touched(), 2);
    }

    #[test]
    fn bursts_never_cross_page_boundaries() {
        let plan = BurstPlan::split(PhysAddr::new(0x8000_0F00), 5 * 1024, 2048);
        for b in &plan {
            let last = b.end() - 1u64;
            assert_eq!(
                b.addr.page_number(),
                last.page_number(),
                "burst {b:?} crosses a page boundary"
            );
            assert!(b.len <= 2048);
        }
        assert_eq!(plan.total_bytes(), 5 * 1024);
        // 0x0F00..0x1000 (256 B), then 2048, 2048, then remainder 768.
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.bursts()[0].len, 256);
    }

    #[test]
    fn new_page_flags_mark_translation_points() {
        // 2 pages, burst size = 1 KiB -> 8 bursts, translations at burst 0 and 4.
        let plan = BurstPlan::split(PhysAddr::new(0x8000_0000), 8192, 1024);
        let flags: Vec<bool> = plan.iter_with_new_page().map(|(_, f)| f).collect();
        assert_eq!(
            flags,
            vec![true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn small_unaligned_transfer_single_burst() {
        let plan = BurstPlan::split(PhysAddr::new(0x8000_0123), 64, 2048);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.bursts()[0].len, 64);
        assert_eq!(plan.pages_touched(), 1);
    }

    #[test]
    #[should_panic(expected = "burst size")]
    fn zero_max_burst_panics() {
        let _ = BurstPlan::split(PhysAddr::new(0), 64, 0);
    }
}
