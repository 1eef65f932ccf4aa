//! Sv39 three-level page tables built in simulated physical memory.
//!
//! Both the host MMU and the RISC-V IOMMU consume this format. The tables
//! live in the simulated DRAM (written through [`sva_mem::MemorySystem`]'s
//! functional interface by the driver model), which is what lets the IOMMU's
//! page-table walker later *time* its three dependent reads against the same
//! memory hierarchy the paper measures.

use sva_common::{Error, PhysAddr, Result, VirtAddr, PAGE_SIZE};
use sva_mem::MemorySystem;

use crate::frame::FrameAllocator;
use crate::pte::{Pte, PteFlags};

/// Number of levels of an Sv39 table (1 GiB, 2 MiB, 4 KiB).
pub const PT_LEVELS: usize = 3;

/// Number of entries per table page (512 × 8 B = 4 KiB).
pub const ENTRIES_PER_TABLE: u64 = 512;

/// Returns the virtual page number field of `va` for a given level
/// (level 0 is the root / most significant field).
pub fn vpn(va: VirtAddr, level: usize) -> u64 {
    debug_assert!(level < PT_LEVELS);
    let shift = 12 + 9 * (PT_LEVELS - 1 - level);
    (va.raw() >> shift) & (ENTRIES_PER_TABLE - 1)
}

/// Physical address of the PTE consulted at `level` when walking `va` in a
/// table page at `table_base`. This is the address the IOMMU's PTW reads.
///
/// Because `table_base` is a page-aligned frame and the index offset is a
/// multiple of 8 below `PAGE_SIZE`, every PTE address is 8-byte aligned and
/// the 8-byte access never straddles a frame boundary — all PTE fetches and
/// stores (here and in the IOMMU's PTW) take the backing store's typed
/// single-frame fast path. Pinned by `pte_accesses_never_straddle_a_frame`.
pub fn pte_address(table_base: PhysAddr, va: VirtAddr, level: usize) -> PhysAddr {
    table_base + vpn(va, level) * 8
}

/// Accounting of a mapping operation, used by the driver cost model: each
/// table allocation and each PTE store is an access the CVA6 performs through
/// its cache hierarchy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Number of page-table pages that had to be allocated.
    pub tables_allocated: u64,
    /// Number of PTE stores performed.
    pub pte_writes: u64,
    /// Number of PTE loads performed while walking existing levels.
    pub pte_reads: u64,
}

impl MapStats {
    /// Merges the accounting of another operation into this one.
    pub fn merge(&mut self, other: MapStats) {
        self.tables_allocated += other.tables_allocated;
        self.pte_writes += other.pte_writes;
        self.pte_reads += other.pte_reads;
    }
}

/// The PTE addresses and values touched by a full table walk of one address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkPath {
    /// `(pte_address, pte_value)` for each level visited, root first.
    pub entries: Vec<(PhysAddr, Pte)>,
}

impl WalkPath {
    /// The leaf entry, if the walk reached one.
    pub fn leaf(&self) -> Option<Pte> {
        self.entries.last().map(|(_, p)| *p).filter(|p| p.is_leaf())
    }

    /// Number of memory reads the walk performed.
    pub fn reads(&self) -> usize {
        self.entries.len()
    }
}

/// An Sv39 page table rooted at a physical page.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PageTable {
    root: PhysAddr,
}

impl PageTable {
    /// Wraps an existing (already zeroed) root table page.
    pub const fn from_root(root: PhysAddr) -> Self {
        Self { root }
    }

    /// Allocates a fresh root table page from `frames`.
    ///
    /// Freshly allocated frames read as zero in the simulated memory, so no
    /// explicit clearing is needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if the frame pool is exhausted.
    pub fn create(frames: &mut FrameAllocator) -> Result<Self> {
        Ok(Self {
            root: frames.alloc_frame()?,
        })
    }

    /// Physical address of the root table page (what `satp`/the IOMMU device
    /// context point at).
    pub const fn root(&self) -> PhysAddr {
        self.root
    }

    /// Maps the 4 KiB page containing `va` to the physical page containing
    /// `pa`, allocating intermediate table pages as needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if a table page cannot be allocated, or
    /// [`Error::InvalidConfig`] if the address is already mapped with a
    /// conflicting leaf.
    pub fn map_page(
        &self,
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        flags: PteFlags,
    ) -> Result<MapStats> {
        let mut stats = MapStats::default();
        let mut table = self.root;
        for level in 0..PT_LEVELS - 1 {
            let pte_addr = pte_address(table, va, level);
            let pte = Pte::from_raw(mem.read_u64_phys(pte_addr)?);
            stats.pte_reads += 1;
            if pte.is_leaf() {
                return Err(Error::InvalidConfig {
                    reason: format!("virtual address {va} already mapped by a superpage"),
                });
            }
            table = if pte.is_table() {
                pte.phys_addr()
            } else {
                let new_table = frames.alloc_frame()?;
                mem.write_u64_phys(pte_addr, Pte::table(new_table).raw())?;
                stats.tables_allocated += 1;
                stats.pte_writes += 1;
                new_table
            };
        }
        let leaf_addr = pte_address(table, va, PT_LEVELS - 1);
        mem.write_u64_phys(leaf_addr, Pte::leaf(pa, flags).raw())?;
        stats.pte_writes += 1;
        Ok(stats)
    }

    /// Maps `len` bytes starting at `va` to the physically contiguous range
    /// starting at `pa`. Both addresses must be page-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on misaligned inputs, plus any error
    /// from [`PageTable::map_page`].
    pub fn map_range(
        &self,
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        len: u64,
        flags: PteFlags,
    ) -> Result<MapStats> {
        if !va.is_aligned(PAGE_SIZE) || !pa.is_aligned(PAGE_SIZE) {
            return Err(Error::InvalidConfig {
                reason: format!("map_range requires page-aligned addresses (va={va}, pa={pa})"),
            });
        }
        let mut stats = MapStats::default();
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let s = self.map_page(mem, frames, va + i * PAGE_SIZE, pa + i * PAGE_SIZE, flags)?;
            stats.merge(s);
        }
        Ok(stats)
    }

    /// Removes the leaf mapping of the page containing `va`.
    ///
    /// Intermediate tables are left in place, as the Linux driver does for
    /// short-lived DMA mappings.
    ///
    /// # Errors
    ///
    /// Returns [`Error::HostPageFault`] if the page was not mapped.
    pub fn unmap_page(&self, mem: &mut MemorySystem, va: VirtAddr) -> Result<()> {
        let path = self.walk(mem, va)?;
        if path.leaf().is_none() {
            return Err(Error::HostPageFault { addr: va });
        }
        let (leaf_addr, _) = *path
            .entries
            .last()
            .expect("walk returned at least one entry");
        mem.write_u64_phys(leaf_addr, Pte::INVALID.raw())?;
        Ok(())
    }

    /// Performs a full software walk of `va`, returning every PTE address and
    /// value visited. The walk stops early at an invalid entry.
    ///
    /// # Errors
    ///
    /// Returns a decode error if a table page address falls outside memory
    /// (corrupted table).
    pub fn walk(&self, mem: &MemorySystem, va: VirtAddr) -> Result<WalkPath> {
        let mut entries = Vec::with_capacity(PT_LEVELS);
        let mut table = self.root;
        for level in 0..PT_LEVELS {
            let pte_addr = pte_address(table, va, level);
            let pte = Pte::from_raw(mem.read_u64_phys(pte_addr)?);
            entries.push((pte_addr, pte));
            if !pte.is_valid() || pte.is_leaf() {
                break;
            }
            table = pte.phys_addr();
        }
        Ok(WalkPath { entries })
    }

    /// Translates a virtual address to a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::HostPageFault`] if the address is unmapped.
    pub fn translate(&self, mem: &MemorySystem, va: VirtAddr) -> Result<PhysAddr> {
        let path = self.walk(mem, va)?;
        let leaf = path.leaf().ok_or(Error::HostPageFault { addr: va })?;
        Ok(leaf.phys_addr() + va.page_offset())
    }

    /// Returns `true` if the page containing `va` has a valid leaf mapping.
    pub fn is_mapped(&self, mem: &MemorySystem, va: VirtAddr) -> bool {
        self.walk(mem, va)
            .map(|p| p.leaf().is_some())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemorySystem, FrameAllocator, PageTable) {
        let mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let pt = PageTable::create(&mut frames).unwrap();
        (mem, frames, pt)
    }

    #[test]
    fn vpn_extraction() {
        let va = VirtAddr::new(0x12_3456_7890);
        // Sv39: vpn2 = bits 38:30, vpn1 = 29:21, vpn0 = 20:12.
        assert_eq!(vpn(va, 0), (va.raw() >> 30) & 0x1FF);
        assert_eq!(vpn(va, 1), (va.raw() >> 21) & 0x1FF);
        assert_eq!(vpn(va, 2), (va.raw() >> 12) & 0x1FF);
    }

    #[test]
    fn map_and_translate_roundtrip() {
        let (mut mem, mut frames, pt) = setup();
        let va = VirtAddr::new(0x4000_1000);
        let pa = frames.alloc_frame().unwrap();
        let stats = pt
            .map_page(&mut mem, &mut frames, va, pa, PteFlags::user_rw())
            .unwrap();
        // First mapping allocates the two intermediate levels.
        assert_eq!(stats.tables_allocated, 2);
        assert_eq!(stats.pte_writes, 3);
        assert_eq!(pt.translate(&mem, va).unwrap(), pa);
        assert_eq!(pt.translate(&mem, va + 0x123).unwrap(), pa + 0x123);
        assert!(pt.is_mapped(&mem, va));
        assert!(!pt.is_mapped(&mem, va + PAGE_SIZE));
    }

    #[test]
    fn second_mapping_in_same_region_reuses_tables() {
        let (mut mem, mut frames, pt) = setup();
        let va = VirtAddr::new(0x4000_0000);
        let pa1 = frames.alloc_frame().unwrap();
        let pa2 = frames.alloc_frame().unwrap();
        pt.map_page(&mut mem, &mut frames, va, pa1, PteFlags::user_rw())
            .unwrap();
        let stats = pt
            .map_page(
                &mut mem,
                &mut frames,
                va + PAGE_SIZE,
                pa2,
                PteFlags::user_rw(),
            )
            .unwrap();
        assert_eq!(stats.tables_allocated, 0);
        assert_eq!(stats.pte_writes, 1);
    }

    #[test]
    fn map_range_covers_every_page() {
        let (mut mem, mut frames, pt) = setup();
        let va = VirtAddr::new(0x5000_0000);
        let pa = frames.alloc_contiguous(16).unwrap();
        pt.map_range(
            &mut mem,
            &mut frames,
            va,
            pa,
            16 * PAGE_SIZE,
            PteFlags::user_rw(),
        )
        .unwrap();
        for i in 0..16u64 {
            assert_eq!(
                pt.translate(&mem, va + i * PAGE_SIZE).unwrap(),
                pa + i * PAGE_SIZE
            );
        }
        assert!(!pt.is_mapped(&mem, va + 16 * PAGE_SIZE));
    }

    #[test]
    fn map_range_rejects_misaligned_input() {
        let (mut mem, mut frames, pt) = setup();
        let err = pt.map_range(
            &mut mem,
            &mut frames,
            VirtAddr::new(0x5000_0010),
            PhysAddr::new(0x8000_0000),
            PAGE_SIZE,
            PteFlags::user_rw(),
        );
        assert!(matches!(err, Err(Error::InvalidConfig { .. })));
    }

    #[test]
    fn unmapped_address_faults() {
        let (mem, _frames, pt) = setup();
        let err = pt.translate(&mem, VirtAddr::new(0x6000_0000));
        assert!(matches!(err, Err(Error::HostPageFault { .. })));
    }

    #[test]
    fn unmap_removes_leaf_only() {
        let (mut mem, mut frames, pt) = setup();
        let va = VirtAddr::new(0x4000_0000);
        let pa = frames.alloc_frame().unwrap();
        pt.map_page(&mut mem, &mut frames, va, pa, PteFlags::user_rw())
            .unwrap();
        pt.unmap_page(&mut mem, va).unwrap();
        assert!(!pt.is_mapped(&mem, va));
        // Remapping reuses the intermediate tables.
        let stats = pt
            .map_page(&mut mem, &mut frames, va, pa, PteFlags::user_rw())
            .unwrap();
        assert_eq!(stats.tables_allocated, 0);
        // Unmapping twice faults.
        pt.unmap_page(&mut mem, va).unwrap();
        assert!(pt.unmap_page(&mut mem, va).is_err());
    }

    #[test]
    fn walk_reports_three_levels_for_mapped_page() {
        let (mut mem, mut frames, pt) = setup();
        let va = VirtAddr::new(0x4000_2000);
        let pa = frames.alloc_frame().unwrap();
        pt.map_page(&mut mem, &mut frames, va, pa, PteFlags::user_rw())
            .unwrap();
        let path = pt.walk(&mem, va).unwrap();
        assert_eq!(path.reads(), 3);
        assert_eq!(path.leaf().unwrap().phys_addr(), pa);
        // All three PTE addresses are distinct and inside DRAM.
        let addrs: Vec<PhysAddr> = path.entries.iter().map(|(a, _)| *a).collect();
        assert_ne!(addrs[0], addrs[1]);
        assert_ne!(addrs[1], addrs[2]);
        for a in addrs {
            assert!(mem.map().is_dram(a));
        }
    }

    #[test]
    fn walk_stops_at_invalid_level() {
        let (mem, _frames, pt) = setup();
        let path = pt.walk(&mem, VirtAddr::new(0x7000_0000)).unwrap();
        assert_eq!(path.reads(), 1);
        assert!(path.leaf().is_none());
    }

    #[test]
    fn pte_accesses_never_straddle_a_frame() {
        // Every PTE address a walk can produce is 8-byte aligned with the
        // whole entry inside one frame, so the page-table write path and the
        // IOMMU's PTW always hit the backing store's typed single-frame fast
        // path. Sweep the extreme indexes of every level, including the last
        // slot of a table page (offset PAGE_SIZE - 8).
        let base = PhysAddr::new(0x8010_0000);
        for level in 0..PT_LEVELS {
            for va in [
                VirtAddr::new(0),
                VirtAddr::new(u64::MAX >> (64 - 12 - 9 * PT_LEVELS as u64)),
                VirtAddr::new(0x4000_2000),
            ] {
                let addr = pte_address(base, va, level);
                assert_eq!(addr.raw() % 8, 0, "PTE at {addr} not 8-byte aligned");
                let in_frame = addr.raw() % sva_common::PAGE_SIZE;
                assert!(
                    in_frame + 8 <= sva_common::PAGE_SIZE,
                    "PTE at {addr} straddles a frame boundary"
                );
            }
        }
        // The max VPN index lands on the last slot of the table page.
        let last = pte_address(
            base,
            VirtAddr::new(u64::MAX >> (64 - 12 - 9 * PT_LEVELS as u64)),
            PT_LEVELS - 1,
        );
        assert_eq!(last.raw() - base.raw(), sva_common::PAGE_SIZE - 8);
    }
}
