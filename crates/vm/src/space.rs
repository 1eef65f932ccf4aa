//! Process address spaces.
//!
//! An [`AddressSpace`] models the user process that runs the heterogeneous
//! OpenMP application: it owns an Sv39 page table, a virtual-address bump
//! allocator standing in for `malloc`, and the backing physical frames. When
//! shared virtual addressing is used, the accelerator is attached to the very
//! same page table through the IOMMU device context, so the buffers allocated
//! here are directly addressable by the device.

use sva_common::{Error, PhysAddr, Result, VirtAddr, PAGE_SIZE};
use sva_mem::MemorySystem;

use crate::frame::FrameAllocator;
use crate::page_table::{MapStats, PageTable};
use crate::pte::PteFlags;

/// Lowest virtual address handed out to user buffers (keeps the null page
/// and low addresses unmapped, like a real process layout).
const USER_HEAP_BASE: u64 = 0x1000_0000;

/// A user process address space: page table plus a simple `malloc`-style
/// virtual allocator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddressSpace {
    page_table: PageTable,
    heap_next: VirtAddr,
    mapped_pages: u64,
    /// Process address-space identifier (PSCID in the IOMMU device context).
    pscid: u32,
}

/// A buffer allocated in an address space.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct UserBuffer {
    /// Virtual base address (page-aligned).
    pub va: VirtAddr,
    /// Length in bytes as requested by the caller.
    pub len: u64,
}

impl UserBuffer {
    /// Number of pages spanned by the buffer.
    pub const fn pages(&self) -> u64 {
        self.len.div_ceil(PAGE_SIZE)
    }
}

impl AddressSpace {
    /// Creates an address space with a fresh root page table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if the root table cannot be allocated.
    pub fn new(_mem: &mut MemorySystem, frames: &mut FrameAllocator) -> Result<Self> {
        Ok(Self {
            page_table: PageTable::create(frames)?,
            heap_next: VirtAddr::new(USER_HEAP_BASE),
            mapped_pages: 0,
            pscid: 1,
        })
    }

    /// The process' page table (shared with the IOMMU for zero-copy
    /// offloads).
    pub const fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Physical address of the root page table (the value programmed into
    /// `satp` and into the IOMMU device context).
    pub const fn root(&self) -> PhysAddr {
        self.page_table.root()
    }

    /// Process address-space identifier.
    pub const fn pscid(&self) -> u32 {
        self.pscid
    }

    /// Number of user pages currently mapped.
    pub const fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Allocates a virtual buffer of `len` bytes backed by fresh physical
    /// frames (the simulation's `malloc` + first-touch population).
    ///
    /// The backing frames are allocated page-by-page, so consecutive virtual
    /// pages are *not* guaranteed to be physically contiguous — which is
    /// exactly why copy-based offloading needs the separate reserved DRAM
    /// area and why SVA needs per-page translation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if frames are exhausted, or
    /// [`Error::InvalidConfig`] for a zero-length request.
    pub fn alloc_buffer(
        &mut self,
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        len: u64,
    ) -> Result<VirtAddr> {
        if len == 0 {
            return Err(Error::InvalidConfig {
                reason: "cannot allocate a zero-length buffer".to_string(),
            });
        }
        let va = self.heap_next;
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let pa = frames.alloc_frame()?;
            self.page_table
                .map_page(mem, frames, va + i * PAGE_SIZE, pa, PteFlags::user_rw())?;
            self.mapped_pages += 1;
        }
        // Leave a guard page between allocations.
        self.heap_next = va + (pages + 1) * PAGE_SIZE;
        Ok(va)
    }

    /// Translates a virtual address of this process to its physical address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::HostPageFault`] for unmapped addresses.
    pub fn translate(&self, mem: &MemorySystem, va: VirtAddr) -> Result<PhysAddr> {
        self.page_table.translate(mem, va)
    }

    /// Functional read of `buf.len()` bytes at virtual address `va`
    /// (crossing pages as needed).
    ///
    /// # Errors
    ///
    /// Returns [`Error::HostPageFault`] for unmapped addresses.
    pub fn read_virt(&self, mem: &MemorySystem, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.for_each_chunk(mem, va, buf.len() as u64, |mem, pa, range| {
            mem.read_phys(pa, &mut buf[range.0..range.1])
        })
    }

    /// Functional write of `buf` at virtual address `va`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::HostPageFault`] for unmapped addresses.
    pub fn write_virt(&self, mem: &mut MemorySystem, va: VirtAddr, buf: &[u8]) -> Result<()> {
        self.write_chunks(mem, va, buf)
    }

    /// Functional read of a little-endian `f32` at `va`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::HostPageFault`] for unmapped addresses.
    pub fn read_f32(&self, mem: &MemorySystem, va: VirtAddr) -> Result<f32> {
        let mut b = [0u8; 4];
        self.read_virt(mem, va, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    /// Functional write of a little-endian `f32` at `va`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::HostPageFault`] for unmapped addresses.
    pub fn write_f32(&self, mem: &mut MemorySystem, va: VirtAddr, value: f32) -> Result<()> {
        self.write_virt(mem, va, &value.to_le_bytes())
    }

    /// Applies `f` to each physically contiguous chunk of the virtual range.
    fn for_each_chunk<F>(&self, mem: &MemorySystem, va: VirtAddr, len: u64, mut f: F) -> Result<()>
    where
        F: FnMut(&MemorySystem, PhysAddr, (usize, usize)) -> Result<()>,
    {
        let mut done = 0u64;
        while done < len {
            let cur_va = va + done;
            let pa = self.translate(mem, cur_va)?;
            let in_page = PAGE_SIZE - cur_va.page_offset();
            let chunk = (len - done).min(in_page);
            f(mem, pa, (done as usize, (done + chunk) as usize))?;
            done += chunk;
        }
        Ok(())
    }

    /// Maps an explicit virtual→physical range into the process (used by the
    /// driver model for mapping device windows into user space).
    ///
    /// # Errors
    ///
    /// Propagates mapping failures from [`PageTable::map_range`].
    pub fn map_external(
        &mut self,
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        len: u64,
        flags: PteFlags,
    ) -> Result<MapStats> {
        let stats = self.page_table.map_range(mem, frames, va, pa, len, flags)?;
        self.mapped_pages += len.div_ceil(PAGE_SIZE);
        Ok(stats)
    }
}

impl AddressSpace {
    /// Write loop mirroring [`AddressSpace::for_each_chunk`] but with mutable
    /// memory access.
    fn write_chunks(&self, mem: &mut MemorySystem, va: VirtAddr, buf: &[u8]) -> Result<()> {
        let len = buf.len() as u64;
        let mut done = 0u64;
        while done < len {
            let cur_va = va + done;
            let pa = self.translate(mem, cur_va)?;
            let in_page = PAGE_SIZE - cur_va.page_offset();
            let chunk = (len - done).min(in_page);
            mem.write_phys(pa, &buf[done as usize..(done + chunk) as usize])?;
            done += chunk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemorySystem, FrameAllocator, AddressSpace) {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        (mem, frames, space)
    }

    #[test]
    fn buffers_are_page_aligned_and_guarded() {
        let (mut mem, mut frames, mut space) = setup();
        let a = space.alloc_buffer(&mut mem, &mut frames, 100).unwrap();
        let b = space.alloc_buffer(&mut mem, &mut frames, 100).unwrap();
        assert!(a.is_aligned(PAGE_SIZE));
        assert!(b.is_aligned(PAGE_SIZE));
        // One page of data plus one guard page.
        assert_eq!(b - a, 2 * PAGE_SIZE);
        assert_eq!(space.mapped_pages(), 2);
    }

    #[test]
    fn zero_length_allocation_is_rejected() {
        let (mut mem, mut frames, mut space) = setup();
        assert!(space.alloc_buffer(&mut mem, &mut frames, 0).is_err());
    }

    #[test]
    fn virtual_io_roundtrip_across_pages() {
        let (mut mem, mut frames, mut space) = setup();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 3 * PAGE_SIZE)
            .unwrap();
        let data: Vec<u8> = (0..(3 * PAGE_SIZE) as usize)
            .map(|i| (i % 253) as u8)
            .collect();
        space.write_virt(&mut mem, va, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        space.read_virt(&mem, va, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn f32_accessors() {
        let (mut mem, mut frames, mut space) = setup();
        let va = space.alloc_buffer(&mut mem, &mut frames, 64).unwrap();
        space.write_f32(&mut mem, va + 8, 1.25).unwrap();
        assert_eq!(space.read_f32(&mem, va + 8).unwrap(), 1.25);
    }

    #[test]
    fn unmapped_access_faults() {
        let (mem, _frames, space) = setup();
        let mut buf = [0u8; 4];
        assert!(matches!(
            space.read_virt(&mem, VirtAddr::new(0x9999_0000), &mut buf),
            Err(Error::HostPageFault { .. })
        ));
    }

    #[test]
    fn translation_matches_mapping() {
        let (mut mem, mut frames, mut space) = setup();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 2 * PAGE_SIZE)
            .unwrap();
        let pa0 = space.translate(&mem, va).unwrap();
        let pa1 = space.translate(&mem, va + PAGE_SIZE).unwrap();
        assert!(mem.map().is_dram(pa0));
        assert!(mem.map().is_dram(pa1));
        assert_ne!(pa0, pa1);
        // Offsets within a page are preserved.
        assert_eq!(space.translate(&mem, va + 5).unwrap(), pa0 + 5);
    }

    #[test]
    fn map_external_window() {
        let (mut mem, mut frames, mut space) = setup();
        let target = PhysAddr::new(0x8000_0000 + 0x10_0000);
        let va = VirtAddr::new(0x2000_0000);
        space
            .map_external(
                &mut mem,
                &mut frames,
                va,
                target,
                PAGE_SIZE,
                PteFlags::user_rw(),
            )
            .unwrap();
        assert_eq!(space.translate(&mem, va).unwrap(), target);
    }
}
