//! The device directory table (DDT) and device contexts.
//!
//! The RISC-V IOMMU locates per-device translation state through an in-memory
//! device directory indexed by the device ID presented on the bus. Each
//! device context holds the first-stage context (the root of the Sv39 page
//! table shared with the host process), the process ID (PSCID) and control
//! bits. The prototype uses a single-level DDT and caches **one** device
//! context inside the IOMMU — enough for the one (device, process) pair of
//! the evaluation — so only the first translation after an invalidation pays
//! the directory walk.

use sva_common::stats::HitMiss;
use sva_common::{Cycles, Error, InitiatorId, PhysAddr, Result, PAGE_SHIFT};
use sva_mem::{MemReq, MemorySystem};
use sva_vm::FrameAllocator;

/// Size of one device-context slot in the directory, in bytes.
pub const DEVICE_CONTEXT_BYTES: u64 = 64;

/// A decoded device context.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DeviceContext {
    /// Valid bit of the context.
    pub valid: bool,
    /// If set, translation is bypassed for this device (used for the
    /// instruction-fetch device ID in the paper's platform).
    pub bypass: bool,
    /// Process soft-context ID (PSCID) of the owning process.
    pub pscid: u32,
    /// Physical address of the root page table (first-stage context).
    pub root_pt: PhysAddr,
}

impl DeviceContext {
    /// An invalid (empty) context.
    pub const fn invalid() -> Self {
        Self {
            valid: false,
            bypass: false,
            pscid: 0,
            root_pt: PhysAddr::zero(),
        }
    }

    /// Creates a translating context for a process page table.
    pub const fn translating(pscid: u32, root_pt: PhysAddr) -> Self {
        Self {
            valid: true,
            bypass: false,
            pscid,
            root_pt,
        }
    }

    /// Creates a bypass context (no translation, e.g. for instruction
    /// fetches from the physically addressed L2).
    pub const fn bypassing() -> Self {
        Self {
            valid: true,
            bypass: true,
            pscid: 0,
            root_pt: PhysAddr::zero(),
        }
    }

    /// Encodes the context into the three 64-bit words stored in memory
    /// (translation control, first-stage context, translation attributes).
    pub fn encode(&self) -> [u64; 3] {
        let tc = (self.valid as u64) | ((self.bypass as u64) << 1);
        let fsc = (self.root_pt.raw() >> PAGE_SHIFT) | (8 << 60); // mode 8 = Sv39
        let ta = (self.pscid as u64) << 12;
        [tc, fsc, ta]
    }

    /// Decodes a context from its in-memory representation.
    pub fn decode(words: [u64; 3]) -> Self {
        Self {
            valid: words[0] & 1 == 1,
            bypass: words[0] & 2 == 2,
            pscid: ((words[2] >> 12) & 0xF_FFFF) as u32,
            root_pt: PhysAddr::new((words[1] & ((1 << 44) - 1)) << PAGE_SHIFT),
        }
    }
}

/// The in-memory device directory plus the IOMMU's single-entry device
/// context cache.
#[derive(Clone, Debug)]
pub struct DeviceDirectory {
    base: PhysAddr,
    capacity: u32,
    cache: Option<(u32, DeviceContext)>,
    cache_stats: HitMiss,
    installed: Vec<u32>,
}

impl DeviceDirectory {
    /// Allocates a one-page, single-level directory in simulated memory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if the backing frame cannot be
    /// allocated.
    pub fn create(frames: &mut FrameAllocator) -> Result<Self> {
        let base = frames.alloc_frame()?;
        Ok(Self::from_base(base))
    }

    /// Wraps an existing directory page.
    pub const fn from_base(base: PhysAddr) -> Self {
        Self {
            base,
            capacity: (4096 / DEVICE_CONTEXT_BYTES) as u32,
            cache: None,
            cache_stats: HitMiss::new(),
            installed: Vec::new(),
        }
    }

    /// Device IDs with an installed context, in ascending order.
    pub fn device_ids(&self) -> &[u32] {
        &self.installed
    }

    /// Physical base address of the directory (what `ddtp` points at).
    pub const fn base(&self) -> PhysAddr {
        self.base
    }

    /// Number of device contexts the single-level directory can hold.
    pub const fn capacity(&self) -> u32 {
        self.capacity
    }

    fn slot_addr(&self, device_id: u32) -> Result<PhysAddr> {
        if device_id >= self.capacity {
            return Err(Error::UnknownDevice { device_id });
        }
        Ok(self.base + device_id as u64 * DEVICE_CONTEXT_BYTES)
    }

    /// Writes a device context into the directory (performed by the host
    /// driver; functional only, the driver model accounts for the stores).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] if `device_id` exceeds the directory
    /// capacity.
    pub fn install(
        &mut self,
        mem: &mut MemorySystem,
        device_id: u32,
        ctx: DeviceContext,
    ) -> Result<()> {
        let slot = self.slot_addr(device_id)?;
        for (i, w) in ctx.encode().into_iter().enumerate() {
            mem.write_u64_phys(slot + i as u64 * 8, w)?;
        }
        // The driver must invalidate the DDT cache (IODIR.INVAL_DDT); model
        // the hardware-visible effect here, the command itself is issued by
        // the driver through the command queue.
        self.cache = None;
        if let Err(pos) = self.installed.binary_search(&device_id) {
            self.installed.insert(pos, device_id);
        }
        Ok(())
    }

    /// Looks up the device context for `device_id`, using the single-entry
    /// cache and falling back to timed directory reads on the PTW port,
    /// issued back to back starting at global-clock cycle `now` (the
    /// arrival of the translation performing the lookup).
    ///
    /// Returns the context and the cycles spent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] for out-of-range or invalid contexts.
    pub fn lookup(
        &mut self,
        mem: &mut MemorySystem,
        device_id: u32,
        now: Cycles,
    ) -> Result<(DeviceContext, Cycles)> {
        if let Some((cached_id, ctx)) = self.cache {
            if cached_id == device_id {
                self.cache_stats.hit();
                return Ok((ctx, Cycles::new(1)));
            }
        }
        self.cache_stats.miss();
        let slot = self.slot_addr(device_id)?;
        let mut words = [0u64; 3];
        let mut cycles = Cycles::ZERO;
        for (i, w) in words.iter_mut().enumerate() {
            let mut buf = [0u8; 8];
            let rsp = mem.access(
                MemReq::read(InitiatorId::Ptw, slot + i as u64 * 8, &mut buf).at(now + cycles),
            )?;
            *w = u64::from_le_bytes(buf);
            cycles += rsp.latency();
        }
        let ctx = DeviceContext::decode(words);
        if !ctx.valid {
            return Err(Error::UnknownDevice { device_id });
        }
        self.cache = Some((device_id, ctx));
        Ok((ctx, cycles))
    }

    /// Untimed, side-effect-free context lookup: decodes the directory slot
    /// straight from functional memory without touching the device-context
    /// cache or its statistics. Used by functional inspection paths
    /// (`Iommu::probe_translation`); like every `probe`/`peek` entry point
    /// of this crate it is invisible to the timing model and the
    /// accounting by contract (see the crate-level "Untimed probes"
    /// section in `crate::iommu`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] for out-of-range or invalid contexts.
    pub fn peek(&self, mem: &MemorySystem, device_id: u32) -> Result<DeviceContext> {
        let slot = self.slot_addr(device_id)?;
        let mut words = [0u64; 3];
        for (i, w) in words.iter_mut().enumerate() {
            *w = mem.read_u64_phys(slot + i as u64 * 8)?;
        }
        let ctx = DeviceContext::decode(words);
        if !ctx.valid {
            return Err(Error::UnknownDevice { device_id });
        }
        Ok(ctx)
    }

    /// Drops the device-context cache (the `IODIR.INVAL_DDT` command).
    pub fn invalidate_cache(&mut self) {
        self.cache = None;
    }

    /// Hit/miss statistics of the device-context cache.
    pub const fn cache_stats(&self) -> HitMiss {
        self.cache_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = DeviceContext::translating(7, PhysAddr::new(0x8123_4000));
        let back = DeviceContext::decode(ctx.encode());
        assert_eq!(back, ctx);

        let bypass = DeviceContext::bypassing();
        assert_eq!(DeviceContext::decode(bypass.encode()), bypass);

        let invalid = DeviceContext::invalid();
        assert!(!DeviceContext::decode(invalid.encode()).valid);
    }

    #[test]
    fn install_then_lookup_uses_cache() {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut ddt = DeviceDirectory::create(&mut frames).unwrap();
        let ctx = DeviceContext::translating(3, PhysAddr::new(0x8800_0000));
        ddt.install(&mut mem, 1, ctx).unwrap();

        let (c1, t1) = ddt.lookup(&mut mem, 1, Cycles::ZERO).unwrap();
        assert_eq!(c1, ctx);
        assert!(t1.raw() > 100, "first lookup walks memory: {t1}");

        let (c2, t2) = ddt.lookup(&mut mem, 1, Cycles::ZERO).unwrap();
        assert_eq!(c2, ctx);
        assert_eq!(t2, Cycles::new(1), "second lookup hits the DC cache");
        assert_eq!(ddt.cache_stats().hits, 1);
        assert_eq!(ddt.cache_stats().misses, 1);
    }

    #[test]
    fn unknown_and_invalid_devices_fault() {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut ddt = DeviceDirectory::create(&mut frames).unwrap();
        // Never installed: context decodes as invalid.
        assert!(matches!(
            ddt.lookup(&mut mem, 2, Cycles::ZERO),
            Err(Error::UnknownDevice { device_id: 2 })
        ));
        // Out of range.
        assert!(ddt.lookup(&mut mem, 10_000, Cycles::ZERO).is_err());
    }

    #[test]
    fn install_invalidates_cache() {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut ddt = DeviceDirectory::create(&mut frames).unwrap();
        ddt.install(
            &mut mem,
            1,
            DeviceContext::translating(1, PhysAddr::new(0x8000_1000)),
        )
        .unwrap();
        ddt.lookup(&mut mem, 1, Cycles::ZERO).unwrap();
        // Re-installing with a new root must not serve the stale cached copy.
        let new_ctx = DeviceContext::translating(1, PhysAddr::new(0x8000_2000));
        ddt.install(&mut mem, 1, new_ctx).unwrap();
        let (c, _) = ddt.lookup(&mut mem, 1, Cycles::ZERO).unwrap();
        assert_eq!(c.root_pt, PhysAddr::new(0x8000_2000));
    }
}
