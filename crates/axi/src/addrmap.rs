//! SoC address map and the LLC-bypass address remapping.
//!
//! The prototype platform (Figure 1 of the paper) exposes DRAM twice on the
//! bus: once through the last-level cache and once through a *bypass* alias
//! produced by a demux/mux pair around the LLC. The two windows map to the
//! same DRAM cells but differ by a fixed address offset; device DMA uses the
//! bypass window so long bursts are not broken into cache-line refills and do
//! not evict host data, while host and IOMMU page-table-walk traffic use the
//! cached window. The reserved upper half of DRAM (used for physically
//! contiguous copy-based offload buffers) is likewise uncached.

use sva_common::{Error, PhysAddr, Result, GIB, KIB, MIB};

/// Base bus address of DRAM through the cached (LLC) path.
pub const DRAM_BASE: u64 = 0x8000_0000;

/// Size of the off-chip DRAM (2 GiB on the VCU128 prototype).
pub const DRAM_SIZE: u64 = 2 * GIB;

/// Offset added to a DRAM bus address to reach the same DRAM cells through
/// the LLC-bypass window (`LLC_BYPASS_OFFSET` in Listing 1 of the paper).
pub const LLC_BYPASS_OFFSET: u64 = 0x40_0000_0000;

/// Base bus address of the on-chip L2 scratchpad (1 MiB, physically
/// addressed, never cached).
pub const L2_SPM_BASE: u64 = 0x7800_0000;

/// Size of the on-chip L2 scratchpad.
pub const L2_SPM_SIZE: u64 = MIB;

/// Base address of the Snitch cluster's TCDM/peripheral window as seen from
/// the host.
pub const CLUSTER_BASE: u64 = 0x5000_0000;

/// Size of the cluster window (TCDM + peripherals).
pub const CLUSTER_SIZE: u64 = 2 * MIB;

/// Base address of the IOMMU programming interface (memory-mapped registers).
pub const IOMMU_REGS_BASE: u64 = 0x5100_0000;

/// Size of the IOMMU register window.
pub const IOMMU_REGS_SIZE: u64 = 4 * KIB;

/// Classification of a decoded bus address.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// DRAM through the LLC (host and PTW traffic).
    DramCached,
    /// DRAM through the bypass window (device DMA traffic).
    DramBypass,
    /// On-chip L2 scratchpad memory.
    L2Spm,
    /// Snitch cluster TCDM / peripherals (host-initiated accesses).
    Cluster,
    /// IOMMU register file.
    IommuRegs,
}

impl RegionKind {
    /// Returns `true` if accesses to this region may allocate in the LLC.
    pub const fn is_llc_cacheable(self) -> bool {
        matches!(self, RegionKind::DramCached)
    }

    /// Returns `true` if the region is backed by DRAM cells (either window).
    pub const fn is_dram(self) -> bool {
        matches!(self, RegionKind::DramCached | RegionKind::DramBypass)
    }
}

/// A named window in the bus address space.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// What the window decodes to.
    pub kind: RegionKind,
    /// First bus address of the window.
    pub base: PhysAddr,
    /// Size of the window in bytes.
    pub size: u64,
}

impl Region {
    /// Returns `true` if `addr` falls inside the window.
    pub const fn contains(&self, addr: PhysAddr) -> bool {
        addr.raw() >= self.base.raw() && addr.raw() < self.base.raw() + self.size
    }

    /// Offset of `addr` from the start of the window.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is not inside the window.
    pub fn offset_of(&self, addr: PhysAddr) -> u64 {
        debug_assert!(self.contains(addr));
        addr.raw() - self.base.raw()
    }
}

/// The result of decoding a bus address.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Decoded {
    /// Kind of the matched window.
    pub kind: RegionKind,
    /// Byte offset into the backing resource. For both DRAM windows this is
    /// the offset into the *same* DRAM array, so cached and bypass accesses
    /// to the same cells decode to the same offset.
    pub offset: u64,
}

/// The LLC demux/mux pair: translates between the cached and bypass DRAM
/// windows.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BypassRemap {
    offset: u64,
}

impl BypassRemap {
    /// Creates the remapper with the platform's fixed bypass offset.
    pub const fn new() -> Self {
        Self {
            offset: LLC_BYPASS_OFFSET,
        }
    }

    /// The fixed offset between the two windows.
    pub const fn offset(&self) -> u64 {
        self.offset
    }

    /// Remaps a cached-window DRAM address to the bypass window (what the
    /// host does when handing buffer addresses to the device, Listing 1).
    pub const fn to_bypass(&self, addr: PhysAddr) -> PhysAddr {
        PhysAddr::new(addr.raw() + self.offset)
    }

    /// Remaps a bypass-window address back to the cached window.
    pub const fn from_bypass(&self, addr: PhysAddr) -> PhysAddr {
        PhysAddr::new(addr.raw() - self.offset)
    }

    /// Returns `true` if `addr` lies in the bypass window.
    pub const fn is_bypass(&self, addr: PhysAddr) -> bool {
        addr.raw() >= DRAM_BASE + self.offset && addr.raw() < DRAM_BASE + self.offset + DRAM_SIZE
    }
}

impl Default for BypassRemap {
    fn default() -> Self {
        Self::new()
    }
}

/// The full SoC address map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddressMap {
    regions: Vec<Region>,
    remap: BypassRemap,
    /// Offset into DRAM above which buffers are reserved for physically
    /// contiguous DMA allocations (uncached by the LLC). The paper reserves
    /// the upper half of the 2 GiB DRAM.
    reserved_dram_offset: u64,
}

impl AddressMap {
    /// Builds the prototype platform's address map.
    pub fn prototype() -> Self {
        let remap = BypassRemap::new();
        let regions = vec![
            Region {
                kind: RegionKind::DramCached,
                base: PhysAddr::new(DRAM_BASE),
                size: DRAM_SIZE,
            },
            Region {
                kind: RegionKind::DramBypass,
                base: PhysAddr::new(DRAM_BASE + remap.offset()),
                size: DRAM_SIZE,
            },
            Region {
                kind: RegionKind::L2Spm,
                base: PhysAddr::new(L2_SPM_BASE),
                size: L2_SPM_SIZE,
            },
            Region {
                kind: RegionKind::Cluster,
                base: PhysAddr::new(CLUSTER_BASE),
                size: CLUSTER_SIZE,
            },
            Region {
                kind: RegionKind::IommuRegs,
                base: PhysAddr::new(IOMMU_REGS_BASE),
                size: IOMMU_REGS_SIZE,
            },
        ];
        Self {
            regions,
            remap,
            reserved_dram_offset: DRAM_SIZE / 2,
        }
    }

    /// The demux/mux remapper of this map.
    pub const fn remap(&self) -> &BypassRemap {
        &self.remap
    }

    /// The regions of the map, in decode priority order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Bus address of the first byte of the DRAM range reserved for
    /// physically contiguous DMA buffers (copy-based offload).
    pub const fn reserved_dram_base(&self) -> PhysAddr {
        PhysAddr::new(DRAM_BASE + self.reserved_dram_offset)
    }

    /// Size in bytes of the reserved contiguous DMA area.
    pub const fn reserved_dram_size(&self) -> u64 {
        DRAM_SIZE - self.reserved_dram_offset
    }

    /// Decodes a bus address into a region kind and an offset into the
    /// backing resource.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BusDecodeError`] if no window matches, mirroring the
    /// AXI decode error a real crossbar would raise.
    pub fn decode(&self, addr: PhysAddr) -> Result<Decoded> {
        for region in &self.regions {
            if region.contains(addr) {
                return Ok(Decoded {
                    kind: region.kind,
                    offset: region.offset_of(addr),
                });
            }
        }
        Err(Error::BusDecodeError { addr })
    }

    /// Returns `true` if an access to `addr` may allocate in the LLC.
    ///
    /// Accesses through the bypass window and accesses to the reserved
    /// contiguous DMA area are never cached; everything else in DRAM is.
    pub fn is_llc_cacheable(&self, addr: PhysAddr) -> bool {
        match self.decode(addr) {
            Ok(Decoded {
                kind: RegionKind::DramCached,
                offset,
            }) => offset < self.reserved_dram_offset,
            _ => false,
        }
    }

    /// Returns `true` if `addr` (in either DRAM window) refers to DRAM cells.
    pub fn is_dram(&self, addr: PhysAddr) -> bool {
        matches!(self.decode(addr), Ok(d) if d.kind.is_dram())
    }
}

impl Default for AddressMap {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_each_region() {
        let map = AddressMap::prototype();
        assert_eq!(
            map.decode(PhysAddr::new(DRAM_BASE)).unwrap().kind,
            RegionKind::DramCached
        );
        assert_eq!(
            map.decode(PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x40))
                .unwrap()
                .kind,
            RegionKind::DramBypass
        );
        assert_eq!(
            map.decode(PhysAddr::new(L2_SPM_BASE + 128)).unwrap().kind,
            RegionKind::L2Spm
        );
        assert_eq!(
            map.decode(PhysAddr::new(CLUSTER_BASE)).unwrap().kind,
            RegionKind::Cluster
        );
        assert_eq!(
            map.decode(PhysAddr::new(IOMMU_REGS_BASE + 8)).unwrap().kind,
            RegionKind::IommuRegs
        );
    }

    #[test]
    fn decode_error_outside_map() {
        let map = AddressMap::prototype();
        assert!(matches!(
            map.decode(PhysAddr::new(0x10)),
            Err(Error::BusDecodeError { .. })
        ));
    }

    #[test]
    fn cached_and_bypass_windows_share_offsets() {
        let map = AddressMap::prototype();
        let cached = PhysAddr::new(DRAM_BASE + 0x1234_5678);
        let bypass = map.remap().to_bypass(cached);
        let dc = map.decode(cached).unwrap();
        let db = map.decode(bypass).unwrap();
        assert_eq!(dc.offset, db.offset);
        assert_eq!(dc.kind, RegionKind::DramCached);
        assert_eq!(db.kind, RegionKind::DramBypass);
        assert_eq!(map.remap().from_bypass(bypass), cached);
        assert!(map.remap().is_bypass(bypass));
        assert!(!map.remap().is_bypass(cached));
    }

    #[test]
    fn cacheability_rules() {
        let map = AddressMap::prototype();
        // Linux half of DRAM through the cached window: cacheable.
        assert!(map.is_llc_cacheable(PhysAddr::new(DRAM_BASE + 0x100)));
        // Reserved contiguous area: not cacheable even through the cached window.
        assert!(!map.is_llc_cacheable(map.reserved_dram_base()));
        // Bypass window: never cacheable.
        assert!(!map.is_llc_cacheable(PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET)));
        // SPM: never cacheable.
        assert!(!map.is_llc_cacheable(PhysAddr::new(L2_SPM_BASE)));
    }

    #[test]
    fn dram_predicate_covers_both_windows() {
        let map = AddressMap::prototype();
        assert!(map.is_dram(PhysAddr::new(DRAM_BASE)));
        assert!(map.is_dram(PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET)));
        assert!(!map.is_dram(PhysAddr::new(L2_SPM_BASE)));
        assert!(!map.is_dram(PhysAddr::new(0x0)));
    }

    #[test]
    fn reserved_area_is_upper_half() {
        let map = AddressMap::prototype();
        assert_eq!(map.reserved_dram_base(), PhysAddr::new(DRAM_BASE + GIB));
        assert_eq!(map.reserved_dram_size(), GIB);
    }
}
