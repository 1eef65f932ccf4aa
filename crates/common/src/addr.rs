//! Strongly-typed addresses and page arithmetic.
//!
//! The platform uses three distinct address spaces, which the paper's system
//! keeps carefully apart:
//!
//! * [`PhysAddr`] — physical bus addresses, what the crossbar, LLC, L2 SPM and
//!   DRAM controller see.
//! * [`VirtAddr`] — host (CVA6) virtual addresses managed by the OS page
//!   tables.
//! * [`Iova`] — IO virtual addresses used by the accelerator when the IOMMU is
//!   enabled. In the zero-copy offload flow the IOVA space mirrors the host
//!   virtual space.
//!
//! The newtypes prevent accidental mixing (e.g. handing a host virtual address
//! to the DMA engine without translation) at compile time, which is exactly
//! the class of bug shared-virtual-addressing hardware exists to avoid at run
//! time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// log2 of the page size (4 KiB pages, as used by Sv39 and the RISC-V IOMMU).
pub const PAGE_SHIFT: u64 = 12;

/// Size of a base page in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Mask selecting the offset within a page.
pub const PAGE_OFFSET_MASK: u64 = PAGE_SIZE - 1;

/// Number of bytes in a cache line throughout the platform (CVA6 L1 and the
/// Cheshire last-level cache both use 64-byte lines).
pub const CACHE_LINE_SIZE: u64 = 64;

macro_rules! impl_addr {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(u64);

        impl $name {
            /// Creates an address from a raw 64-bit value.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The zero address.
            pub const fn zero() -> Self {
                Self(0)
            }

            /// Returns the raw 64-bit value.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the address rounded down to `align` (must be a power of two).
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `align` is not a power of two.
            pub const fn align_down(self, align: u64) -> Self {
                debug_assert!(align.is_power_of_two());
                Self(self.0 & !(align - 1))
            }

            /// Returns the address rounded up to `align` (must be a power of two).
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `align` is not a power of two.
            pub const fn align_up(self, align: u64) -> Self {
                debug_assert!(align.is_power_of_two());
                Self((self.0 + align - 1) & !(align - 1))
            }

            /// Returns `true` if the address is aligned to `align`.
            pub const fn is_aligned(self, align: u64) -> bool {
                self.0 & (align - 1) == 0
            }

            /// The 4 KiB page number containing this address.
            pub const fn page_number(self) -> u64 {
                self.0 >> PAGE_SHIFT
            }

            /// The base address of the 4 KiB page containing this address.
            pub const fn page_base(self) -> Self {
                Self(self.0 & !PAGE_OFFSET_MASK)
            }

            /// The byte offset of this address within its 4 KiB page.
            pub const fn page_offset(self) -> u64 {
                self.0 & PAGE_OFFSET_MASK
            }

            /// The base address of the 64-byte cache line containing this address.
            pub const fn cache_line_base(self) -> Self {
                Self(self.0 & !(CACHE_LINE_SIZE - 1))
            }

            /// Byte distance from `self` to `other` (`other - self`).
            ///
            /// # Panics
            ///
            /// Panics if `other < self`.
            pub fn offset_to(self, other: Self) -> u64 {
                other
                    .0
                    .checked_sub(self.0)
                    .expect("offset_to: other address is below self")
            }

            /// Returns the address advanced by `bytes`.
            pub const fn add_bytes(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(addr: $name) -> u64 {
                addr.0
            }
        }

        impl Add<u64> for $name {
            type Output = Self;
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $name {
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<u64> for $name {
            type Output = Self;
            fn sub(self, rhs: u64) -> Self {
                Self(self.0 - rhs)
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;
            fn sub(self, rhs: $name) -> u64 {
                self.0 - rhs.0
            }
        }
    };
}

impl_addr!(
    /// A physical bus address as seen by the crossbar, caches and DRAM
    /// controller.
    PhysAddr
);

impl_addr!(
    /// A host (CVA6) virtual address, translated by the MMU via Sv39 page
    /// tables.
    VirtAddr
);

impl_addr!(
    /// An IO virtual address, translated by the IOMMU via Sv39 page tables.
    ///
    /// In the zero-copy offload model the IOVA space is identical to the host
    /// process' virtual address space, so [`Iova::from_virt`] is a free
    /// conversion.
    Iova
);

impl Iova {
    /// Reinterprets a host virtual address as an IO virtual address.
    ///
    /// In the shared-virtual-addressing model used by the paper, the device
    /// uses the very same virtual addresses as the host process, so this
    /// conversion is the identity.
    pub const fn from_virt(va: VirtAddr) -> Self {
        Self::new(va.raw())
    }
}

impl VirtAddr {
    /// Reinterprets an IO virtual address as a host virtual address.
    pub const fn from_iova(iova: Iova) -> Self {
        Self::new(iova.raw())
    }
}

/// Returns the number of 4 KiB pages needed to cover `bytes` bytes starting at
/// the given offset within a page.
///
/// This matches the way the driver computes how many page-table entries a
/// mapping request needs: a 1-byte buffer crossing a page boundary needs two
/// entries.
pub fn pages_spanned(start_offset: u64, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let first = start_offset >> PAGE_SHIFT;
    let last = (start_offset + bytes - 1) >> PAGE_SHIFT;
    last - first + 1
}

/// An inclusive-exclusive physical address range `[start, end)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PhysRange {
    /// First address in the range.
    pub start: PhysAddr,
    /// One past the last address in the range.
    pub end: PhysAddr,
}

impl PhysRange {
    /// Creates a range from a base address and a length in bytes.
    pub const fn from_base_len(start: PhysAddr, len: u64) -> Self {
        Self {
            start,
            end: PhysAddr::new(start.raw() + len),
        }
    }

    /// Length of the range in bytes.
    pub const fn len(&self) -> u64 {
        self.end.raw() - self.start.raw()
    }

    /// Returns `true` if the range covers no bytes.
    pub const fn is_empty(&self) -> bool {
        self.start.raw() >= self.end.raw()
    }

    /// Returns `true` if `addr` lies inside the range.
    pub const fn contains(&self, addr: PhysAddr) -> bool {
        addr.raw() >= self.start.raw() && addr.raw() < self.end.raw()
    }

    /// Returns `true` if the two ranges share at least one byte.
    pub const fn overlaps(&self, other: &PhysRange) -> bool {
        self.start.raw() < other.end.raw() && other.start.raw() < self.end.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_round_trip() {
        let a = PhysAddr::new(0x8000_1234);
        assert_eq!(a.align_down(PAGE_SIZE), PhysAddr::new(0x8000_1000));
        assert_eq!(a.align_up(PAGE_SIZE), PhysAddr::new(0x8000_2000));
        assert_eq!(a.page_offset(), 0x234);
        assert_eq!(a.page_base(), PhysAddr::new(0x8000_1000));
        assert!(!a.is_aligned(PAGE_SIZE));
        assert!(a.page_base().is_aligned(PAGE_SIZE));
    }

    #[test]
    fn aligned_address_is_fixed_point() {
        let a = PhysAddr::new(0x8000_0000);
        assert_eq!(a.align_up(PAGE_SIZE), a);
        assert_eq!(a.align_down(PAGE_SIZE), a);
    }

    #[test]
    fn cache_line_base() {
        let a = VirtAddr::new(0x1003F);
        assert_eq!(a.cache_line_base(), VirtAddr::new(0x10000));
        let b = VirtAddr::new(0x10040);
        assert_eq!(b.cache_line_base(), VirtAddr::new(0x10040));
    }

    #[test]
    fn pages_spanned_counts_boundary_crossings() {
        assert_eq!(pages_spanned(0, 0), 0);
        assert_eq!(pages_spanned(0, 1), 1);
        assert_eq!(pages_spanned(0, PAGE_SIZE), 1);
        assert_eq!(pages_spanned(0, PAGE_SIZE + 1), 2);
        assert_eq!(pages_spanned(PAGE_SIZE - 1, 2), 2);
        assert_eq!(pages_spanned(1, PAGE_SIZE), 2);
        assert_eq!(pages_spanned(0, 16 * PAGE_SIZE), 16);
    }

    #[test]
    fn iova_mirrors_virtual_address() {
        let va = VirtAddr::new(0x3FFF_F000);
        let iova = Iova::from_virt(va);
        assert_eq!(iova.raw(), va.raw());
        assert_eq!(VirtAddr::from_iova(iova), va);
    }

    #[test]
    fn phys_range_contains_and_overlaps() {
        let r = PhysRange::from_base_len(PhysAddr::new(0x1000), 0x1000);
        assert_eq!(r.len(), 0x1000);
        assert!(!r.is_empty());
        assert!(r.contains(PhysAddr::new(0x1000)));
        assert!(r.contains(PhysAddr::new(0x1FFF)));
        assert!(!r.contains(PhysAddr::new(0x2000)));

        let s = PhysRange::from_base_len(PhysAddr::new(0x1800), 0x1000);
        assert!(r.overlaps(&s));
        let t = PhysRange::from_base_len(PhysAddr::new(0x2000), 0x1000);
        assert!(!r.overlaps(&t));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Iova::new(0x100);
        assert_eq!((a + 0x10).raw(), 0x110);
        assert_eq!((a - 0x10).raw(), 0xF0);
        assert_eq!(Iova::new(0x200) - a, 0x100);
        let mut b = a;
        b += 4;
        assert_eq!(b.raw(), 0x104);
        assert_eq!(a.offset_to(Iova::new(0x180)), 0x80);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", PhysAddr::new(0xdead_beef)), "0xdeadbeef");
        assert_eq!(
            format!("{:?}", PhysAddr::new(0x10)),
            "PhysAddr(0x10)".to_string()
        );
    }
}
