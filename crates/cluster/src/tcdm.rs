//! The tightly-coupled data memory (TCDM) of the Snitch cluster.
//!
//! The TCDM is the cluster's L1 working memory: a banked SRAM the PEs access
//! with single-cycle latency and the DMA engine fills from DRAM. Kernels are
//! tiled so that the working set of one tile (double-buffered) fits here; the
//! model therefore provides both functional storage (so kernels really
//! compute on the data the DMA engine moved) and a simple bump allocator used
//! by kernel implementations to lay out their tile buffers.

use sva_common::{Error, Result, KIB};

/// Default TCDM capacity of the evaluated cluster (128 KiB).
pub const DEFAULT_TCDM_BYTES: u64 = 128 * KIB;

/// The cluster's L1 scratchpad.
#[derive(Clone, Debug)]
pub struct Tcdm {
    data: Vec<u8>,
}

impl Tcdm {
    /// Creates a zero-initialised TCDM of `bytes` bytes.
    pub fn new(bytes: u64) -> Self {
        Self {
            data: vec![0u8; bytes as usize],
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    fn check(&self, offset: u64, len: u64) -> Result<()> {
        if offset + len > self.capacity() {
            return Err(Error::TcdmOverflow {
                requested: offset + len,
                available: self.capacity(),
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check(offset, buf.len() as u64)?;
        buf.copy_from_slice(&self.data[offset as usize..offset as usize + buf.len()]);
        Ok(())
    }

    /// Writes `buf` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn write(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        self.check(offset, buf.len() as u64)?;
        self.data[offset as usize..offset as usize + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Reads a little-endian `f32` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access is out of bounds (kernel tile layouts are static,
    /// so an out-of-bounds access is a programming error, not a data error).
    // The workspace has no LTO: without the hint every kernel element access
    // is an out-of-line cross-crate call whose speed depends on where the
    // linker happens to place it.
    #[inline]
    pub fn read_f32(&self, offset: u64) -> f32 {
        let o = offset as usize;
        f32::from_le_bytes(self.data[o..o + 4].try_into().expect("4-byte slice"))
    }

    /// Writes a little-endian `f32` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access is out of bounds.
    #[inline]
    pub fn write_f32(&mut self, offset: u64, value: f32) {
        let o = offset as usize;
        self.data[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a slice of `f32` starting at `offset`: one bounds check, then a
    /// chunked little-endian conversion over the raw bytes (no per-element
    /// indexing).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn read_f32_slice(&self, offset: u64, out: &mut [f32]) -> Result<()> {
        let bytes = (out.len() * 4) as u64;
        self.check(offset, bytes)?;
        let base = offset as usize;
        let src = &self.data[base..base + out.len() * 4];
        for (v, c) in out.iter_mut().zip(src.chunks_exact(4)) {
            *v = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        }
        Ok(())
    }

    /// Writes a slice of `f32` starting at `offset`: one bounds check, then a
    /// chunked little-endian conversion into the raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn write_f32_slice(&mut self, offset: u64, values: &[f32]) -> Result<()> {
        let bytes = (values.len() * 4) as u64;
        self.check(offset, bytes)?;
        let base = offset as usize;
        let dst = &mut self.data[base..base + values.len() * 4];
        for (c, v) in dst.chunks_exact_mut(4).zip(values.iter()) {
            c.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// Clears the contents to zero.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

impl Default for Tcdm {
    fn default() -> Self {
        Self::new(DEFAULT_TCDM_BYTES)
    }
}

/// A bump allocator for laying out tile buffers inside the TCDM.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TcdmAllocator {
    next: u64,
    capacity: u64,
}

impl TcdmAllocator {
    /// Creates an allocator over a TCDM of `capacity` bytes.
    pub const fn new(capacity: u64) -> Self {
        Self { next: 0, capacity }
    }

    /// Allocates `bytes` bytes aligned to 8 bytes, returning the offset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the allocation does not fit.
    pub fn alloc(&mut self, bytes: u64) -> Result<u64> {
        let base = (self.next + 7) & !7;
        if base + bytes > self.capacity {
            return Err(Error::TcdmOverflow {
                requested: base + bytes,
                available: self.capacity,
            });
        }
        self.next = base + bytes;
        Ok(base)
    }

    /// Bytes still available.
    pub const fn remaining(&self) -> u64 {
        self.capacity - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_is_128k() {
        assert_eq!(Tcdm::default().capacity(), 128 * KIB);
    }

    #[test]
    fn byte_and_f32_roundtrip() {
        let mut t = Tcdm::new(1024);
        t.write(10, &[1, 2, 3]).unwrap();
        let mut b = [0u8; 3];
        t.read(10, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3]);

        t.write_f32(100, -2.5);
        assert_eq!(t.read_f32(100), -2.5);

        let vals = [1.0f32, 2.0, 3.0, 4.0];
        t.write_f32_slice(200, &vals).unwrap();
        let mut back = [0f32; 4];
        t.read_f32_slice(200, &mut back).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn overflow_is_reported() {
        let mut t = Tcdm::new(64);
        assert!(t.write(60, &[0u8; 8]).is_err());
        let mut b = [0u8; 8];
        assert!(t.read(60, &mut b).is_err());
        assert!(t.write_f32_slice(0, &[0.0; 17]).is_err());
    }

    #[test]
    fn allocator_aligns_and_tracks_capacity() {
        let mut a = TcdmAllocator::new(128);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(16).unwrap();
        assert_eq!(x, 0);
        assert_eq!(y, 16); // 10 rounded up to 16
        assert_eq!(a.remaining(), 128 - 32);
        assert!(a.alloc(200).is_err());
    }

    #[test]
    fn clear_resets_contents() {
        let mut t = Tcdm::new(64);
        t.write_f32(0, 5.0);
        t.clear();
        assert_eq!(t.read_f32(0), 0.0);
    }
}
