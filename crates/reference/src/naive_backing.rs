//! The retained hash-map sparse-store engine, kept as the executable
//! reference for the direct-map [`SparseMemory`](sva_mem::SparseMemory).
//!
//! This is the original per-frame `HashMap` engine verbatim: every touched
//! frame costs a hash probe and every access runs the generic byte-chunk
//! loop (the typed accessors are thin wrappers over it, exactly as they
//! were). The one deliberate deviation from the old code is the shared
//! **spec fix** to [`NaiveSparseMemory::fill`]: zero-filling an absent frame
//! is a no-op on both engines (absent frames already read as zero), so the
//! resident-frame accounting the lockstep suite compares agrees by
//! construction rather than by accident.
//!
//! The lockstep property suite (`crates/mem/tests/backing_identity.rs`)
//! drives randomized operation sequences through both engines and asserts
//! every observable — read-back bytes, typed values, error outcomes and
//! resident-frame counts — is identical; the `simspeed` stress points
//! `backing_stream` and `backing_scatter` twin-run the engines under a
//! digest cross-check and gate the direct-map store's speedup.

use std::collections::HashMap;

use sva_common::{Error, Result, PAGE_SIZE};

/// Frame-granular sparse byte store of a fixed capacity, backed by a
/// per-frame hash map (the linear reference engine).
#[derive(Clone, Debug, Default)]
pub struct NaiveSparseMemory {
    frames: HashMap<u64, Box<[u8]>>,
    capacity: u64,
}

impl NaiveSparseMemory {
    /// Creates a store covering offsets `0..capacity`.
    pub fn new(capacity: u64) -> Self {
        Self {
            frames: HashMap::new(),
            capacity,
        }
    }

    /// Capacity in bytes.
    pub const fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of frames that have been touched (allocated) so far.
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// Resident (allocated) bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.frames.len() as u64 * PAGE_SIZE
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(Error::OutOfBounds {
                addr: sva_common::PhysAddr::new(offset),
                len,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_range(offset, buf.len() as u64)?;
        let mut done = 0usize;
        while done < buf.len() {
            let cur = offset + done as u64;
            let frame = cur / PAGE_SIZE;
            let in_frame = (cur % PAGE_SIZE) as usize;
            let chunk = (buf.len() - done).min(PAGE_SIZE as usize - in_frame);
            match self.frames.get(&frame) {
                Some(data) => {
                    buf[done..done + chunk].copy_from_slice(&data[in_frame..in_frame + chunk]);
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
        Ok(())
    }

    /// Writes `buf` starting at `offset`, allocating frames as needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn write(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        self.check_range(offset, buf.len() as u64)?;
        let mut done = 0usize;
        while done < buf.len() {
            let cur = offset + done as u64;
            let frame = cur / PAGE_SIZE;
            let in_frame = (cur % PAGE_SIZE) as usize;
            let chunk = (buf.len() - done).min(PAGE_SIZE as usize - in_frame);
            let data = self
                .frames
                .entry(frame)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            data[in_frame..in_frame + chunk].copy_from_slice(&buf[done..done + chunk]);
            done += chunk;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `offset` through the generic chunk
    /// loop (no single-frame fast path — this is the reference cost).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn read_u64(&self, offset: u64) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn write_u64(&mut self, offset: u64, value: u64) -> Result<u64> {
        self.write(offset, &value.to_le_bytes())?;
        Ok(value)
    }

    /// Reads a little-endian `f32` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn read_f32(&self, offset: u64) -> Result<f32> {
        let mut b = [0u8; 4];
        self.read(offset, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    /// Writes a little-endian `f32` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn write_f32(&mut self, offset: u64, value: f32) -> Result<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Fills `len` bytes starting at `offset` with `value`. Zero-filling an
    /// absent frame is a no-op (the shared spec fix — see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn fill(&mut self, offset: u64, len: u64, value: u8) -> Result<()> {
        self.check_range(offset, len)?;
        let mut done = 0u64;
        while done < len {
            let cur = offset + done;
            let frame = cur / PAGE_SIZE;
            let in_frame = (cur % PAGE_SIZE) as usize;
            let n = ((len - done) as usize).min(PAGE_SIZE as usize - in_frame);
            if value != 0 || self.frames.contains_key(&frame) {
                let data = self
                    .frames
                    .entry(frame)
                    .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
                data[in_frame..in_frame + n].fill(value);
            }
            done += n as u64;
        }
        Ok(())
    }

    /// Drops all contents, returning the store to the all-zero state.
    pub fn clear(&mut self) {
        self.frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_engine_roundtrip_and_zero_fill_no_op() {
        let mut mem = NaiveSparseMemory::new(1 << 20);
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        mem.write(PAGE_SIZE - 100, &data).unwrap();
        let mut back = vec![0u8; 10_000];
        mem.read(PAGE_SIZE - 100, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(mem.resident_frames(), 4);
        mem.clear();
        mem.fill(0, 1 << 20, 0).unwrap();
        assert_eq!(mem.resident_frames(), 0, "spec fix applies to the twin");
        mem.write_u64(8, 0x77).unwrap();
        assert_eq!(mem.read_u64(8).unwrap(), 0x77);
        assert!(mem.read_u64((1 << 20) - 4).is_err());
    }
}
