//! Sparse functional byte storage.
//!
//! The simulated platform exposes a 2 GiB DRAM and a 1 MiB scratchpad, but a
//! benchmark run only ever touches a few megabytes of them. [`SparseMemory`]
//! stores contents in 4 KiB frames allocated on first touch so the simulator
//! never reserves the full address space. Unwritten bytes read as zero,
//! matching zero-initialised DRAM on the FPGA after the bitstream is loaded.
//!
//! The store is a **direct-map frame table**: frame index = `offset >> 12`
//! into a lazily grown `Vec<Option<Box<[u8]>>>`, so touching a frame is one
//! bounds-checked vector index instead of the former per-frame hash (the
//! hash engine lives on in the dev-only `sva_reference` crate, the
//! executable reference the lockstep suite
//! `crates/mem/tests/backing_identity.rs` twin-runs against). A
//! generation-tagged last-frame memo carries cross-call locality
//! — a sequential DMA burst touches the same frame for 64 beats in a row —
//! and the typed accessors ([`SparseMemory::read_u64`] & friends) take a
//! single-frame fast path whenever the access does not straddle a frame
//! boundary, which holds for every aligned PTE fetch, page-table write and
//! kernel element access.

use std::cell::Cell;

use sva_common::{Error, Result, PAGE_SIZE};

/// Frame index of an offset (`offset >> 12`).
const FRAME_SHIFT: u32 = PAGE_SIZE.trailing_zeros();

/// Offset within a frame (`offset & 0xFFF`).
const FRAME_MASK: u64 = PAGE_SIZE - 1;

/// The last-frame memo: remembers the presence of the most recently probed
/// frame so a run of accesses to the same frame (sequential DMA beats,
/// back-to-back PTE fetches into one table page) skips re-probing the frame
/// table. Tagged with the store's generation so [`SparseMemory::clear`]
/// invalidates it wholesale.
#[derive(Copy, Clone, Debug)]
struct FrameMemo {
    /// Generation of the store this memo was taken in.
    generation: u64,
    /// The memoised frame index.
    frame: u64,
    /// Whether that frame was resident. Frames never *become* absent except
    /// through [`SparseMemory::clear`] (which bumps the generation), so a
    /// `true` memo stays true; a `false` memo is refreshed by the write that
    /// materialises the frame.
    present: bool,
}

/// Frame-granular sparse byte store of a fixed capacity, laid out as a
/// direct-map frame table.
#[derive(Clone, Debug)]
pub struct SparseMemory {
    /// Direct-map frame table, grown lazily to the highest written frame.
    /// Absent (`None`) and beyond-the-end frames read as zero.
    frames: Vec<Option<Box<[u8]>>>,
    /// Number of resident (allocated) frames.
    resident: usize,
    capacity: u64,
    /// Bumped by [`SparseMemory::clear`]; tags [`FrameMemo`] validity.
    generation: u64,
    memo: Cell<FrameMemo>,
}

impl SparseMemory {
    /// Creates a store covering offsets `0..capacity`.
    pub fn new(capacity: u64) -> Self {
        Self {
            frames: Vec::new(),
            resident: 0,
            capacity,
            generation: 1,
            // Generation 0 never matches a live store, so the initial memo
            // is inert.
            memo: Cell::new(FrameMemo {
                generation: 0,
                frame: 0,
                present: false,
            }),
        }
    }

    /// Capacity in bytes.
    pub const fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of frames that have been touched (allocated) so far.
    pub fn resident_frames(&self) -> usize {
        self.resident
    }

    /// Resident (allocated) bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.resident as u64 * PAGE_SIZE
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

    /// The resident frame at `idx`, if any, going through the last-frame
    /// memo: a memo hit answers presence without touching the frame table;
    /// a miss probes the table and refreshes the memo.
    #[inline]
    fn frame_memoized(&self, idx: u64) -> Option<&[u8]> {
        let memo = self.memo.get();
        if memo.generation == self.generation && memo.frame == idx {
            if !memo.present {
                return None;
            }
            return self.frames.get(idx as usize).and_then(|f| f.as_deref());
        }
        let data = self.frames.get(idx as usize).and_then(|f| f.as_deref());
        self.memo.set(FrameMemo {
            generation: self.generation,
            frame: idx,
            present: data.is_some(),
        });
        data
    }

    /// The frame at `idx`, materialising it (and growing the table) if
    /// absent. Refreshes a memo that recorded this frame as absent.
    #[inline]
    fn frame_mut(&mut self, idx: u64) -> &mut [u8] {
        let i = idx as usize;
        if i >= self.frames.len() {
            self.frames.resize_with(i + 1, || None);
        }
        let slot = &mut self.frames[i];
        if slot.is_none() {
            *slot = Some(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            self.resident += 1;
            self.memo.set(FrameMemo {
                generation: self.generation,
                frame: idx,
                present: true,
            });
        }
        slot.as_deref_mut().expect("frame was just materialised")
    }

    /// Whether the frame at `idx` is resident, without going through (or
    /// refreshing) the memo.
    #[inline]
    fn frame_absent(&self, idx: u64) -> bool {
        self.frames.get(idx as usize).is_none_or(Option::is_none)
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_range(offset, buf.len() as u64)?;
        let in_frame = (offset & FRAME_MASK) as usize;
        // Single-frame fast path: one copy, no chunk loop.
        if in_frame + buf.len() <= PAGE_SIZE as usize {
            match self.frame_memoized(offset >> FRAME_SHIFT) {
                Some(data) => buf.copy_from_slice(&data[in_frame..in_frame + buf.len()]),
                None => buf.fill(0),
            }
            return Ok(());
        }
        let mut done = 0usize;
        while done < buf.len() {
            let cur = offset + done as u64;
            let in_frame = (cur & FRAME_MASK) as usize;
            let chunk = (buf.len() - done).min(PAGE_SIZE as usize - in_frame);
            match self.frame_memoized(cur >> FRAME_SHIFT) {
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
    #[inline]
    pub fn write(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        self.check_range(offset, buf.len() as u64)?;
        let mut done = 0usize;
        while done < buf.len() {
            let cur = offset + done as u64;
            let in_frame = (cur & FRAME_MASK) as usize;
            let chunk = (buf.len() - done).min(PAGE_SIZE as usize - in_frame);
            let data = self.frame_mut(cur >> FRAME_SHIFT);
            data[in_frame..in_frame + chunk].copy_from_slice(&buf[done..done + chunk]);
            done += chunk;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `offset` (used for page-table entries).
    ///
    /// Takes the single-frame fast path when the access does not straddle a
    /// frame boundary — always, for the 8-byte-aligned PTE fetches of the
    /// page-table walker.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn read_u64(&self, offset: u64) -> Result<u64> {
        let in_frame = (offset & FRAME_MASK) as usize;
        if in_frame + 8 <= PAGE_SIZE as usize {
            self.check_range(offset, 8)?;
            return Ok(match self.frame_memoized(offset >> FRAME_SHIFT) {
                Some(data) => u64::from_le_bytes(
                    data[in_frame..in_frame + 8]
                        .try_into()
                        .expect("8-byte slice"),
                ),
                None => 0,
            });
        }
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn write_u64(&mut self, offset: u64, value: u64) -> Result<u64> {
        let in_frame = (offset & FRAME_MASK) as usize;
        if in_frame + 8 <= PAGE_SIZE as usize {
            self.check_range(offset, 8)?;
            let data = self.frame_mut(offset >> FRAME_SHIFT);
            data[in_frame..in_frame + 8].copy_from_slice(&value.to_le_bytes());
            return Ok(value);
        }
        self.write(offset, &value.to_le_bytes())?;
        Ok(value)
    }

    /// Reads a little-endian `f32` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn read_f32(&self, offset: u64) -> Result<f32> {
        let in_frame = (offset & FRAME_MASK) as usize;
        if in_frame + 4 <= PAGE_SIZE as usize {
            self.check_range(offset, 4)?;
            return Ok(match self.frame_memoized(offset >> FRAME_SHIFT) {
                Some(data) => f32::from_le_bytes(
                    data[in_frame..in_frame + 4]
                        .try_into()
                        .expect("4-byte slice"),
                ),
                None => 0.0,
            });
        }
        let mut b = [0u8; 4];
        self.read(offset, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    /// Writes a little-endian `f32` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn write_f32(&mut self, offset: u64, value: f32) -> Result<()> {
        let in_frame = (offset & FRAME_MASK) as usize;
        if in_frame + 4 <= PAGE_SIZE as usize {
            self.check_range(offset, 4)?;
            let data = self.frame_mut(offset >> FRAME_SHIFT);
            data[in_frame..in_frame + 4].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        self.write(offset, &value.to_le_bytes())
    }

    /// Fills `len` bytes starting at `offset` with `value`.
    ///
    /// Zero-filling a frame that was never touched is a no-op: absent frames
    /// already read as zero, so no frame is materialised and
    /// [`SparseMemory::resident_frames`] does not grow.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn fill(&mut self, offset: u64, len: u64, value: u8) -> Result<()> {
        self.check_range(offset, len)?;
        let mut done = 0u64;
        while done < len {
            let cur = offset + done;
            let in_frame = (cur & FRAME_MASK) as usize;
            let n = ((len - done) as usize).min(PAGE_SIZE as usize - in_frame);
            let idx = cur >> FRAME_SHIFT;
            if value != 0 || !self.frame_absent(idx) {
                self.frame_mut(idx)[in_frame..in_frame + n].fill(value);
            }
            done += n as u64;
        }
        Ok(())
    }

    /// Drops all contents, returning the store to the all-zero state.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.resident = 0;
        // Invalidate every outstanding memo wholesale.
        self.generation += 1;
    }

    /// Checks the store's internal invariants: the resident counter matches
    /// the frame table and a present memo points at a resident frame.
    ///
    /// # Panics
    ///
    /// Panics when the direct-map state is inconsistent.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let live = self.frames.iter().filter(|f| f.is_some()).count();
        assert_eq!(live, self.resident, "resident counter out of sync");
        let memo = self.memo.get();
        if memo.generation == self.generation && memo.present {
            assert!(
                !self.frame_absent(memo.frame),
                "memo marks absent frame {} present",
                memo.frame
            );
        }
    }
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = SparseMemory::new(1 << 20);
        let mut buf = [0xFFu8; 16];
        mem.read(0x1234, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn write_read_roundtrip_across_frame_boundary() {
        let mut mem = SparseMemory::new(1 << 20);
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        mem.write(PAGE_SIZE - 100, &data).unwrap();
        let mut back = vec![0u8; 10_000];
        mem.read(PAGE_SIZE - 100, &mut back).unwrap();
        assert_eq!(back, data);
        // 3996..13996 touches frames 0 through 3.
        assert_eq!(mem.resident_frames(), 4);
        assert_eq!(mem.resident_bytes(), 4 * PAGE_SIZE);
        mem.debug_validate();
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut mem = SparseMemory::new(4096);
        assert!(mem.write(4090, &[0u8; 8]).is_err());
        let mut buf = [0u8; 8];
        assert!(mem.read(4095, &mut buf).is_err());
        assert!(mem.read(u64::MAX, &mut buf).is_err());
        // Exactly at the end is fine.
        assert!(mem.write(4088, &[1u8; 8]).is_ok());
    }

    #[test]
    fn u64_and_f32_accessors() {
        let mut mem = SparseMemory::new(1 << 16);
        mem.write_u64(0x100, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(mem.read_u64(0x100).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        mem.write_f32(0x200, 3.5).unwrap();
        assert_eq!(mem.read_f32(0x200).unwrap(), 3.5);
    }

    #[test]
    fn typed_accessors_handle_frame_straddles() {
        let mut mem = SparseMemory::new(1 << 16);
        // 8-byte value split 3/5 across the frame-0/frame-1 boundary.
        mem.write_u64(PAGE_SIZE - 3, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(mem.read_u64(PAGE_SIZE - 3).unwrap(), 0x0123_4567_89AB_CDEF);
        // 4-byte value split 1/3.
        mem.write_f32(2 * PAGE_SIZE - 1, -7.25).unwrap();
        assert_eq!(mem.read_f32(2 * PAGE_SIZE - 1).unwrap(), -7.25);
        assert_eq!(mem.resident_frames(), 3);
        // Out-of-bounds straddles are rejected like everything else.
        assert!(mem.read_u64((1 << 16) - 4).is_err());
        mem.debug_validate();
    }

    #[test]
    fn fill_and_clear() {
        let mut mem = SparseMemory::new(1 << 16);
        mem.fill(100, 5000, 0xAB).unwrap();
        let mut buf = [0u8; 4];
        mem.read(4000, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 4]);
        mem.clear();
        mem.read(4000, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }

    /// Regression (the PR 10 satellite bugfix): a large zero fill of
    /// untouched memory must not materialise frames — sparseness is the
    /// point of the store, and `resident_frames` feeds the sparseness
    /// observability in the perf artifact.
    #[test]
    fn zero_fill_of_absent_frames_is_a_no_op() {
        let mut mem = SparseMemory::new(64 << 20);
        mem.fill(0, 32 << 20, 0).unwrap();
        assert_eq!(mem.resident_frames(), 0);
        assert_eq!(mem.resident_bytes(), 0);
        // A resident frame in the range is still zeroed by the fill.
        mem.write_u64(5 * PAGE_SIZE + 8, 0x55).unwrap();
        mem.fill(0, 32 << 20, 0).unwrap();
        assert_eq!(mem.read_u64(5 * PAGE_SIZE + 8).unwrap(), 0);
        assert_eq!(mem.resident_frames(), 1, "only the pre-touched frame");
        // Partial-frame zero fill over absent frames is also a no-op.
        mem.fill(10 * PAGE_SIZE + 100, 300, 0).unwrap();
        assert_eq!(mem.resident_frames(), 1);
        mem.debug_validate();
    }

    /// The memo survives interleaved reads and writes and is invalidated
    /// by `clear`.
    #[test]
    fn memo_stays_coherent_across_clear() {
        let mut mem = SparseMemory::new(1 << 16);
        assert_eq!(mem.read_u64(0x100).unwrap(), 0); // memoise frame 0 absent
        mem.write_u64(0x100, 7).unwrap(); // materialise + refresh memo
        assert_eq!(mem.read_u64(0x100).unwrap(), 7);
        mem.clear();
        assert_eq!(mem.read_u64(0x100).unwrap(), 0, "clear invalidates memo");
        mem.write_u64(0x100, 9).unwrap();
        assert_eq!(mem.read_u64(0x100).unwrap(), 9);
        mem.debug_validate();
    }
}
