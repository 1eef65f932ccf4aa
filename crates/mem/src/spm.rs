//! The on-chip L2 scratchpad memory.
//!
//! The platform contains 1 MiB of non-cached, physically addressed scratchpad
//! connected directly to the crossbar. It holds the device binaries and
//! shared data structures such as the software mailboxes used to trigger and
//! synchronise offloads, so its (short, constant) access latency shows up in
//! the offload/fork-join overhead of Figure 2.

use sva_common::stats::Counter;
use sva_common::{Cycles, Result, MIB};

use crate::backing::SparseMemory;

/// The L2 scratchpad: constant-latency on-chip SRAM with functional backing
/// storage.
#[derive(Clone, Debug)]
pub struct Scratchpad {
    storage: SparseMemory,
    access_latency: Cycles,
    accesses: Counter,
}

/// Serializable view of the scratchpad configuration (storage contents are
/// not serialized).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ScratchpadConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Access latency as seen from the crossbar.
    pub access_latency: Cycles,
}

impl Default for ScratchpadConfig {
    fn default() -> Self {
        Self {
            size_bytes: MIB,
            access_latency: Cycles::new(6),
        }
    }
}

impl Scratchpad {
    /// Creates a scratchpad from a configuration.
    pub fn new(config: ScratchpadConfig) -> Self {
        Self {
            storage: SparseMemory::new(config.size_bytes),
            access_latency: config.access_latency,
            accesses: Counter::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.storage.capacity()
    }

    /// Constant access latency.
    pub const fn access_latency(&self) -> Cycles {
        self.access_latency
    }

    /// Timed read of `buf.len()` bytes at `offset` into the scratchpad.
    ///
    /// # Errors
    ///
    /// Returns [`sva_common::Error::OutOfBounds`] if the range exceeds the
    /// scratchpad capacity.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<Cycles> {
        self.storage.read(offset, buf)?;
        self.accesses.incr();
        Ok(self.access_latency)
    }

    /// Timed write of `buf` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`sva_common::Error::OutOfBounds`] if the range exceeds the
    /// scratchpad capacity.
    pub fn write(&mut self, offset: u64, buf: &[u8]) -> Result<Cycles> {
        self.storage.write(offset, buf)?;
        self.accesses.incr();
        Ok(self.access_latency)
    }

    /// Untimed (functional) access to the backing storage.
    pub fn storage(&self) -> &SparseMemory {
        &self.storage
    }

    /// Untimed (functional) mutable access to the backing storage.
    pub fn storage_mut(&mut self) -> &mut SparseMemory {
        &mut self.storage
    }

    /// Number of timed accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }
}

impl Default for Scratchpad {
    fn default() -> Self {
        Self::new(ScratchpadConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_one_mebibyte() {
        let spm = Scratchpad::default();
        assert_eq!(spm.capacity(), MIB);
    }

    #[test]
    fn timed_roundtrip() {
        let mut spm = Scratchpad::default();
        let lat_w = spm.write(0x100, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        let lat_r = spm.read(0x100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(lat_w, spm.access_latency());
        assert_eq!(lat_r, spm.access_latency());
        assert_eq!(spm.accesses(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut spm = Scratchpad::default();
        assert!(spm.write(MIB - 2, &[0u8; 4]).is_err());
    }
}
