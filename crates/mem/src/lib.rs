//! Memory-subsystem models for the prototype platform.
//!
//! This crate provides the storage and timing models behind every memory
//! access in the simulation:
//!
//! * [`backing`] — a sparse, frame-granular byte store holding the functional
//!   contents of DRAM and the L2 scratchpad, laid out as a direct-map frame
//!   table with typed single-frame fast paths;
//! * [`dram`] — the DRAM controller timing model, including the AXI delayer
//!   the paper uses to sweep memory latency;
//! * [`cache`] — a generic set-associative cache timing model (tags + LRU +
//!   dirty bits, no data; the data always lives in the backing store);
//! * [`llc`] — the Cheshire last-level cache (128 KiB, write-back,
//!   SPM-partitionable), shared by the host and the IOMMU page-table walker;
//! * [`spm`] — the 1 MiB on-chip L2 scratchpad;
//! * [`interference`] — the synthetic host-traffic interference model used in
//!   Figure 5;
//! * [`channels`] — the multi-channel DRAM geometry and the address→channel
//!   interleave mapping;
//! * [`fabric`] — the arbitration and per-initiator accounting layer of the
//!   unified memory fabric (per-channel interval timelines, round-robin /
//!   weighted / fixed-priority arbitration, contention measurement), placed
//!   by an end-indexed reservation engine with watermark compaction;
//! * [`system`] — [`MemorySystem`], the composition of all of the above
//!   behind the unified [`MemorySystem::access`](system::MemorySystem::access)
//!   fabric port used by the host, every cluster's DMA engine and the IOMMU
//!   page-table walker.
//!
//! # Example
//!
//! ```
//! use sva_mem::{MemorySystem, MemSysConfig};
//! use sva_common::{Cycles, PhysAddr};
//!
//! let mut mem = MemorySystem::new(MemSysConfig {
//!     dram_latency: Cycles::new(200),
//!     llc_enabled: true,
//!     ..MemSysConfig::default()
//! });
//!
//! // Functional write + timed host read through the LLC.
//! let addr = PhysAddr::new(0x8000_0000);
//! mem.write_phys(addr, &42u64.to_le_bytes()).unwrap();
//! let mut buf = [0u8; 8];
//! let lat = mem.host_read(addr, &mut buf).unwrap();
//! assert_eq!(u64::from_le_bytes(buf), 42);
//! assert!(lat.raw() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backing;
pub mod cache;
pub mod channels;
pub mod dram;
pub mod fabric;
pub mod interference;
pub mod llc;
pub mod spm;
pub mod system;

pub use backing::SparseMemory;
pub use cache::{Cache, CacheConfig, CacheOutcome};
pub use channels::{ChannelStats, DramChannelConfig};
pub use dram::{Dram, DramConfig};
pub use fabric::{Fabric, FabricConfig, GrantOutcome, InitiatorSnapshot};
pub use interference::Interference;
pub use llc::{Llc, LlcConfig};
pub use spm::Scratchpad;
pub use system::{BurstTiming, MemData, MemReq, MemRsp, MemSysConfig, MemSysStats, MemorySystem};
