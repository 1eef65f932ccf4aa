//! Linear-scan reference engines for the simulator's indexed engines.
//!
//! Each type here is the original algorithm an indexed engine replaced,
//! kept verbatim as its executable specification. The lockstep identity
//! suites drive both on randomized workloads and demand identical
//! results, and the `simspeed` perf gate records each indexed engine's
//! speed-up over its reference. Only tests and benchmarks depend on this
//! crate; no simulator crate does.
//!
//! * [`NaiveTimedQueue`] — the flat interval list behind
//!   `sva_common::TimedQueue` (`timed_queue` suite);
//! * [`NaiveFabric`] — the start-window scan-with-retry placement behind
//!   `sva_mem::Fabric` (`fabric_identity` suite);
//! * [`NaiveSparseMemory`] — the per-frame hash map behind
//!   `sva_mem::SparseMemory` (`backing_identity` suite);
//! * [`NaiveWalkTable`] — the flat MSHR table behind `sva_iommu::WalkTable`,
//!   plugged in as `PageTableWalker::<NaiveWalkTable>` (`ptw_identity`
//!   suite).
//!
//! Do not use them on hot paths.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod naive_backing;
pub mod naive_fabric;
pub mod ptw;

pub use channel::NaiveTimedQueue;
pub use naive_backing::NaiveSparseMemory;
pub use naive_fabric::NaiveFabric;
pub use ptw::NaiveWalkTable;
