//! The ATS/PRI-style page-request interface.
//!
//! With demand paging enabled (`IommuConfig::demand_paging`), an IO page
//! fault is no longer a terminal error: the faulting device issues a
//! **page-request group** — the faulting page plus the remaining pages of
//! the transfer it is about to touch — into the IOMMU's bounded
//! page-request queue, stalls, and retries once the host driver has made
//! the pages resident. The pieces of that loop are split across the
//! workspace the same way the real stack is:
//!
//! * the **queue** and its overflow accounting live on the [`crate::Iommu`]
//!   (a [`crate::queues::BoundedQueue`] of [`crate::queues::PageRequest`]s;
//!   a full queue drops the request, which the device answers with retry
//!   backoff);
//! * the **host side** is abstracted as the [`PageRequestHandler`] trait
//!   defined here. `sva_host::driver::FaultServicer` implements it: it
//!   drains the queue, maps each page into the device's IO page table —
//!   touching the page-table memory through the **timed** memory system as
//!   host-initiated fabric traffic — and answers with one **group
//!   response** whose completion time the device resumes at;
//! * the **device side** is the DMA engine's stall-and-retry loop
//!   (`sva_cluster::dma`), which charges the whole fault round trip into
//!   its issue pipeline.
//!
//! Per-request service latency (request issue → group response) is
//! accumulated on the IOMMU ([`PageRequestStats`]) and surfaced through
//! `IommuStats`, including approximate percentiles from a latency
//! histogram.

use sva_common::stats::RunningStats;
use sva_common::{Cycles, Result};
use sva_mem::MemorySystem;

use crate::iommu::Iommu;

/// Host-side servicing of the IOMMU's page-request queue.
///
/// Implementors model the host driver's IO-page-fault handler. A call must
/// drain the queue completely and answer with a single group response; the
/// returned cycle is the global-clock time at which that response reaches
/// the device, i.e. the earliest time a faulting DMA engine may retry.
pub trait PageRequestHandler {
    /// Services every pending page request, starting at global-clock cycle
    /// `now` (the faulting device's current time).
    ///
    /// # Errors
    ///
    /// Propagates memory-system failures; an *unresolvable* request (the
    /// host itself has no mapping for the page) is not an error — it is
    /// marked failed on the IOMMU and the device's bounded retry loop turns
    /// it into the terminal [`sva_common::Error::IoPageFault`].
    fn service(&mut self, mem: &mut MemorySystem, iommu: &mut Iommu, now: Cycles)
        -> Result<Cycles>;
}

/// Accounting of the page-request path, kept by the [`Iommu`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PageRequestStats {
    /// Page requests accepted into the queue.
    pub requests: u64,
    /// Page requests dropped at the full queue (the device backs off and
    /// re-faults).
    pub dropped: u64,
    /// Group responses the host produced.
    pub group_responses: u64,
    /// Requests resolved by mapping the page.
    pub serviced: u64,
    /// Requests the host could not resolve (no backing host mapping).
    pub failed: u64,
    /// Per-request service latency: request issue → group-response
    /// completion.
    pub service_time: RunningStats,
}
