//! Initiator identities and access descriptors of the shared memory fabric.
//!
//! Every agent that can reach main memory — the host core, the IOMMU's
//! page-table walker and each accelerator cluster's DMA engine — is a
//! *fabric initiator*. The memory system exposes one unified entry point
//! (`MemorySystem::access` in `sva_mem`) that takes a [`MemPortReq`]
//! describing who is asking ([`InitiatorId`]), what for (read/write, length,
//! burstiness, priority) and *when* ([`MemPortReq::arrival`], a point on the
//! global simulation clock), so overlapping traffic from different
//! initiators can be arbitrated and accounted.
//!
//! The vocabulary lives here in `sva_common` so that `sva_mem` (the fabric),
//! `sva_cluster` (DMA initiators), `sva_host` and `sva_iommu` all agree on it
//! without depending on each other.

use core::fmt;

use crate::addr::PhysAddr;
use crate::cycles::Cycles;

/// Identity of a memory-fabric initiator.
///
/// DMA initiators are keyed by the IOMMU device ID their traffic presents,
/// so an N-cluster platform has N distinct DMA initiators sharing the fabric.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InitiatorId {
    /// The CVA6 host core (through its L1 caches).
    Host,
    /// The synthetic co-running host-traffic stream (conceptually a second
    /// hart or process on the host side). Distinct from [`InitiatorId::Host`]
    /// so genuine host self-interference — the stream contending with the
    /// offload runtime's own copies and page-table writes — is observable on
    /// the fabric instead of vanishing into the same-initiator exemption.
    HostStream,
    /// The IOMMU's dedicated page-table-walk port.
    Ptw,
    /// The DMA engine presenting IOMMU device ID `device`.
    Dma {
        /// IOMMU device ID of the DMA stream (one per accelerator cluster).
        device: u32,
    },
}

impl InitiatorId {
    /// Convenience constructor for a DMA initiator.
    pub const fn dma(device: u32) -> Self {
        InitiatorId::Dma { device }
    }

    /// The coarse class of the initiator (which crossbar master port and
    /// cache policy its traffic uses).
    pub const fn class(self) -> InitiatorClass {
        match self {
            InitiatorId::Host | InitiatorId::HostStream => InitiatorClass::Host,
            InitiatorId::Ptw => InitiatorClass::Ptw,
            InitiatorId::Dma { .. } => InitiatorClass::Device,
        }
    }

    /// Stable label for tables and JSON output (e.g. `dma[1]`).
    pub fn label(self) -> String {
        match self {
            InitiatorId::Host => "host".to_string(),
            InitiatorId::HostStream => "host_stream".to_string(),
            InitiatorId::Ptw => "ptw".to_string(),
            InitiatorId::Dma { device } => format!("dma[{device}]"),
        }
    }
}

impl fmt::Display for InitiatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Coarse class of an initiator: determines the crossbar master port and the
/// LLC policy applied to its traffic.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum InitiatorClass {
    /// Host traffic (cached by the LLC when present).
    Host,
    /// Device DMA traffic (bypasses the LLC unless the ablation routes it
    /// through).
    Device,
    /// Page-table-walk traffic (cached by the LLC when the paper's proposal
    /// is enabled).
    Ptw,
}

/// Pluggable arbitration policy of the shared memory fabric.
///
/// The policy decides which already-reserved bus intervals a new grant must
/// queue behind on its channel timeline (the mechanics live in
/// `sva_mem::fabric`; this vocabulary type lives here so configuration layers
/// can name a policy without depending on the fabric implementation).
///
/// * [`ArbitrationPolicy::RoundRobin`] — first-fit placement in simulation
///   order, exactly the PR 1 contention model. A [`MemPortReq::priority`]
///   above zero wins arbitration outright.
/// * [`ArbitrationPolicy::Weighted`] — deficit-weighted QoS: an initiator
///   whose accumulated weighted service lags the conflicting reservation's
///   owner is granted at its arrival instead of queueing. Weights apply to
///   DMA initiators in the order they first reserve the bus (on the
///   platform this is cluster shard order); missing entries default to 1,
///   and host/PTW traffic always weighs 1 (it never consumes a slot, even
///   when the global-clock engine gives it bus occupancy).
///   [`MemPortReq::priority`] is ignored — priorities cannot defeat the
///   configured service split.
/// * [`ArbitrationPolicy::FixedPriority`] — strict ordering by
///   [`MemPortReq::priority`]: a grant queues exactly behind conflicting
///   reservations of equal or higher priority and ignores lower ones.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ArbitrationPolicy {
    /// First-fit interval placement (the PR 1 model); the default.
    #[default]
    RoundRobin,
    /// Deficit-weighted arbitration with one weight per timed initiator (in
    /// first-reservation order); missing or zero weights count as 1.
    Weighted(Vec<u32>),
    /// Strict priority ordering by [`MemPortReq::priority`].
    FixedPriority,
}

impl ArbitrationPolicy {
    /// Stable label for tables and JSON output (e.g. `weighted[4,1]`).
    pub fn label(&self) -> String {
        match self {
            ArbitrationPolicy::RoundRobin => "round_robin".to_string(),
            ArbitrationPolicy::Weighted(w) => {
                let ws: Vec<String> = w.iter().map(u32::to_string).collect();
                format!("weighted[{}]", ws.join(","))
            }
            ArbitrationPolicy::FixedPriority => "fixed_priority".to_string(),
        }
    }

    /// The weight of the `timed_index`-th timed initiator under this policy.
    /// Non-weighted policies and missing/zero entries weigh 1.
    pub fn weight(&self, timed_index: usize) -> u32 {
        match self {
            ArbitrationPolicy::Weighted(w) => w.get(timed_index).copied().unwrap_or(1).max(1),
            _ => 1,
        }
    }
}

impl fmt::Display for ArbitrationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Direction of a fabric access.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Data flows from memory to the initiator.
    Read,
    /// Data flows from the initiator to memory.
    Write,
}

impl PortDir {
    /// Returns `true` for writes.
    pub const fn is_write(self) -> bool {
        matches!(self, PortDir::Write)
    }
}

/// Access descriptor presented at a fabric port.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemPortReq {
    /// Who is asking.
    pub initiator: InitiatorId,
    /// Read or write.
    pub dir: PortDir,
    /// Physical (bus) address of the first byte.
    pub addr: PhysAddr,
    /// Length in bytes.
    pub len: u64,
    /// Whether this is a long streaming burst (DMA) rather than a word/line
    /// access; bursts report separate latency and bus-occupancy components.
    pub burst: bool,
    /// Arbitration priority. Zero (the default) is placed first-fit on the
    /// shared-bus timeline and queues behind other initiators' occupancy;
    /// any higher value wins arbitration outright and never queues (see
    /// `sva_mem::fabric` for the exact policy and its known biases).
    pub priority: u8,
    /// Arrival time of the access on the global simulation clock. Every
    /// access carries one: initiators that track their own pipeline (DMA
    /// engines, the page-table walker, the host-traffic stream) stamp it
    /// explicitly via [`MemPortReq::at`]; for everything else the memory
    /// system fills in the current [`crate::clock::GlobalClock`] reading
    /// before the grant reaches the fabric.
    pub arrival: Cycles,
}

impl MemPortReq {
    /// Descriptor for a read of `len` bytes at `addr`, arriving at cycle 0.
    pub const fn read(initiator: InitiatorId, addr: PhysAddr, len: u64) -> Self {
        Self {
            initiator,
            dir: PortDir::Read,
            addr,
            len,
            burst: false,
            priority: 0,
            arrival: Cycles::ZERO,
        }
    }

    /// Descriptor for a write of `len` bytes at `addr`, arriving at cycle 0.
    pub const fn write(initiator: InitiatorId, addr: PhysAddr, len: u64) -> Self {
        Self {
            initiator,
            dir: PortDir::Write,
            addr,
            len,
            burst: false,
            priority: 0,
            arrival: Cycles::ZERO,
        }
    }

    /// Marks the access as a streaming burst.
    #[must_use]
    pub const fn as_burst(mut self) -> Self {
        self.burst = true;
        self
    }

    /// Sets the arbitration priority.
    #[must_use]
    pub const fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Stamps the arrival time of the access on the global clock.
    #[must_use]
    pub const fn at(mut self, arrival: Cycles) -> Self {
        self.arrival = arrival;
        self
    }
}

/// Timing of one fabric access, split into the latency to first data and the
/// data-bus occupancy (the same split [`sva_mem`'s DRAM model] uses, so burst
/// pipelining can overlap latencies).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PortTiming {
    /// Cycles until the first beat (or write acceptance) returns.
    pub latency: Cycles,
    /// Cycles the data bus is busy streaming the payload.
    pub occupancy: Cycles,
}

impl PortTiming {
    /// Total blocking time for an initiator that cannot overlap the access.
    pub fn total(&self) -> Cycles {
        self.latency + self.occupancy
    }
}

/// Per-initiator fabric statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InitiatorStats {
    /// Read accesses granted.
    pub reads: u64,
    /// Write accesses granted.
    pub writes: u64,
    /// Burst accesses among the above.
    pub bursts: u64,
    /// Bytes moved in either direction.
    pub bytes: u64,
    /// Summed latency the initiator observed (including queueing when the
    /// fabric charges it).
    pub latency_cycles: u64,
    /// Summed data-bus occupancy attributed to the initiator.
    pub occupancy_cycles: u64,
    /// Cycles spent queued behind another initiator's bus occupancy
    /// (cross-initiator contention).
    pub queue_cycles: u64,
    /// Accesses that arrived while another initiator held the bus.
    pub contended_grants: u64,
    /// Cycles the initiator's issue stalled waiting for a request-queue
    /// credit (the channel's request FIFO was full at the arrival instant).
    /// Always zero with unbounded queue depths.
    pub issue_stall_cycles: u64,
    /// Highest request-queue occupancy observed at any of this initiator's
    /// admissions (including its own entry). Zero with unbounded depths,
    /// whose occupancy is never tracked.
    pub req_queue_peak: u64,
    /// Highest response-queue occupancy observed at any of this initiator's
    /// grants. Zero with unbounded depths.
    pub rsp_queue_peak: u64,
}

impl InitiatorStats {
    /// Total accesses granted.
    pub const fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &InitiatorStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bursts += other.bursts;
        self.bytes += other.bytes;
        self.latency_cycles += other.latency_cycles;
        self.occupancy_cycles += other.occupancy_cycles;
        self.queue_cycles += other.queue_cycles;
        self.contended_grants += other.contended_grants;
        self.issue_stall_cycles += other.issue_stall_cycles;
        self.req_queue_peak = self.req_queue_peak.max(other.req_queue_peak);
        self.rsp_queue_peak = self.rsp_queue_peak.max(other.rsp_queue_peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbitration_policy_labels_and_weights() {
        assert_eq!(ArbitrationPolicy::default(), ArbitrationPolicy::RoundRobin);
        assert_eq!(ArbitrationPolicy::RoundRobin.label(), "round_robin");
        assert_eq!(ArbitrationPolicy::FixedPriority.label(), "fixed_priority");
        let w = ArbitrationPolicy::Weighted(vec![4, 0, 2]);
        assert_eq!(w.label(), "weighted[4,0,2]");
        assert_eq!(w.weight(0), 4);
        assert_eq!(w.weight(1), 1, "zero weights clamp to 1");
        assert_eq!(w.weight(2), 2);
        assert_eq!(w.weight(9), 1, "missing weights default to 1");
        assert_eq!(ArbitrationPolicy::RoundRobin.weight(0), 1);
        assert_eq!(w.to_string(), "weighted[4,0,2]");
    }

    #[test]
    fn initiator_classes_and_labels() {
        assert_eq!(InitiatorId::Host.class(), InitiatorClass::Host);
        assert_eq!(InitiatorId::HostStream.class(), InitiatorClass::Host);
        assert_eq!(InitiatorId::HostStream.label(), "host_stream");
        assert_eq!(InitiatorId::Ptw.class(), InitiatorClass::Ptw);
        assert_eq!(InitiatorId::dma(3).class(), InitiatorClass::Device);
        assert_eq!(InitiatorId::dma(3).label(), "dma[3]");
        assert_eq!(InitiatorId::Host.to_string(), "host");
    }

    #[test]
    fn descriptor_builders() {
        let r = MemPortReq::read(InitiatorId::Host, PhysAddr::new(0x1000), 64);
        assert_eq!(r.dir, PortDir::Read);
        assert!(!r.dir.is_write());
        assert!(!r.burst);
        assert_eq!(r.arrival, Cycles::ZERO);
        let w = MemPortReq::write(InitiatorId::dma(1), PhysAddr::new(0x2000), 2048)
            .as_burst()
            .with_priority(2)
            .at(Cycles::new(640));
        assert!(w.dir.is_write());
        assert!(w.burst);
        assert_eq!(w.priority, 2);
        assert_eq!(w.len, 2048);
        assert_eq!(w.arrival, Cycles::new(640));
    }

    #[test]
    fn port_timing_total() {
        let t = PortTiming {
            latency: Cycles::new(100),
            occupancy: Cycles::new(28),
        };
        assert_eq!(t.total(), Cycles::new(128));
    }

    #[test]
    fn initiator_stats_merge() {
        let mut a = InitiatorStats {
            reads: 1,
            bytes: 64,
            ..InitiatorStats::default()
        };
        let b = InitiatorStats {
            writes: 2,
            bytes: 128,
            queue_cycles: 7,
            issue_stall_cycles: 11,
            req_queue_peak: 3,
            ..InitiatorStats::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses(), 3);
        assert_eq!(a.bytes, 192);
        assert_eq!(a.queue_cycles, 7);
        assert_eq!(a.issue_stall_cycles, 11);
        assert_eq!(a.req_queue_peak, 3, "peaks merge by max, not by sum");
    }
}
