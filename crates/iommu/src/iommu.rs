//! The top-level IOMMU model.
//!
//! [`Iommu::translate`] is the single entry point the cluster DMA engine
//! uses: it runs the device-context lookup, the TLB lookups and, on a miss,
//! the page-table walk, and returns the physical address together with the
//! number of cycles the translation added to the transaction.
//!
//! # The translation hierarchy
//!
//! By default the IOMMU keeps the paper prototype's single 4-entry,
//! fully-associative, true-LRU IOTLB. [`IommuConfig::tlb_hierarchy`]
//! upgrades it to a configurable **two-level hierarchy**: one private L1
//! address-translation cache (ATC) per device in front of one shared L2
//! IOTLB, each with its own organisation ([`sva_common::TlbOrg`]),
//! replacement policy ([`sva_common::ReplacementPolicy`]) and lookup
//! latency. A translation probes L1, then L2 (filling L1 on an L2 hit),
//! then walks the page table (filling both levels), charging the
//! per-level latencies into the cycles it returns — so TLB pressure shows
//! up in DMA issue times, not only in hit rates. Invalidation commands
//! purge **both** levels plus the walker's in-flight MSHR registers.
//!
//! # Untimed probes
//!
//! Every `probe`/`peek` entry point in this crate —
//! [`Iommu::probe_translation`], [`IoTlb::probe`],
//! [`DeviceDirectory::peek`] — is **untimed and uncounted by contract**:
//! no cycles are charged, no global-clock traffic is issued, no
//! replacement state moves, and no hit/miss statistic or fault record is
//! touched. They exist for functional inspection (address-generation
//! pre-passes, tests, experiment harnesses) and are invisible to the
//! timing model; use [`Iommu::translate_at`] for anything a device would
//! actually issue.

use std::collections::BTreeSet;

use sva_common::stats::{Histogram, HitMiss, RunningStats};
use sva_common::{Cycles, Error, Iova, PhysAddr, ReplacementPolicy, Result, TimedQueue, TlbOrg};
use sva_mem::MemorySystem;
use sva_vm::FrameAllocator;

use crate::ddt::{DeviceContext, DeviceDirectory};
use crate::iotlb::IoTlb;
use crate::pri::PageRequestStats;
use crate::ptw::PageTableWalker;
use crate::queues::{BoundedQueue, Command, FaultReason, FaultRecord, PageRequest};
use crate::regs::{RegisterFile, DDTP_MODE_1LVL};

/// Width of one bucket of the page-request service-latency histogram.
const PRI_HIST_BUCKET: u64 = 512;
/// Number of buckets of the page-request service-latency histogram.
const PRI_HIST_BUCKETS: usize = 256;

/// Operating mode of the IOMMU instance.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IommuMode {
    /// The IOMMU is not instantiated: device addresses are used as physical
    /// bus addresses unchanged and translation costs nothing. This is the
    /// paper's *Baseline* configuration.
    Disabled,
    /// The IOMMU is present but the device context requests pass-through
    /// (used for instruction fetches from the physically addressed L2).
    Bypass,
    /// Full first-stage (Sv39) translation — the paper's *IOMMU* and
    /// *IOMMU + LLC* configurations.
    Translating,
}

/// Geometry, policy and lookup cost of one level of the translation
/// hierarchy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TlbLevelConfig {
    /// Organisation of the level (`sets × ways`).
    pub org: TlbOrg,
    /// Replacement policy of the level.
    pub policy: ReplacementPolicy,
    /// Cycles charged for probing this level (hit or miss detection).
    pub lookup_latency: Cycles,
}

impl TlbLevelConfig {
    /// Creates a level configuration.
    pub const fn new(org: TlbOrg, policy: ReplacementPolicy, lookup_latency: Cycles) -> Self {
        Self {
            org,
            policy,
            lookup_latency,
        }
    }
}

/// The two-level translation hierarchy: a private L1 ATC per device in
/// front of a shared L2 IOTLB.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TlbHierarchyConfig {
    /// The per-device L1 address-translation cache.
    pub l1: TlbLevelConfig,
    /// The shared L2 IOTLB behind every ATC.
    pub l2: TlbLevelConfig,
}

impl Default for TlbHierarchyConfig {
    /// A small private ATC (4 fully-associative entries, 1-cycle lookup)
    /// in front of a 32-entry 8×4 set-associative shared IOTLB (4-cycle
    /// lookup), both true-LRU.
    fn default() -> Self {
        Self {
            l1: TlbLevelConfig::new(
                TlbOrg::fully_associative(4),
                ReplacementPolicy::TrueLru,
                Cycles::new(1),
            ),
            l2: TlbLevelConfig::new(
                TlbOrg::new(8, 4),
                ReplacementPolicy::TrueLru,
                Cycles::new(4),
            ),
        }
    }
}

/// Configuration of the IOMMU model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IommuConfig {
    /// Operating mode.
    pub mode: IommuMode,
    /// Number of IOTLB entries (the prototype uses 4). Ignored when
    /// [`IommuConfig::tlb_hierarchy`] is set — the hierarchy's level
    /// configurations size the TLBs then.
    pub iotlb_entries: usize,
    /// Latency of an IOTLB lookup (hit or miss detection) in the
    /// single-level configuration. The hierarchy charges its per-level
    /// `lookup_latency` knobs instead.
    pub iotlb_hit_latency: Cycles,
    /// Fixed pipeline latency added to every translated transaction.
    pub pipeline_latency: Cycles,
    /// Capacity of the fault queue.
    pub fault_queue_entries: usize,
    /// Enables the MSHR-style batched page-table walker: concurrent walks
    /// that need a PTE read already in flight coalesce onto it instead of
    /// issuing their own (see [`crate::ptw`]). Off by default — the serial
    /// walker is the paper's prototype.
    pub ptw_batching: bool,
    /// Capacity of the batched walker's walk table (in-flight PTE reads);
    /// ignored with batching off.
    pub ptw_mshr_entries: usize,
    /// The two-level translation hierarchy (per-device L1 ATC + shared L2
    /// IOTLB). `None` — the default — is the paper prototype's single
    /// IOTLB, cycle-identical to the pre-hierarchy model.
    pub tlb_hierarchy: Option<TlbHierarchyConfig>,
    /// ATS/PRI-style demand paging: a translation fault enqueues a page
    /// request for the host instead of producing a terminal error, and the
    /// faulting device stalls-and-retries (see [`crate::pri`]). Off by
    /// default — faults are errors, as in the paper prototype.
    pub demand_paging: bool,
    /// Capacity of the page-request queue; a full queue drops requests and
    /// the device answers with retry backoff.
    pub page_request_entries: usize,
    /// Upper bound on a device's stall-and-retry attempts per access
    /// before the fault becomes terminal.
    pub max_fault_retries: u32,
    /// Extra stall a device serves after its page-request group overflowed
    /// the queue (the dropped tail must re-fault and re-request).
    pub page_request_backoff: Cycles,
}

impl Default for IommuConfig {
    fn default() -> Self {
        Self {
            mode: IommuMode::Translating,
            iotlb_entries: 4,
            iotlb_hit_latency: Cycles::new(2),
            pipeline_latency: Cycles::new(2),
            fault_queue_entries: 64,
            ptw_batching: false,
            ptw_mshr_entries: crate::ptw::DEFAULT_MSHR_ENTRIES,
            tlb_hierarchy: None,
            demand_paging: false,
            page_request_entries: 16,
            max_fault_retries: 8,
            page_request_backoff: Cycles::new(1_000),
        }
    }
}

impl IommuConfig {
    /// Configuration of the paper's baseline platform (no IOMMU).
    pub fn disabled() -> Self {
        Self {
            mode: IommuMode::Disabled,
            ..Self::default()
        }
    }
}

/// Snapshot of the IOMMU's statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct IommuStats {
    /// Translation requests served (including bypassed ones).
    pub translations: u64,
    /// Requests that bypassed translation.
    pub bypassed: u64,
    /// Hit/miss counts of the shared IOTLB (the single TLB in the default
    /// configuration; the L2 level of the hierarchy).
    pub iotlb: HitMiss,
    /// Aggregate hit/miss counts of the per-device L1 ATCs (all zero in the
    /// single-level configuration).
    pub atc: HitMiss,
    /// Device-context cache hit/miss counts.
    pub dc_cache: HitMiss,
    /// Number of page-table walks performed.
    pub ptw_walks: u64,
    /// Number of walks that faulted.
    pub ptw_faults: u64,
    /// PTE reads the walker issued to memory.
    pub ptw_reads: u64,
    /// Walk levels served by MSHR coalescing instead of a memory read
    /// (always zero with batching off).
    pub ptw_coalesced_reads: u64,
    /// Per-walk latency statistics (Figure 5 reports the mean).
    pub ptw_time: RunningStats,
    /// Total cycles spent translating (IOTLB + DDT + PTW + pipeline).
    pub translation_cycles: u64,
    /// Fault records dropped at the full fault queue (previously lost
    /// silently; see [`crate::queues::BoundedQueue::dropped`]).
    pub fault_records_dropped: u64,
    /// Page-request path accounting (all zero with demand paging off).
    pub page_requests: PageRequestStats,
    /// Approximate median page-request service latency (from the latency
    /// histogram; 0 without samples).
    pub page_request_p50: u64,
    /// Approximate 90th-percentile page-request service latency.
    pub page_request_p90: u64,
    /// Approximate 99th-percentile page-request service latency.
    pub page_request_p99: u64,
    /// Peak number of simultaneously in-flight serviced page requests
    /// (from the PRI occupancy timeline; 0 with demand paging off).
    pub page_request_peak_in_flight: usize,
    /// Peak size of the PRI `(device, page)` dedup index — the most page
    /// requests pending at once (0 with demand paging off).
    pub page_request_pending_peak: usize,
    /// Peak live window-record count of the walker's MSHR walk table
    /// (always zero with batching off).
    pub ptw_walk_table_events_peak: usize,
    /// Walk-table window records folded away by watermark compaction at
    /// device-window boundaries.
    pub ptw_walk_table_compacted: u64,
}

/// The RISC-V IOMMU.
#[derive(Clone, Debug)]
pub struct Iommu {
    config: IommuConfig,
    regs: RegisterFile,
    ddt: Option<DeviceDirectory>,
    /// The shared IOTLB: the only TLB in the single-level configuration,
    /// the L2 of the hierarchy.
    iotlb: IoTlb,
    /// Per-device L1 address-translation caches, ordered by device ID;
    /// instantiated lazily on first translation and only when
    /// `config.tlb_hierarchy` is set.
    atcs: Vec<(u32, IoTlb)>,
    ptw: PageTableWalker,
    commands: BoundedQueue<Command>,
    faults: BoundedQueue<FaultRecord>,
    /// The ATS/PRI page-request queue (unused with demand paging off).
    page_requests: BoundedQueue<PageRequest>,
    /// Dedup index over the queue: the `(device_id, page base)` of every
    /// pending request, maintained in lockstep with the queue on the
    /// push/pop paths (an overflow-dropped request is *not* pending). The
    /// per-page "already pending?" probe of a page-request group is one
    /// set lookup instead of a queue scan.
    pending_pages: BTreeSet<(u32, u64)>,
    /// Peak size of the dedup index over the measurement window.
    pending_pages_peak: usize,
    pri: PageRequestStats,
    pri_hist: Histogram,
    /// Timed occupancy record of the PRI path: each serviced request
    /// occupies `[issued, completed)` on the global clock, so in-flight
    /// page-request pressure is observable the same way the fabric's
    /// channel backlogs are (an event-indexed recording FIFO).
    pri_timeline: TimedQueue,
    translations: u64,
    bypassed: u64,
    translation_cycles: u64,
}

impl Iommu {
    /// Creates an IOMMU in the given configuration.
    pub fn new(config: IommuConfig) -> Self {
        Self {
            regs: RegisterFile::new(),
            ddt: None,
            iotlb: match config.tlb_hierarchy {
                Some(h) => IoTlb::with_org(h.l2.org, h.l2.policy),
                None => IoTlb::new(config.iotlb_entries),
            },
            atcs: Vec::new(),
            ptw: if config.ptw_batching {
                PageTableWalker::with_batching(config.ptw_mshr_entries)
            } else {
                PageTableWalker::new()
            },
            commands: BoundedQueue::new(64),
            faults: BoundedQueue::new(config.fault_queue_entries),
            page_requests: BoundedQueue::new(config.page_request_entries.max(1)),
            pending_pages: BTreeSet::new(),
            pending_pages_peak: 0,
            pri: PageRequestStats::default(),
            pri_hist: Histogram::new(PRI_HIST_BUCKET, PRI_HIST_BUCKETS),
            pri_timeline: TimedQueue::unbounded_recording(),
            translations: 0,
            bypassed: 0,
            translation_cycles: 0,
            config,
        }
    }

    /// The configuration of this instance.
    pub const fn config(&self) -> &IommuConfig {
        &self.config
    }

    /// The operating mode.
    pub const fn mode(&self) -> IommuMode {
        self.config.mode
    }

    /// Returns `true` when the IOMMU performs first-stage translation.
    pub const fn is_translating(&self) -> bool {
        matches!(self.config.mode, IommuMode::Translating)
    }

    /// The memory-mapped register file (as programmed by the driver).
    pub const fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable access to the register file for the driver model.
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// The device directory, if one has been programmed.
    pub fn ddt(&self) -> Option<&DeviceDirectory> {
        self.ddt.as_ref()
    }

    /// Convenience setup used by the driver model and examples: allocates a
    /// device directory (if none exists), installs a translating device
    /// context for `device_id` pointing at `root_pt`, and programs `ddtp`.
    ///
    /// # Errors
    ///
    /// Returns allocation or directory errors.
    pub fn attach_device(
        &mut self,
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        device_id: u32,
        pscid: u32,
        root_pt: PhysAddr,
    ) -> Result<()> {
        if self.ddt.is_none() {
            self.ddt = Some(DeviceDirectory::create(frames)?);
        }
        let ddt = self.ddt.as_mut().expect("directory just created");
        ddt.install(mem, device_id, DeviceContext::translating(pscid, root_pt))?;
        self.regs.set_ddtp(ddt.base(), DDTP_MODE_1LVL);
        Ok(())
    }

    /// Installs a bypass device context for `device_id` (used for the
    /// instruction-fetch device ID in the paper's platform).
    ///
    /// # Errors
    ///
    /// Returns allocation or directory errors.
    pub fn attach_bypass_device(
        &mut self,
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        device_id: u32,
    ) -> Result<()> {
        if self.ddt.is_none() {
            self.ddt = Some(DeviceDirectory::create(frames)?);
        }
        let ddt = self.ddt.as_mut().expect("directory just created");
        ddt.install(mem, device_id, DeviceContext::bypassing())?;
        self.regs.set_ddtp(ddt.base(), DDTP_MODE_1LVL);
        Ok(())
    }

    /// Processes one driver command (invalidations and fences).
    ///
    /// An `IOTINVAL.VMA` purges **every** cached-translation structure the
    /// scoped pages could live in: the per-device L1 ATCs, the shared L2
    /// IOTLB *and* the page-table walker's in-flight MSHR registers — no
    /// stale translation survives at any layer (a property test in
    /// `tests/invalidation.rs` pins this under concurrent walks).
    pub fn process_command(&mut self, command: Command) {
        self.commands.push(command);
        match command {
            Command::IotlbInvalidate { device_id, iova } => {
                match (device_id, iova) {
                    (Some(d), Some(a)) => {
                        self.iotlb.invalidate_page(d, a);
                        if let Some(atc) = self.atc_mut_existing(d) {
                            atc.invalidate_page(d, a);
                        }
                    }
                    (Some(d), None) => {
                        self.iotlb.invalidate_device(d);
                        if let Some(atc) = self.atc_mut_existing(d) {
                            atc.invalidate_all();
                        }
                    }
                    _ => {
                        self.iotlb.invalidate_all();
                        for (_, atc) in &mut self.atcs {
                            atc.invalidate_all();
                        }
                    }
                }
                // The page tables may have changed: in-flight walk-table
                // registers must not serve pre-invalidation PTE values.
                self.ptw.invalidate_walk_table();
            }
            Command::DdtInvalidate => {
                if let Some(ddt) = &mut self.ddt {
                    ddt.invalidate_cache();
                }
                self.ptw.invalidate_walk_table();
            }
            Command::Fence => {}
        }
    }

    /// Position of `device_id` in the sorted ATC list.
    fn atc_index(&self, device_id: u32) -> std::result::Result<usize, usize> {
        self.atcs.binary_search_by_key(&device_id, |(d, _)| *d)
    }

    /// The L1 ATC of `device_id`, if one has been instantiated.
    fn atc_mut_existing(&mut self, device_id: u32) -> Option<&mut IoTlb> {
        self.atc_index(device_id)
            .ok()
            .map(|pos| &mut self.atcs[pos].1)
    }

    /// The L1 ATC of `device_id`, created on first use from the hierarchy's
    /// L1 level configuration. Only called on the hierarchy path.
    fn atc_mut(&mut self, device_id: u32, level: TlbLevelConfig) -> &mut IoTlb {
        let pos = match self.atc_index(device_id) {
            Ok(pos) => pos,
            Err(pos) => {
                // Give random-policy ATCs decorrelated victim streams.
                let policy = match level.policy {
                    ReplacementPolicy::Random(seed) => {
                        ReplacementPolicy::Random(seed ^ u64::from(device_id).rotate_left(32))
                    }
                    other => other,
                };
                self.atcs
                    .insert(pos, (device_id, IoTlb::with_org(level.org, policy)));
                pos
            }
        };
        &mut self.atcs[pos].1
    }

    /// Translates an IO virtual address for `device_id`, with the request
    /// arriving at the memory system's current global-clock reading.
    ///
    /// Returns the physical address and the cycles the translation added to
    /// the transaction (zero when the IOMMU is disabled). Initiators that
    /// track their own pipeline time should use [`Iommu::translate_at`] so
    /// page-table walks land at the right point on the fabric timelines.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IoPageFault`] or [`Error::UnknownDevice`] on
    /// translation failure; a corresponding record is pushed to the fault
    /// queue.
    pub fn translate(
        &mut self,
        mem: &mut MemorySystem,
        device_id: u32,
        iova: Iova,
        is_write: bool,
    ) -> Result<(PhysAddr, Cycles)> {
        let now = mem.clock().now();
        self.translate_at(mem, device_id, iova, is_write, now)
    }

    /// Translates an IO virtual address for `device_id`, with the request
    /// arriving at global-clock cycle `now` (the issue time of the DMA burst
    /// presenting it). On an IOTLB miss the page-table walk is issued at
    /// `now` plus the lookup latencies, so its per-level reads are
    /// timestamped and contend on the memory fabric.
    ///
    /// Under demand paging a request that is going to fault is **squashed
    /// before it perturbs anything**: an untimed probe detects the missing
    /// (or permission-lacking) mapping and the fault returns without timed
    /// walk reads, TLB state movement or statistics. A faulting attempt's
    /// partial walk would otherwise warm the LLC with page-table lines and
    /// reserve fabric slots, making the post-fault retry *cheaper* than the
    /// identical translation in a pre-mapped run — the fault-stagger
    /// anomaly where cold-start paging could report a lower contended wall
    /// clock than its pre-mapped twin. The fault's real cost is carried by
    /// the PRI stall-and-retry loop, which dwarfs the squashed walk.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IoPageFault`] or [`Error::UnknownDevice`] on
    /// translation failure; a corresponding record is pushed to the fault
    /// queue (except for demand-paging page faults, which are reported
    /// through the page-request path instead).
    pub fn translate_at(
        &mut self,
        mem: &mut MemorySystem,
        device_id: u32,
        iova: Iova,
        is_write: bool,
        now: Cycles,
    ) -> Result<(PhysAddr, Cycles)> {
        if matches!(self.config.mode, IommuMode::Translating)
            && self.config.demand_paging
            && self
                .ddt
                .as_ref()
                .is_some_and(|ddt| ddt.peek(mem, device_id).is_ok())
            && !self.probe_access(mem, device_id, iova, is_write)
        {
            return Err(Error::IoPageFault { iova, is_write });
        }
        self.translations += 1;
        match self.config.mode {
            IommuMode::Disabled => {
                self.bypassed += 1;
                Ok((PhysAddr::new(iova.raw()), Cycles::ZERO))
            }
            IommuMode::Bypass => {
                self.bypassed += 1;
                Ok((PhysAddr::new(iova.raw()), self.config.pipeline_latency))
            }
            IommuMode::Translating => {
                let result = self.translate_first_stage(mem, device_id, iova, is_write, now);
                if let Ok((_, cycles)) = &result {
                    self.translation_cycles += cycles.raw();
                }
                result
            }
        }
    }

    /// Untimed, side-effect-free translation for functional inspection of
    /// device-visible memory: resolves the device context straight from the
    /// in-memory directory ([`DeviceDirectory::peek`]) and walks the page
    /// table with functional reads. This is what a DMA core's
    /// address-generation pre-pass (e.g. the sort kernel's merge-path
    /// binary search) uses to peek at DRAM-resident data without
    /// disturbing the timing model, and what the page-request path uses to
    /// find the unmapped pages of a transfer.
    ///
    /// **Contract (shared by every `probe`/`peek` entry point of this
    /// crate):** no cycles are charged, no timed memory traffic is issued,
    /// no TLB/DC-cache replacement state moves, and no hit/miss statistic
    /// or fault record is produced — by design, probes are invisible to
    /// both the timing model and the accounting. See the crate-level
    /// "Untimed probes" section.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IoPageFault`] for unmapped addresses and
    /// [`Error::UnknownDevice`] for devices without a valid context.
    pub fn probe_translation(
        &self,
        mem: &MemorySystem,
        device_id: u32,
        iova: Iova,
    ) -> Result<PhysAddr> {
        match self.config.mode {
            IommuMode::Disabled | IommuMode::Bypass => Ok(PhysAddr::new(iova.raw())),
            IommuMode::Translating => {
                let Some(ddt) = self.ddt.as_ref() else {
                    return Err(Error::UnknownDevice { device_id });
                };
                let ctx = ddt.peek(mem, device_id)?;
                if ctx.bypass {
                    return Ok(PhysAddr::new(iova.raw()));
                }
                let va = sva_common::VirtAddr::from_iova(iova);
                let table = sva_vm::PageTable::from_root(ctx.root_pt);
                match table.translate(mem, va) {
                    Ok(pa) => Ok(pa),
                    Err(Error::HostPageFault { .. }) => Err(Error::IoPageFault {
                        iova,
                        is_write: false,
                    }),
                    Err(e) => Err(e),
                }
            }
        }
    }

    fn translate_first_stage(
        &mut self,
        mem: &mut MemorySystem,
        device_id: u32,
        iova: Iova,
        is_write: bool,
        now: Cycles,
    ) -> Result<(PhysAddr, Cycles)> {
        let mut cycles = self.config.pipeline_latency;

        // 1. Device context.
        let Some(ddt) = self.ddt.as_mut() else {
            self.faults.push(FaultRecord {
                device_id,
                iova,
                is_write,
                reason: FaultReason::DeviceNotConfigured,
            });
            return Err(Error::UnknownDevice { device_id });
        };
        let (ctx, dc_cycles) = match ddt.lookup(mem, device_id, now) {
            Ok(r) => r,
            Err(e) => {
                self.faults.push(FaultRecord {
                    device_id,
                    iova,
                    is_write,
                    reason: FaultReason::DeviceNotConfigured,
                });
                return Err(e);
            }
        };
        cycles += dc_cycles;
        if ctx.bypass {
            self.bypassed += 1;
            return Ok((PhysAddr::new(iova.raw()), cycles));
        }

        // 2. TLB lookups: either the prototype's single IOTLB or the
        // two-level hierarchy (private L1 ATC, then shared L2), each level
        // charging its configured lookup latency into the transaction.
        let permits = |entry: &crate::iotlb::IoTlbEntry| {
            entry.flags.contains(sva_vm::PteFlags::W) || !is_write
        };
        match self.config.tlb_hierarchy {
            None => {
                cycles += self.config.iotlb_hit_latency;
                if let Some(entry) = self.iotlb.lookup(device_id, iova) {
                    if permits(&entry) {
                        return Ok((entry.translate(iova), cycles));
                    }
                    // Cached entry does not permit the access: fall through
                    // to a fresh walk so the fault is reported with
                    // up-to-date state.
                }
            }
            Some(h) => {
                cycles += h.l1.lookup_latency;
                if let Some(entry) = self.atc_mut(device_id, h.l1).lookup(device_id, iova) {
                    if permits(&entry) {
                        return Ok((entry.translate(iova), cycles));
                    }
                }
                cycles += h.l2.lookup_latency;
                if let Some(entry) = self.iotlb.lookup(device_id, iova) {
                    if permits(&entry) {
                        // L2 hit refills the private ATC.
                        self.atc_mut(device_id, h.l1)
                            .fill(device_id, iova, entry.ppn, entry.flags);
                        return Ok((entry.translate(iova), cycles));
                    }
                }
            }
        }

        // 3. Page-table walk, issued at the request's arrival plus the
        // pipeline/DDT/TLB latencies already accumulated. A successful walk
        // fills every level above it.
        match self
            .ptw
            .walk_at(mem, ctx.root_pt, iova, is_write, now + cycles)
        {
            Ok(res) => {
                cycles += res.cycles;
                self.iotlb
                    .fill(device_id, iova, res.leaf.ppn(), res.leaf.flags());
                if let Some(h) = self.config.tlb_hierarchy {
                    self.atc_mut(device_id, h.l1).fill(
                        device_id,
                        iova,
                        res.leaf.ppn(),
                        res.leaf.flags(),
                    );
                }
                Ok((res.leaf.phys_addr() + iova.page_offset(), cycles))
            }
            Err(e) => {
                let reason = match &e {
                    Error::IoPageFault { .. } => FaultReason::PageNotMapped,
                    _ => FaultReason::DeviceNotConfigured,
                };
                // With demand paging, a not-mapped fault is recoverable: it
                // is reported through the page-request queue by the device
                // (ATS/PRI), not the terminal fault queue.
                if !(self.config.demand_paging && reason == FaultReason::PageNotMapped) {
                    self.faults.push(FaultRecord {
                        device_id,
                        iova,
                        is_write,
                        reason,
                    });
                }
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // The ATS/PRI page-request path (demand paging)
    // ------------------------------------------------------------------

    /// Whether the page-request path is active (demand paging configured
    /// and the IOMMU translating).
    pub const fn demand_paging(&self) -> bool {
        self.config.demand_paging && self.is_translating()
    }

    /// Untimed probe of whether `device_id` can already perform the given
    /// access to `iova` without host intervention: the page must be mapped
    /// in the device's IO page table **and** its leaf must permit the
    /// access type (a resident read-only page still needs a page request
    /// for a write — the host services it by upgrading the mapping).
    fn probe_access(&self, mem: &MemorySystem, device_id: u32, iova: Iova, is_write: bool) -> bool {
        match self.config.mode {
            IommuMode::Disabled | IommuMode::Bypass => true,
            IommuMode::Translating => {
                let Some(ddt) = self.ddt.as_ref() else {
                    return false;
                };
                let Ok(ctx) = ddt.peek(mem, device_id) else {
                    return false;
                };
                if ctx.bypass {
                    return true;
                }
                let table = sva_vm::PageTable::from_root(ctx.root_pt);
                let va = sva_common::VirtAddr::from_iova(iova);
                match table.walk(mem, va) {
                    Ok(path) => path
                        .leaf()
                        .is_some_and(|pte| pte.is_valid() && pte.permits(is_write)),
                    Err(_) => false,
                }
            }
        }
    }

    /// Issues a **page-request group** on behalf of `device_id`: one
    /// request per page of `[start, start + len)` the device cannot
    /// already access (unmapped, or mapped without write permission for a
    /// write group), stamped `now`, pushed into the bounded page-request
    /// queue. Pages already accessible — or already pending in the queue —
    /// are skipped.
    ///
    /// Returns `(enqueued, dropped)`; a nonzero `dropped` means the queue
    /// overflowed mid-group and the device must back off (the tail pages
    /// will fault again and re-request).
    pub fn enqueue_page_requests(
        &mut self,
        mem: &MemorySystem,
        device_id: u32,
        start: Iova,
        len: u64,
        is_write: bool,
        now: Cycles,
    ) -> (u64, u64) {
        self.enqueue_group(mem, device_id, start, len, is_write, now, false)
    }

    /// The pre-index page-request group path, retained verbatim as the
    /// executable reference: the per-page "already pending?" probe scans
    /// the whole queue instead of consulting the dedup index. The dedup
    /// index is still maintained (it is queue state, not a statistic), so
    /// a walker driven through this path stays observationally identical —
    /// the `pri_group_storm` perf gate and the desync property suite
    /// twin-run both paths.
    #[doc(hidden)]
    pub fn enqueue_page_requests_scan(
        &mut self,
        mem: &MemorySystem,
        device_id: u32,
        start: Iova,
        len: u64,
        is_write: bool,
        now: Cycles,
    ) -> (u64, u64) {
        self.enqueue_group(mem, device_id, start, len, is_write, now, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue_group(
        &mut self,
        mem: &MemorySystem,
        device_id: u32,
        start: Iova,
        len: u64,
        is_write: bool,
        now: Cycles,
        scan: bool,
    ) -> (u64, u64) {
        let mut enqueued = 0u64;
        let mut dropped = 0u64;
        let first = start.page_base();
        let end = start + len.max(1);
        let mut page = first;
        while page < end {
            let unmapped = !self.probe_access(mem, device_id, page, is_write);
            // Every pushed request's IOVA is a page base, and every push is
            // guarded by this probe — so pending `(device, page)` pairs are
            // unique in the queue and the dedup index mirrors it exactly.
            let pending = if scan {
                self.page_requests
                    .iter()
                    .any(|r| r.device_id == device_id && r.iova.page_base() == page.page_base())
            } else {
                self.pending_pages.contains(&(device_id, page.raw()))
            };
            if unmapped && !pending {
                if self.page_requests.push(PageRequest {
                    device_id,
                    iova: page,
                    is_write,
                    issued_at: now,
                }) {
                    self.pending_pages.insert((device_id, page.raw()));
                    self.pending_pages_peak = self.pending_pages_peak.max(self.pending_pages.len());
                    enqueued += 1;
                    self.pri.requests += 1;
                } else {
                    // The queue is full; keep scanning so every request of
                    // the group that fails to enqueue is counted — the
                    // drop statistics promise a per-request count. An
                    // overflow-dropped request never enters the dedup
                    // index: it is not pending and must be re-requestable.
                    dropped += 1;
                    self.pri.dropped += 1;
                }
            }
            page += sva_common::PAGE_SIZE;
        }
        (enqueued, dropped)
    }

    /// Removes and returns the oldest pending page request (host side).
    pub fn pop_page_request(&mut self) -> Option<PageRequest> {
        let req = self.page_requests.pop();
        if let Some(r) = &req {
            self.pending_pages
                .remove(&(r.device_id, r.iova.page_base().raw()));
        }
        req
    }

    /// Number of pending page requests.
    pub fn pending_page_requests(&self) -> usize {
        self.page_requests.len()
    }

    /// Records one request resolved by the host: issued at `issued`,
    /// completed (group response observed by the device) at `completed`.
    /// The service latency feeds the latency statistics and the request's
    /// `[issued, completed)` residency is recorded on the PRI occupancy
    /// timeline.
    pub fn note_page_request_serviced(&mut self, issued: Cycles, completed: Cycles) {
        let latency = completed.saturating_sub(issued);
        self.pri.serviced += 1;
        self.pri.service_time.record_cycles(latency);
        self.pri_hist.record(latency.raw());
        self.pri_timeline.push(issued.raw(), completed.raw());
    }

    /// Number of serviced page requests that were in flight (issued but not
    /// yet completed) at `t`.
    pub fn page_requests_in_flight_at(&self, t: Cycles) -> usize {
        self.pri_timeline.occupancy_at(t.raw())
    }

    /// Records one request the host could not resolve (no backing host
    /// mapping); the device's bounded retry loop turns it into a terminal
    /// fault.
    pub fn note_page_request_failed(&mut self) {
        self.pri.failed += 1;
    }

    /// Records the completion of one group response.
    pub fn note_group_response(&mut self) {
        self.pri.group_responses += 1;
    }

    /// Purges the walker's in-flight MSHR registers (the host changed the
    /// page tables while servicing page requests; the fence after the
    /// update must not let stale in-flight PTE values serve later walks).
    pub fn purge_walk_table(&mut self) {
        self.ptw.invalidate_walk_table();
    }

    /// Folds translation-path history that can no longer influence the
    /// simulation: every walk-table window completing at or before
    /// watermark `w`. Contract: no later walk is stamped before `w` (the
    /// same no-earlier-arrival watermark
    /// `MemorySystem::compact_fabric_before` uses); the offload driver
    /// applies both together at sharded device-window boundaries.
    pub fn compact_translation_before(&mut self, w: Cycles) {
        self.ptw.compact_walk_table_before(w);
    }

    /// Checks that the PRI dedup index mirrors the page-request queue
    /// exactly: same size, and every pending request's `(device, page)` is
    /// present.
    ///
    /// # Panics
    ///
    /// Panics when the index and the queue have desynchronised.
    #[doc(hidden)]
    pub fn debug_validate_page_requests(&self) {
        assert_eq!(
            self.pending_pages.len(),
            self.page_requests.len(),
            "PRI dedup index size diverged from the queue"
        );
        for r in self.page_requests.iter() {
            assert!(
                self.pending_pages
                    .contains(&(r.device_id, r.iova.page_base().raw())),
                "pending request {:?} missing from the dedup index",
                r
            );
        }
        assert!(self.pending_pages_peak >= self.pending_pages.len());
    }

    /// Test hook: plants a stale `(device, page)` entry in the PRI dedup
    /// index with no backing queue entry — the desync the property suite
    /// must catch (a stale entry silently suppresses a legitimate
    /// re-request after the page was popped and unmapped again).
    #[doc(hidden)]
    pub fn debug_inject_stale_pending_page(&mut self, device_id: u32, page: Iova) {
        self.pending_pages
            .insert((device_id, page.page_base().raw()));
    }

    /// Records a **terminal** IO page fault in the fault queue.
    ///
    /// The demand-paging path reports *recoverable* not-mapped faults
    /// through the page-request queue instead of the fault queue; when a
    /// device's bounded stall-and-retry loop gives up — the retry budget
    /// is exhausted or no handler is attached — the fault is terminal
    /// after all and must still reach the driver, so the device records it
    /// here before aborting (otherwise the abort would be invisible to a
    /// host polling the fault queue).
    pub fn record_terminal_fault(&mut self, device_id: u32, iova: Iova, is_write: bool) {
        self.faults.push(FaultRecord {
            device_id,
            iova,
            is_write,
            reason: FaultReason::PageNotMapped,
        });
    }

    /// Oldest unread fault, if any.
    pub fn pop_fault(&mut self) -> Option<FaultRecord> {
        self.faults.pop()
    }

    /// Number of pending fault records.
    pub fn pending_faults(&self) -> usize {
        self.faults.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> IommuStats {
        let mut atc = HitMiss::new();
        for (_, tlb) in &self.atcs {
            let s = tlb.stats();
            atc.hits += s.hits;
            atc.misses += s.misses;
        }
        IommuStats {
            translations: self.translations,
            bypassed: self.bypassed,
            iotlb: self.iotlb.stats(),
            atc,
            dc_cache: self
                .ddt
                .as_ref()
                .map(|d| d.cache_stats())
                .unwrap_or_default(),
            ptw_walks: self.ptw.walks(),
            ptw_faults: self.ptw.faults(),
            ptw_reads: self.ptw.pte_reads(),
            ptw_coalesced_reads: self.ptw.coalesced_reads(),
            ptw_time: self.ptw.walk_time(),
            translation_cycles: self.translation_cycles,
            fault_records_dropped: self.faults.dropped(),
            page_requests: self.pri,
            page_request_p50: self.pri_hist.percentile(0.50),
            page_request_p90: self.pri_hist.percentile(0.90),
            page_request_p99: self.pri_hist.percentile(0.99),
            page_request_peak_in_flight: self.pri_timeline.peak(),
            page_request_pending_peak: self.pending_pages_peak,
            ptw_walk_table_events_peak: self.ptw.walk_table_events_peak(),
            ptw_walk_table_compacted: self.ptw.walk_table_compacted_events(),
        }
    }

    /// Direct access to the shared IOTLB — the single TLB in the default
    /// configuration, the L2 of the hierarchy (for ablation experiments and
    /// tests).
    pub const fn iotlb(&self) -> &IoTlb {
        &self.iotlb
    }

    /// Direct access to the L1 ATC of `device_id`, if the hierarchy is
    /// configured and the device has translated at least once.
    pub fn atc(&self, device_id: u32) -> Option<&IoTlb> {
        self.atc_index(device_id).ok().map(|pos| &self.atcs[pos].1)
    }

    /// Per-device IOTLB hit/miss statistics, ordered by device ID. Devices
    /// that never presented a translation are absent.
    pub fn device_iotlb_stats(&self) -> &[(u32, sva_common::stats::HitMiss)] {
        self.iotlb.per_device_stats()
    }

    /// Device IDs with an installed device context, in ascending order
    /// (empty when no directory has been programmed).
    pub fn attached_devices(&self) -> &[u32] {
        self.ddt.as_ref().map(|d| d.device_ids()).unwrap_or(&[])
    }

    /// Clears all statistics; cached state (IOTLB, ATCs, DC cache) is
    /// preserved.
    pub fn reset_stats(&mut self) {
        self.iotlb.reset_stats();
        for (_, atc) in &mut self.atcs {
            atc.reset_stats();
        }
        self.ptw.reset_stats();
        self.faults.reset_dropped();
        self.page_requests.reset_dropped();
        // The dedup index is queue state, not a statistic: requests still
        // pending across the window boundary stay pending (and deduped).
        // Only the peak restarts, at the carried-over size.
        self.pending_pages_peak = self.pending_pages.len();
        self.pri = PageRequestStats::default();
        self.pri_hist = Histogram::new(PRI_HIST_BUCKET, PRI_HIST_BUCKETS);
        self.pri_timeline.reset();
        self.translations = 0;
        self.bypassed = 0;
        self.translation_cycles = 0;
    }
}

impl Default for Iommu {
    fn default() -> Self {
        Self::new(IommuConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_common::{VirtAddr, PAGE_SIZE};
    use sva_vm::AddressSpace;

    fn setup() -> (MemorySystem, FrameAllocator, AddressSpace, VirtAddr) {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 8 * PAGE_SIZE)
            .unwrap();
        (mem, frames, space, va)
    }

    #[test]
    fn disabled_mode_is_identity_and_free() {
        let mut mem = MemorySystem::default();
        let mut iommu = Iommu::new(IommuConfig::disabled());
        let (pa, cycles) = iommu
            .translate(&mut mem, 1, Iova::new(0x8000_1234), true)
            .unwrap();
        assert_eq!(pa, PhysAddr::new(0x8000_1234));
        assert_eq!(cycles, Cycles::ZERO);
        assert_eq!(iommu.stats().bypassed, 1);
    }

    #[test]
    fn translating_mode_matches_software_walk() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        for page in 0..8u64 {
            let iova = Iova::from_virt(va + page * PAGE_SIZE + 16);
            let (pa, _) = iommu.translate(&mut mem, 1, iova, false).unwrap();
            assert_eq!(
                pa,
                space.translate(&mem, va + page * PAGE_SIZE + 16).unwrap()
            );
        }
    }

    #[test]
    fn iotlb_miss_costs_more_than_hit() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let iova = Iova::from_virt(va);
        let (_, miss_cycles) = iommu.translate(&mut mem, 1, iova, false).unwrap();
        let (_, hit_cycles) = iommu.translate(&mut mem, 1, iova + 64, false).unwrap();
        assert!(
            miss_cycles.raw() > 10 * hit_cycles.raw(),
            "miss {miss_cycles} should dwarf hit {hit_cycles}"
        );
        let stats = iommu.stats();
        assert_eq!(stats.iotlb.misses, 1);
        assert_eq!(stats.iotlb.hits, 1);
        assert_eq!(stats.ptw_walks, 1);
    }

    #[test]
    fn unmapped_iova_faults_and_is_recorded() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let bad = Iova::new(0x7FFF_0000);
        assert!(matches!(
            iommu.translate(&mut mem, 1, bad, true),
            Err(Error::IoPageFault { .. })
        ));
        assert_eq!(iommu.pending_faults(), 1);
        let fault = iommu.pop_fault().unwrap();
        assert_eq!(fault.iova, bad);
        assert_eq!(fault.reason, FaultReason::PageNotMapped);
        assert!(fault.is_write);
    }

    #[test]
    fn unknown_device_faults() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        assert!(matches!(
            iommu.translate(&mut mem, 9, Iova::from_virt(va), false),
            Err(Error::UnknownDevice { device_id: 9 })
        ));
        assert_eq!(iommu.pending_faults(), 1);
    }

    #[test]
    fn bypass_device_context_skips_translation() {
        let (mut mem, mut frames, _space, _) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_bypass_device(&mut mem, &mut frames, 2)
            .unwrap();
        let addr = Iova::new(0x7800_0000);
        let (pa, _) = iommu.translate(&mut mem, 2, addr, false).unwrap();
        assert_eq!(pa, PhysAddr::new(addr.raw()));
        assert_eq!(iommu.stats().bypassed, 1);
    }

    #[test]
    fn invalidation_forces_new_walks() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let iova = Iova::from_virt(va);
        iommu.translate(&mut mem, 1, iova, false).unwrap();
        assert_eq!(iommu.stats().ptw_walks, 1);
        iommu.translate(&mut mem, 1, iova, false).unwrap();
        assert_eq!(iommu.stats().ptw_walks, 1);

        iommu.process_command(Command::IotlbInvalidate {
            device_id: None,
            iova: None,
        });
        iommu.translate(&mut mem, 1, iova, false).unwrap();
        assert_eq!(iommu.stats().ptw_walks, 2);
    }

    #[test]
    fn small_iotlb_thrashes_on_wide_strides() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        // Touch 8 distinct pages twice; with only 4 IOTLB entries the second
        // sweep misses again.
        for _ in 0..2 {
            for page in 0..8u64 {
                let iova = Iova::from_virt(va + page * PAGE_SIZE);
                iommu.translate(&mut mem, 1, iova, false).unwrap();
            }
        }
        let stats = iommu.stats();
        assert_eq!(stats.iotlb.misses, 16);
        assert_eq!(stats.iotlb.hits, 0);
    }

    fn hierarchy_config() -> IommuConfig {
        IommuConfig {
            tlb_hierarchy: Some(TlbHierarchyConfig::default()),
            ..IommuConfig::default()
        }
    }

    #[test]
    fn hierarchy_l1_miss_fills_from_l2_and_walks_once() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::new(hierarchy_config());
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let iova = Iova::from_virt(va);

        // Cold: L1 miss, L2 miss, one walk; both levels fill.
        iommu.translate(&mut mem, 1, iova, false).unwrap();
        let s = iommu.stats();
        assert_eq!(s.atc.misses, 1);
        assert_eq!(s.iotlb.misses, 1);
        assert_eq!(s.ptw_walks, 1);
        assert!(iommu.atc(1).unwrap().probe(1, iova));
        assert!(iommu.iotlb().probe(1, iova));

        // Warm: L1 hit, L2 untouched, no walk.
        iommu.translate(&mut mem, 1, iova + 64, false).unwrap();
        let s = iommu.stats();
        assert_eq!(s.atc.hits, 1);
        assert_eq!(s.iotlb.total(), 1, "an L1 hit never reaches L2");
        assert_eq!(s.ptw_walks, 1);

        // Thrash the tiny L1 (4 entries) with 5 more pages, then return to
        // the first page: L1 misses, the 32-entry L2 still hits, no walk.
        for page in 1..6u64 {
            iommu
                .translate(&mut mem, 1, Iova::from_virt(va + page * PAGE_SIZE), false)
                .unwrap();
        }
        let walks_before = iommu.stats().ptw_walks;
        let l2_hits_before = iommu.stats().iotlb.hits;
        iommu.translate(&mut mem, 1, iova, false).unwrap();
        let s = iommu.stats();
        assert_eq!(s.ptw_walks, walks_before, "L2 hit avoids the walk");
        assert_eq!(s.iotlb.hits, l2_hits_before + 1);
    }

    #[test]
    fn hierarchy_charges_per_level_latencies() {
        // Zero out everything but the TLB lookup latencies so the cycle
        // delta between an L1 hit and an L2 hit is exactly the L2 knob.
        let config = IommuConfig {
            pipeline_latency: Cycles::ZERO,
            tlb_hierarchy: Some(TlbHierarchyConfig {
                l1: TlbLevelConfig::new(
                    TlbOrg::fully_associative(1),
                    ReplacementPolicy::TrueLru,
                    Cycles::new(3),
                ),
                l2: TlbLevelConfig::new(
                    TlbOrg::fully_associative(8),
                    ReplacementPolicy::TrueLru,
                    Cycles::new(11),
                ),
            }),
            ..IommuConfig::default()
        };
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::new(config);
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let a = Iova::from_virt(va);
        let b = Iova::from_virt(va + PAGE_SIZE);
        // Warm both pages (b last, so the 1-entry L1 holds b).
        iommu.translate(&mut mem, 1, a, false).unwrap();
        iommu.translate(&mut mem, 1, b, false).unwrap();
        // DC cache is warm now: a translation of b hits L1.
        let (_, l1_hit) = iommu.translate(&mut mem, 1, b, false).unwrap();
        // A translation of a misses L1 (holds b) but hits L2.
        let (_, l2_hit) = iommu.translate(&mut mem, 1, a, false).unwrap();
        assert_eq!(
            l2_hit - l1_hit,
            Cycles::new(11),
            "the L2 hit pays exactly the L2 lookup latency on top"
        );
    }

    #[test]
    fn hierarchy_invalidation_purges_both_levels() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::new(hierarchy_config());
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let iova = Iova::from_virt(va);
        iommu.translate(&mut mem, 1, iova, false).unwrap();
        assert!(iommu.atc(1).unwrap().probe(1, iova));
        assert!(iommu.iotlb().probe(1, iova));

        iommu.process_command(Command::IotlbInvalidate {
            device_id: Some(1),
            iova: Some(iova),
        });
        assert!(!iommu.atc(1).unwrap().probe(1, iova), "L1 purged");
        assert!(!iommu.iotlb().probe(1, iova), "L2 purged");
        let walks = iommu.stats().ptw_walks;
        iommu.translate(&mut mem, 1, iova, false).unwrap();
        assert_eq!(iommu.stats().ptw_walks, walks + 1, "re-walk after purge");
    }

    #[test]
    fn single_level_config_keeps_atc_stats_at_zero() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        iommu
            .translate(&mut mem, 1, Iova::from_virt(va), false)
            .unwrap();
        let s = iommu.stats();
        assert_eq!(s.atc.total(), 0);
        assert!(iommu.atc(1).is_none());
    }

    /// Satellite regression: fault records dropped at the full fault queue
    /// used to vanish silently — the drop counter now surfaces through
    /// `IommuStats::fault_records_dropped`.
    #[test]
    fn fault_queue_overflow_is_surfaced_not_silent() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::new(IommuConfig {
            fault_queue_entries: 2,
            ..IommuConfig::default()
        });
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        for i in 0..5u64 {
            let bad = Iova::new(0x7F00_0000 + i * PAGE_SIZE);
            assert!(iommu.translate(&mut mem, 1, bad, false).is_err());
        }
        assert_eq!(iommu.pending_faults(), 2, "queue holds its capacity");
        assert_eq!(
            iommu.stats().fault_records_dropped,
            3,
            "the three overflowed records are counted, not lost"
        );
        iommu.reset_stats();
        assert_eq!(iommu.stats().fault_records_dropped, 0);
    }

    #[test]
    fn page_request_groups_dedup_skip_mapped_and_overflow() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            page_request_entries: 4,
            ..IommuConfig::default()
        });
        // Attach against a *fresh* IO table so nothing is device-mapped.
        let io_table = sva_vm::PageTable::create(&mut frames).unwrap();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), io_table.root())
            .unwrap();
        assert!(iommu.demand_paging());

        // Map page 2 of 6 into the device table: the group must skip it.
        let pa = space.translate(&mem, va + 2 * PAGE_SIZE).unwrap();
        io_table
            .map_page(
                &mut mem,
                &mut frames,
                va + 2 * PAGE_SIZE,
                pa,
                sva_vm::PteFlags::user_rw(),
            )
            .unwrap();

        let iova = Iova::from_virt(va);
        let (queued, dropped) =
            iommu.enqueue_page_requests(&mem, 1, iova, 6 * PAGE_SIZE, false, Cycles::new(5));
        // 6 pages, one mapped → 5 candidates; the queue holds 4.
        assert_eq!(queued, 4);
        assert_eq!(dropped, 1);
        assert_eq!(iommu.pending_page_requests(), 4);
        let s = iommu.stats();
        assert_eq!(s.page_requests.requests, 4);
        assert_eq!(s.page_requests.dropped, 1);

        // Re-requesting the same range enqueues nothing new (dedup against
        // pending entries), but the tail page still drops.
        let (queued2, dropped2) =
            iommu.enqueue_page_requests(&mem, 1, iova, 6 * PAGE_SIZE, false, Cycles::new(9));
        assert_eq!(queued2, 0);
        assert_eq!(dropped2, 1);

        // The requests pop in page order and skip the mapped page.
        let pages: Vec<u64> = std::iter::from_fn(|| iommu.pop_page_request())
            .map(|r| (r.iova.raw() - iova.raw()) / PAGE_SIZE)
            .collect();
        assert_eq!(pages, vec![0, 1, 3, 4]);
    }

    #[test]
    fn write_groups_request_upgrades_for_read_only_pages() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        let io_table = sva_vm::PageTable::create(&mut frames).unwrap();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), io_table.root())
            .unwrap();
        // Map one page read-only into the device table.
        let va = sva_common::VirtAddr::new(0x4000_0000);
        let pa = frames.alloc_frame().unwrap();
        io_table
            .map_page(&mut mem, &mut frames, va, pa, sva_vm::PteFlags::user_ro())
            .unwrap();
        let iova = Iova::from_virt(va);
        // A read group has nothing to request: the page is accessible.
        let (queued, _) = iommu.enqueue_page_requests(&mem, 1, iova, 1, false, Cycles::ZERO);
        assert_eq!(queued, 0, "resident readable page needs no read request");
        // A write group must request the page so the host can upgrade the
        // mapping — a permission fault is serviceable, not just a missing
        // page.
        let (queued, _) = iommu.enqueue_page_requests(&mem, 1, iova, 1, true, Cycles::ZERO);
        assert_eq!(queued, 1, "read-only page needs a write page-request");
        let req = iommu.pop_page_request().unwrap();
        assert!(req.is_write);
    }

    #[test]
    fn serviced_page_requests_populate_the_pri_occupancy_timeline() {
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        // Two overlapping service windows and one later, disjoint one.
        iommu.note_page_request_serviced(Cycles::new(100), Cycles::new(500));
        iommu.note_page_request_serviced(Cycles::new(200), Cycles::new(400));
        iommu.note_page_request_serviced(Cycles::new(900), Cycles::new(1_000));
        assert_eq!(iommu.page_requests_in_flight_at(Cycles::new(300)), 2);
        assert_eq!(iommu.page_requests_in_flight_at(Cycles::new(450)), 1);
        assert_eq!(iommu.page_requests_in_flight_at(Cycles::new(600)), 0);
        assert_eq!(iommu.page_requests_in_flight_at(Cycles::new(950)), 1);
        let s = iommu.stats();
        assert_eq!(s.page_requests.serviced, 3);
        assert_eq!(s.page_request_peak_in_flight, 2);
        let mean = s.page_requests.service_time.mean();
        assert!((mean - (400.0 + 200.0 + 100.0) / 3.0).abs() < 1e-9);
        iommu.reset_stats();
        assert_eq!(iommu.page_requests_in_flight_at(Cycles::new(300)), 0);
        assert_eq!(iommu.stats().page_request_peak_in_flight, 0);
    }

    #[test]
    fn demand_paging_faults_bypass_the_fault_queue() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        assert!(iommu
            .translate(&mut mem, 1, Iova::new(0x7F00_0000), false)
            .is_err());
        assert_eq!(
            iommu.pending_faults(),
            0,
            "recoverable faults are reported through the page-request path"
        );
    }

    #[test]
    fn ddtp_register_reflects_attachment() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let (base, mode) = iommu.regs().ddtp();
        assert_eq!(base, iommu.ddt().unwrap().base());
        assert_eq!(mode, DDTP_MODE_1LVL);
    }
}
