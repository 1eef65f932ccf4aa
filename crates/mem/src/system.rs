//! The composed memory system: crossbar + LLC + L2 SPM + DRAM behind the
//! unified initiator-facing fabric port of the platform.
//!
//! Every initiator reaches memory through the single [`MemorySystem::access`]
//! entry point, presenting a [`MemReq`] that names the initiator
//! ([`InitiatorId`]) and carries the payload buffer. The fabric routes the
//! access by the initiator's *class*:
//!
//! * **host** (CVA6 through its L1): cached DRAM goes through the LLC,
//!   the reserved contiguous DMA area and the L2 SPM are uncached;
//! * **PTW** (the IOMMU page-table walker): reads that go through the LLC
//!   when it is present (this is the architectural property the paper
//!   leverages to make SVA cheap);
//! * **DMA** (one initiator per accelerator cluster): bursts that normally
//!   use the LLC-bypass window straight to DRAM; routing them through the
//!   LLC is possible for ablation (`llc_serves_dma`).
//!
//! Arbitration and per-initiator accounting live in [`crate::fabric`].
//! [`MemorySystem::host_read`] and [`MemorySystem::host_write`] are
//! shorthands over [`MemorySystem::access`] for the host core's cached
//! loads and stores.
//!
//! Every access arrives at a definite point on the platform's global
//! simulation clock ([`sva_common::GlobalClock`], shared in via
//! [`MemorySystem::attach_clock`]): callers that track their own pipeline
//! stamp an explicit issue time, everything else is stamped with the
//! clock's current reading, and the clock advances to each access's
//! completion — there is no untimed traffic.
//!
//! All timed accesses also move functional data, so kernels computing on the
//! simulated memory can be verified bit-exactly against host references.

use sva_axi::addrmap::{AddressMap, RegionKind, DRAM_SIZE};
use sva_axi::{AccessKind, BusConfig, Crossbar, MasterPort, MemTxn};
use sva_common::stats::Counter;
use sva_common::{
    Cycles, Error, GlobalClock, InitiatorClass, InitiatorId, MemPortReq, PhysAddr, PortTiming,
    Result, CACHE_LINE_SIZE,
};

use crate::backing::SparseMemory;
use crate::channels::ChannelStats;
use crate::dram::{Dram, DramConfig, DramTiming};
use crate::fabric::{Fabric, FabricConfig, InitiatorSnapshot};
use crate::interference::{Interference, InterferenceConfig};
use crate::llc::{Llc, LlcConfig, LlcRequester};
use crate::spm::{Scratchpad, ScratchpadConfig};

/// Timing of a DMA burst: latency to first data plus bus occupancy, so the
/// DMA engine can model outstanding-transaction pipelining.
pub type BurstTiming = DramTiming;

/// Configuration of the whole memory system.
#[derive(Clone, Debug, PartialEq)]
pub struct MemSysConfig {
    /// Extra DRAM latency inserted by the AXI delayer (the paper's knob).
    pub dram_latency: Cycles,
    /// Fixed DDR controller latency.
    pub controller_latency: Cycles,
    /// Whether the LLC is instantiated at all.
    pub llc_enabled: bool,
    /// LLC geometry.
    pub llc: LlcConfig,
    /// Whether IOMMU page-table-walk traffic is cached by the LLC
    /// (the paper's proposal; disabling it is an ablation).
    pub llc_serves_ptw: bool,
    /// Whether device DMA traffic is cached by the LLC (the paper argues it
    /// must *not* be; enabling it is an ablation).
    pub llc_serves_dma: bool,
    /// L2 scratchpad configuration.
    pub spm: ScratchpadConfig,
    /// Bus geometry between initiators and memory.
    pub bus: BusConfig,
    /// Extra fixed cost of an uncached posted write as seen by the host
    /// (store-buffer drain amortisation).
    pub posted_write_cost: Cycles,
    /// Fabric arbitration layer (per-initiator accounting, optional
    /// contention charging).
    pub fabric: FabricConfig,
}

impl Default for MemSysConfig {
    fn default() -> Self {
        Self {
            dram_latency: Cycles::new(200),
            controller_latency: DramConfig::FPGA_CONTROLLER_LATENCY,
            llc_enabled: true,
            llc: LlcConfig::default(),
            llc_serves_ptw: true,
            llc_serves_dma: false,
            spm: ScratchpadConfig::default(),
            bus: BusConfig::AXI64,
            posted_write_cost: Cycles::new(16),
            fabric: FabricConfig::default(),
        }
    }
}

/// Payload of a fabric access: the buffer data moves through.
///
/// The buffer length is authoritative for the access length.
#[derive(Debug)]
pub enum MemData<'a> {
    /// Read `buf.len()` bytes from memory into the buffer.
    ReadInto(&'a mut [u8]),
    /// Write the buffer's bytes to memory.
    WriteFrom(&'a [u8]),
}

/// One access presented at the unified fabric port of [`MemorySystem`].
#[derive(Debug)]
pub struct MemReq<'a> {
    /// The access descriptor (initiator, direction, address, burstiness,
    /// priority). Its `len` is overwritten from the payload buffer and its
    /// `arrival` from [`MemReq::start`] (or the global clock).
    pub port: MemPortReq,
    /// Initiator-local issue time, when the caller tracks one (DMA bursts,
    /// page-table walks, the host-traffic stream). `None` does **not** mean
    /// "untimed" — the memory system stamps the access with the current
    /// global-clock reading, so every grant arrives at a definite point on
    /// the shared virtual timeline.
    pub start: Option<Cycles>,
    /// The payload buffer.
    pub data: MemData<'a>,
}

impl<'a> MemReq<'a> {
    /// A read of `buf.len()` bytes at `addr` on behalf of `initiator`.
    pub fn read(initiator: InitiatorId, addr: PhysAddr, buf: &'a mut [u8]) -> Self {
        Self {
            port: MemPortReq::read(initiator, addr, buf.len() as u64),
            start: None,
            data: MemData::ReadInto(buf),
        }
    }

    /// A write of `buf` at `addr` on behalf of `initiator`.
    pub fn write(initiator: InitiatorId, addr: PhysAddr, buf: &'a [u8]) -> Self {
        Self {
            port: MemPortReq::write(initiator, addr, buf.len() as u64),
            start: None,
            data: MemData::WriteFrom(buf),
        }
    }

    /// Marks the access as a streaming burst (separate latency/occupancy).
    #[must_use]
    pub fn burst(mut self) -> Self {
        self.port = self.port.as_burst();
        self
    }

    /// Attaches the initiator-local issue time of the access.
    #[must_use]
    pub fn at(mut self, start: Cycles) -> Self {
        self.start = Some(start);
        self
    }

    /// Sets the arbitration priority.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.port = self.port.with_priority(priority);
        self
    }
}

/// Response of a fabric access.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemRsp {
    /// Latency to first data and data-bus occupancy of the access. When
    /// [`FabricConfig::contention_enabled`] is set, the latency includes the
    /// queueing delay and any issue stall.
    pub timing: PortTiming,
    /// Cross-initiator queueing delay the access observed on the shared-bus
    /// timeline at its admission time (bus contention plus waiting for a
    /// response-queue slot).
    pub queue_delay: Cycles,
    /// Stall between the access's arrival and its request-queue admission —
    /// the channel's request FIFO was full, so the *issue* of the access
    /// was held at the fabric port. Initiators that pipeline their own
    /// issue (the DMA engines) must propagate this upstream: the next
    /// request cannot issue while this one waits for a credit. Always zero
    /// with the default unbounded queue depths.
    pub issue_stall: Cycles,
}

impl MemRsp {
    /// Latency to first data.
    pub const fn latency(&self) -> Cycles {
        self.timing.latency
    }

    /// Total blocking time (latency + occupancy).
    pub fn total(&self) -> Cycles {
        self.timing.total()
    }
}

/// Aggregate statistics of the memory system.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSysStats {
    /// Timed host accesses served.
    pub host_accesses: u64,
    /// Timed PTW accesses served.
    pub ptw_accesses: u64,
    /// Timed DMA bursts served.
    pub dma_bursts: u64,
    /// Bytes moved by DMA bursts.
    pub dma_bytes: u64,
    /// Whole-LLC flushes performed.
    pub llc_flushes: u64,
}

/// The composed memory system of the prototype platform.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    config: MemSysConfig,
    map: AddressMap,
    xbar: Crossbar,
    dram: Dram,
    dram_store: SparseMemory,
    spm: Scratchpad,
    llc: Option<Llc>,
    interference: Option<Interference>,
    fabric: Fabric,
    stats: MemSysStats,
    host_stall_cycles: Counter,
    /// The global simulation clock: stamps accesses whose caller does not
    /// track an issue time, and is advanced to the completion of every
    /// grant. The platform shares one clock across all its components via
    /// [`MemorySystem::attach_clock`].
    clock: GlobalClock,
}

impl MemorySystem {
    /// Builds a memory system from a configuration, using the prototype
    /// address map.
    pub fn new(config: MemSysConfig) -> Self {
        let dram_cfg = DramConfig {
            controller_latency: config.controller_latency,
            delayer_latency: config.dram_latency,
            bus: config.bus,
        };
        Self {
            map: AddressMap::prototype(),
            xbar: Crossbar::new(),
            dram: Dram::new(dram_cfg),
            dram_store: SparseMemory::new(DRAM_SIZE),
            spm: Scratchpad::new(config.spm),
            llc: config.llc_enabled.then(|| Llc::new(config.llc)),
            interference: None,
            fabric: Fabric::new(config.fabric.clone()),
            stats: MemSysStats::default(),
            host_stall_cycles: Counter::new(),
            clock: GlobalClock::new(),
            config,
        }
    }

    /// Shares the platform's global clock with this memory system (replacing
    /// the private clock created by [`MemorySystem::new`]).
    pub fn attach_clock(&mut self, clock: &GlobalClock) {
        self.clock = clock.clone();
    }

    /// The global clock this memory system stamps accesses with.
    pub const fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// Opens a new measurement window: drops every fabric channel's
    /// reservations (statistics survive) and restarts the global clock, so
    /// initiator-local cursors restarting at zero do not collide with
    /// reservations stamped in the previous window.
    pub fn open_measurement_window(&mut self) {
        self.fabric.clear_timelines();
        self.clock.restart();
    }

    /// Folds fabric reservations (and channel-queue entries) that finish at
    /// or before `watermark` out of the placement index, keeping long
    /// steady-state windows O(live reservations).
    ///
    /// # Contract
    ///
    /// The caller guarantees no future access arrives before the watermark
    /// (see [`Fabric::compact_before`]). On the platform that holds when a
    /// device measurement window closes — every later access is stamped
    /// from the monotone global clock — and between open-loop serving
    /// batches driven off one monotone arrival process. It does **not**
    /// hold mid-window while cluster shards with restarting local cursors
    /// are still being simulated.
    pub fn compact_fabric_before(&mut self, watermark: Cycles) {
        self.fabric.compact_before(watermark);
    }

    /// The configuration this system was built with.
    pub const fn config(&self) -> &MemSysConfig {
        &self.config
    }

    /// The SoC address map.
    pub const fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The LLC, if instantiated.
    pub fn llc(&self) -> Option<&Llc> {
        self.llc.as_ref()
    }

    /// Mutable access to the LLC, if instantiated.
    pub fn llc_mut(&mut self) -> Option<&mut Llc> {
        self.llc.as_mut()
    }

    /// The DRAM timing model.
    pub const fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The crossbar (per-master traffic statistics).
    pub const fn crossbar(&self) -> &Crossbar {
        &self.xbar
    }

    /// Aggregate access statistics.
    pub const fn stats(&self) -> &MemSysStats {
        &self.stats
    }

    /// The fabric arbitration layer (per-initiator statistics).
    pub const fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Per-initiator fabric statistics, in registration order.
    pub fn fabric_stats(&self) -> Vec<InitiatorSnapshot> {
        self.fabric.snapshot()
    }

    /// Per-channel DRAM statistics, indexed by channel.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.fabric.channel_stats()
    }

    /// Installs (or removes) the synthetic host-interference stream.
    pub fn set_interference(&mut self, config: Option<InterferenceConfig>) {
        self.interference = config.map(Interference::new);
    }

    /// The interference model, if installed.
    pub fn interference(&self) -> Option<&Interference> {
        self.interference.as_ref()
    }

    /// Resets all statistics (contents and cache state are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = MemSysStats::default();
        self.xbar.reset_stats();
        self.dram.reset_stats();
        self.fabric.reset();
        self.host_stall_cycles.reset();
        if let Some(llc) = &mut self.llc {
            llc.reset_stats();
        }
    }

    // ------------------------------------------------------------------
    // Functional (untimed) access
    // ------------------------------------------------------------------

    fn backing_for(&self, addr: PhysAddr, len: u64) -> Result<(RegionKind, u64)> {
        let d = self.map.decode(addr)?;
        match d.kind {
            RegionKind::DramCached | RegionKind::DramBypass | RegionKind::L2Spm => {
                // Whole access must fit in the region; decode the end too.
                if len > 1 {
                    self.map.decode(addr + (len - 1))?;
                }
                Ok((d.kind, d.offset))
            }
            RegionKind::Cluster | RegionKind::IommuRegs => Err(Error::BusDecodeError { addr }),
        }
    }

    /// Functional read from an already-decoded backing region.
    fn read_backing(&self, kind: RegionKind, offset: u64, buf: &mut [u8]) -> Result<()> {
        match kind {
            RegionKind::L2Spm => self.spm.storage().read(offset, buf),
            _ => self.dram_store.read(offset, buf),
        }
    }

    /// Functional write to an already-decoded backing region.
    fn write_backing(&mut self, kind: RegionKind, offset: u64, buf: &[u8]) -> Result<()> {
        match kind {
            RegionKind::L2Spm => self.spm.storage_mut().write(offset, buf),
            _ => self.dram_store.write(offset, buf),
        }
    }

    /// Functional read of `buf.len()` bytes at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BusDecodeError`] if the address does not decode to a
    /// memory-backed region.
    pub fn read_phys(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        let (kind, offset) = self.backing_for(addr, buf.len() as u64)?;
        self.read_backing(kind, offset, buf)
    }

    /// Functional write of `buf` at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BusDecodeError`] if the address does not decode to a
    /// memory-backed region.
    pub fn write_phys(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<()> {
        let (kind, offset) = self.backing_for(addr, buf.len() as u64)?;
        self.write_backing(kind, offset, buf)
    }

    /// Functional read of a little-endian `u64` (page-table entries), on the
    /// backing store's typed single-frame fast path.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from [`MemorySystem::read_phys`].
    pub fn read_u64_phys(&self, addr: PhysAddr) -> Result<u64> {
        let (kind, offset) = self.backing_for(addr, 8)?;
        match kind {
            RegionKind::L2Spm => self.spm.storage().read_u64(offset),
            _ => self.dram_store.read_u64(offset),
        }
    }

    /// Functional write of a little-endian `u64` (the driver's page-table
    /// stores), on the backing store's typed single-frame fast path.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from [`MemorySystem::write_phys`].
    pub fn write_u64_phys(&mut self, addr: PhysAddr, value: u64) -> Result<()> {
        let (kind, offset) = self.backing_for(addr, 8)?;
        match kind {
            RegionKind::L2Spm => self.spm.storage_mut().write_u64(offset, value),
            _ => self.dram_store.write_u64(offset, value),
        }
        .map(|_| ())
    }

    /// Functional read of a little-endian `f32` (kernel pre-pass element
    /// reads), on the backing store's typed single-frame fast path.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from [`MemorySystem::read_phys`].
    pub fn read_f32_phys(&self, addr: PhysAddr) -> Result<f32> {
        let (kind, offset) = self.backing_for(addr, 4)?;
        match kind {
            RegionKind::L2Spm => self.spm.storage().read_f32(offset),
            _ => self.dram_store.read_f32(offset),
        }
    }

    /// Functional write of a little-endian `f32`, on the backing store's
    /// typed single-frame fast path.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from [`MemorySystem::write_phys`].
    pub fn write_f32_phys(&mut self, addr: PhysAddr, value: f32) -> Result<()> {
        let (kind, offset) = self.backing_for(addr, 4)?;
        match kind {
            RegionKind::L2Spm => self.spm.storage_mut().write_f32(offset, value),
            _ => self.dram_store.write_f32(offset, value),
        }
    }

    // ------------------------------------------------------------------
    // Timed access paths
    // ------------------------------------------------------------------

    fn llc_path_enabled_for(&self, requester: LlcRequester, addr: PhysAddr) -> bool {
        if self.llc.is_none() {
            return false;
        }
        let policy = match requester {
            LlcRequester::Host => true,
            LlcRequester::Ptw => self.config.llc_serves_ptw,
            LlcRequester::Dma => self.config.llc_serves_dma,
        };
        policy && self.map.is_llc_cacheable(addr)
    }

    /// Applies interference pressure around one device-side (PTW or DMA)
    /// access and returns the queueing delay to add.
    fn interference_penalty(&mut self, service: Cycles) -> Cycles {
        let Some(intf) = &mut self.interference else {
            return Cycles::ZERO;
        };
        let delay = intf.queue_delay(service);
        // Host traffic evicts lines from the shared LLC.
        let hot_base = PhysAddr::new(sva_axi::addrmap::DRAM_BASE);
        let hot_len = 32 * 1024 * 1024;
        let addrs = intf.pollution_addresses(hot_base, hot_len);
        if let Some(llc) = &mut self.llc {
            for a in addrs {
                llc.access(LlcRequester::Host, a, true);
            }
        }
        delay
    }

    /// Timed access through a cache-line-granular LLC path. Returns the total
    /// latency of touching every line covered by `[addr, addr+len)`.
    fn llc_access(
        &mut self,
        requester: LlcRequester,
        kind: AccessKind,
        addr: PhysAddr,
        len: u64,
    ) -> Cycles {
        let llc_hit_latency = self
            .llc
            .as_ref()
            .map(Llc::hit_latency)
            .unwrap_or(Cycles::ZERO);
        let line = CACHE_LINE_SIZE;
        let mut total = Cycles::ZERO;
        let mut cur = addr.align_down(line);
        let end = addr + len.max(1);
        while cur < end {
            let outcome = self
                .llc
                .as_mut()
                .expect("llc_access called without an LLC")
                .access(requester, cur, kind.is_write());
            total += llc_hit_latency;
            if let Some(wb) = outcome.writeback() {
                // Posted write-back: occupies the DRAM bus but does not stall
                // the requester beyond the bus occupancy.
                let t = self.dram.access(AccessKind::Write, line);
                let _ = wb;
                total += t.occupancy;
            }
            if !outcome.is_hit() {
                let t = self.dram.access(AccessKind::Read, line);
                total += t.total();
            }
            cur += line;
        }
        total
    }

    /// The single timed entry point of the memory fabric.
    ///
    /// Moves the payload functionally, computes the timing of the access
    /// according to the initiator's class and the region's policy, passes the
    /// grant through the fabric arbiter (per-initiator accounting, optional
    /// contention charging) and updates the aggregate statistics. Every
    /// access arrives at a definite point on the global clock: either the
    /// caller's issue time ([`MemReq::start`]) or the clock's current
    /// reading; the clock is advanced to the access's completion.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the access does not decode to a
    /// memory-backed region.
    pub fn access(&mut self, req: MemReq<'_>) -> Result<MemRsp> {
        let MemReq {
            mut port,
            start,
            data,
        } = req;
        let (kind, len) = match &data {
            MemData::ReadInto(buf) => (AccessKind::Read, buf.len() as u64),
            MemData::WriteFrom(buf) => (AccessKind::Write, buf.len() as u64),
        };
        port.len = len;
        port.arrival = start.unwrap_or_else(|| self.clock.now());
        // One address decode serves the whole access: the functional move,
        // the routing and the class-timing policy all consume the same
        // `(region, offset)` — the former per-stage re-decodes were
        // invariant per access and provably timing-neutral to hoist (the
        // decode is pure; the pinned goldens hold bit-identical).
        let (region, offset) = self.backing_for(port.addr, len)?;
        match data {
            MemData::ReadInto(buf) => self.read_backing(region, offset, buf)?,
            MemData::WriteFrom(buf) => self.write_backing(region, offset, buf)?,
        }

        let class = port.initiator.class();
        let master = match class {
            InitiatorClass::Host => MasterPort::Host,
            InitiatorClass::Device => MasterPort::Device,
            InitiatorClass::Ptw => MasterPort::Ptw,
        };
        let txn = match kind {
            AccessKind::Read => MemTxn::read(port.addr, len),
            AccessKind::Write => MemTxn::write(port.addr, len),
        };
        let hop = self.xbar.route(master, &txn);
        let mut timing = self.class_timing(class, kind, region, port.addr, len, hop);

        let outcome = self.fabric.admit(&port, timing);
        let queue = outcome.queue;
        let stall = outcome.issue_stall;
        // Charging rule: DMA queueing is charged whenever contention
        // charging is on (the PR 1/2 model); host and PTW queueing is only
        // charged when the global-clock engine additionally times those
        // classes, so the default configuration stays cycle-identical to
        // the pre-clock model. Issue stalls (request-queue backpressure)
        // follow the same rule: charged into the returned latency so a
        // caller that blocks on latency observes them, while the DMA
        // engines additionally push their issue cursor back.
        let charged = self.config.fabric.contention_enabled
            && (class == InitiatorClass::Device || self.config.fabric.timed_host_ptw);
        if charged {
            timing.latency += queue + stall;
        }
        self.fabric.note_latency(port.initiator, timing.latency);
        // Completion on the global clock; when the delays were charged they
        // are already part of the latency.
        let completion =
            port.arrival + timing.total() + if charged { Cycles::ZERO } else { queue + stall };
        self.clock.advance_to(completion);

        match class {
            InitiatorClass::Host => {
                self.stats.host_accesses += 1;
                self.host_stall_cycles.add(timing.latency.raw());
            }
            InitiatorClass::Ptw => self.stats.ptw_accesses += 1,
            InitiatorClass::Device => {
                self.stats.dma_bursts += 1;
                self.stats.dma_bytes += len;
            }
        }
        Ok(MemRsp {
            timing,
            queue_delay: queue,
            issue_stall: stall,
        })
    }

    /// The request-queue credit port serving `addr` — the handle an
    /// initiator holds to observe (or reason about) the backlog of the
    /// channel it issues into. Clones share the fabric's queue state.
    pub fn req_port_for(&self, addr: PhysAddr) -> sva_common::CreditPort {
        self.fabric.req_port_for(addr)
    }

    /// Timing of one access by initiator class, mirroring the three paths of
    /// the prototype (Figure 1): cached host traffic, LLC-served page-table
    /// walks and bypassing DMA bursts.
    ///
    /// Under the global-clock engine ([`FabricConfig::timed_host_ptw`]) host
    /// and PTW accesses additionally reserve their payload beats on the
    /// shared data path, so they block (and are blocked by) concurrent
    /// traffic; the reservation is a deliberate simplification that applies
    /// even to LLC-served accesses (standing in for the shared downstream
    /// bus). Their reported *latency* is unaffected by the extra occupancy —
    /// host/PTW callers block on latency alone.
    fn class_timing(
        &mut self,
        class: InitiatorClass,
        kind: AccessKind,
        region: RegionKind,
        addr: PhysAddr,
        len: u64,
        hop: Cycles,
    ) -> PortTiming {
        let host_ptw_occupancy = if self.config.fabric.timed_host_ptw {
            Cycles::new(self.config.bus.beats_for(len).max(1))
        } else {
            Cycles::ZERO
        };
        match class {
            InitiatorClass::Host => {
                let path = match region {
                    RegionKind::L2Spm => self.spm.access_latency(),
                    _ if self.llc_path_enabled_for(LlcRequester::Host, addr) => {
                        self.llc_access(LlcRequester::Host, kind, addr, len)
                    }
                    _ if kind.is_write() => {
                        // Posted uncached write: the host only pays the bus
                        // occupancy plus a small store-buffer cost.
                        let t = self.dram.access(AccessKind::Write, len);
                        t.occupancy + self.config.posted_write_cost
                    }
                    _ => self.dram.access(kind, len).total(),
                };
                PortTiming {
                    latency: hop + path,
                    occupancy: host_ptw_occupancy,
                }
            }
            InitiatorClass::Ptw => {
                let base = if self.llc_path_enabled_for(LlcRequester::Ptw, addr) {
                    self.llc_access(LlcRequester::Ptw, kind, addr, len)
                } else {
                    self.dram.access(kind, len).total()
                };
                let penalty = self.interference_penalty(base);
                PortTiming {
                    latency: hop + base + penalty,
                    occupancy: host_ptw_occupancy,
                }
            }
            InitiatorClass::Device => {
                let t = self.dma_burst_timing(kind, region, addr, len, hop);
                PortTiming {
                    latency: t.latency,
                    occupancy: t.occupancy,
                }
            }
        }
    }

    /// Timed + functional host read. Returns the latency seen by the host
    /// (excluding its own L1, which is modelled by the host crate).
    ///
    /// Shorthand for [`MemorySystem::access`] on the host port.
    ///
    /// # Errors
    ///
    /// Returns a decode error if `addr` is not memory-backed.
    pub fn host_read(&mut self, addr: PhysAddr, buf: &mut [u8]) -> Result<Cycles> {
        let rsp = self.access(MemReq::read(InitiatorId::Host, addr, buf))?;
        Ok(rsp.latency())
    }

    /// Timed + functional host write.
    ///
    /// Writes to uncached regions are posted: the host only pays the bus
    /// occupancy plus a small store-buffer cost, not the full DRAM latency.
    ///
    /// Shorthand for [`MemorySystem::access`] on the host port.
    ///
    /// # Errors
    ///
    /// Returns a decode error if `addr` is not memory-backed.
    pub fn host_write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<Cycles> {
        let rsp = self.access(MemReq::write(InitiatorId::Host, addr, buf))?;
        Ok(rsp.latency())
    }

    fn dma_burst_timing(
        &mut self,
        kind: AccessKind,
        region: RegionKind,
        addr: PhysAddr,
        len: u64,
        hop: Cycles,
    ) -> BurstTiming {
        let mut timing = match region {
            RegionKind::L2Spm => BurstTiming {
                latency: self.spm.access_latency(),
                occupancy: Cycles::new(self.config.bus.beats_for(len)),
            },
            _ if self.llc_path_enabled_for(LlcRequester::Dma, addr) => {
                // Ablation path: DMA through the LLC. The burst is broken into
                // line refills, so the whole cost counts as latency (no long
                // streaming window) — exactly the bandwidth loss the paper's
                // bypass avoids.
                let total = self.llc_access(LlcRequester::Dma, kind, addr, len);
                BurstTiming {
                    latency: total,
                    occupancy: Cycles::new(self.config.bus.beats_for(len)),
                }
            }
            _ => self.dram.access(kind, len),
        };
        timing.latency += hop;
        timing.latency += self.interference_penalty(timing.latency);
        timing
    }

    /// Flushes the whole LLC (Listing 1 of the paper) and returns the time it
    /// takes: an index walk plus the posted write-back of every dirty line.
    pub fn flush_llc(&mut self) -> Cycles {
        let Some(llc) = &mut self.llc else {
            return Cycles::ZERO;
        };
        let line = llc.line_bytes();
        let sets_walk = Cycles::new(llc.config().size_bytes / line / 4);
        let dirty = llc.flush_all();
        self.stats.llc_flushes += 1;
        let mut cost = sets_walk;
        for _ in 0..dirty {
            let t = self.dram.access(AccessKind::Write, line);
            cost += t.occupancy;
        }
        cost
    }

    /// Total stall cycles the host has accumulated in this memory system.
    pub fn host_stall_cycles(&self) -> Cycles {
        Cycles::new(self.host_stall_cycles.get())
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self::new(MemSysConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_axi::addrmap::{DRAM_BASE, L2_SPM_BASE, LLC_BYPASS_OFFSET};

    /// An 8-byte read on the page-table-walk port: `(value, latency)`.
    fn pte_read(m: &mut MemorySystem, addr: PhysAddr) -> (u64, Cycles) {
        let mut buf = [0u8; 8];
        let rsp = m.access(MemReq::read(InitiatorId::Ptw, addr, &mut buf));
        (u64::from_le_bytes(buf), rsp.unwrap().latency())
    }

    /// A DMA burst read on device 0's port.
    fn dma_read(m: &mut MemorySystem, addr: PhysAddr, buf: &mut [u8]) -> PortTiming {
        let req = MemReq::read(InitiatorId::dma(0), addr, buf).burst();
        m.access(req).unwrap().timing
    }

    fn sys(latency: u64, llc: bool) -> MemorySystem {
        MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            llc_enabled: llc,
            ..MemSysConfig::default()
        })
    }

    #[test]
    fn functional_roundtrip_both_dram_windows() {
        let mut m = sys(200, true);
        let cached = PhysAddr::new(DRAM_BASE + 0x1000);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x1000);
        m.write_phys(cached, &[7u8; 16]).unwrap();
        let mut buf = [0u8; 16];
        // The bypass window aliases the same DRAM cells.
        m.read_phys(bypass, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
    }

    #[test]
    fn functional_spm_is_separate_from_dram() {
        let mut m = sys(200, true);
        m.write_phys(PhysAddr::new(L2_SPM_BASE), &[1u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        m.read_phys(PhysAddr::new(DRAM_BASE), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn decode_error_for_device_regions() {
        let mut m = sys(200, true);
        assert!(m.write_phys(PhysAddr::new(0x10), &[0u8; 4]).is_err());
        let mut buf = [0u8; 4];
        assert!(m
            .read_phys(PhysAddr::new(sva_axi::addrmap::IOMMU_REGS_BASE), &mut buf)
            .is_err());
    }

    #[test]
    fn host_read_hits_llc_after_first_access() {
        let mut m = sys(600, true);
        let addr = PhysAddr::new(DRAM_BASE + 0x4000);
        let mut buf = [0u8; 8];
        let cold = m.host_read(addr, &mut buf).unwrap();
        let warm = m.host_read(addr, &mut buf).unwrap();
        assert!(cold.raw() > 600, "cold access should pay DRAM latency");
        assert!(warm.raw() < 40, "warm access should hit in the LLC");
    }

    #[test]
    fn host_read_without_llc_always_pays_dram_latency() {
        let mut m = sys(600, false);
        let addr = PhysAddr::new(DRAM_BASE + 0x4000);
        let mut buf = [0u8; 8];
        let first = m.host_read(addr, &mut buf).unwrap();
        let second = m.host_read(addr, &mut buf).unwrap();
        assert!(first.raw() > 600);
        assert!(second.raw() > 600);
    }

    #[test]
    fn reserved_dram_is_uncached_for_host() {
        let mut m = sys(600, true);
        let addr = m.map().reserved_dram_base();
        let mut buf = [0u8; 8];
        let a = m.host_read(addr, &mut buf).unwrap();
        let b = m.host_read(addr, &mut buf).unwrap();
        assert!(a.raw() > 600 && b.raw() > 600);
    }

    #[test]
    fn posted_uncached_writes_are_cheap() {
        let mut m = sys(1000, true);
        let addr = m.map().reserved_dram_base();
        let lat = m.host_write(addr, &[0u8; 64]).unwrap();
        assert!(
            lat.raw() < 100,
            "posted write should not pay full latency, got {lat}"
        );
    }

    #[test]
    fn ptw_reads_benefit_from_llc() {
        let mut with_llc = sys(1000, true);
        let mut without = sys(1000, false);
        let pte_addr = PhysAddr::new(DRAM_BASE + 0x2000);
        with_llc.write_u64_phys(pte_addr, 0x55).unwrap();
        without.write_u64_phys(pte_addr, 0x55).unwrap();

        // Warm the LLC the way the driver does (host writes the PTE).
        let mut buf = [0u8; 8];
        with_llc.host_read(pte_addr, &mut buf).unwrap();

        let (v1, t1) = pte_read(&mut with_llc, pte_addr);
        let (v2, t2) = pte_read(&mut without, pte_addr);
        assert_eq!(v1, 0x55);
        assert_eq!(v2, 0x55);
        assert!(
            t1.raw() < 40,
            "PTW through warm LLC should be fast, got {t1}"
        );
        assert!(
            t2.raw() > 1000,
            "PTW without LLC pays DRAM latency, got {t2}"
        );
    }

    #[test]
    fn ptw_can_be_excluded_from_llc() {
        let mut m = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(1000),
            llc_enabled: true,
            llc_serves_ptw: false,
            ..MemSysConfig::default()
        });
        let pte_addr = PhysAddr::new(DRAM_BASE + 0x2000);
        let mut buf = [0u8; 8];
        m.host_read(pte_addr, &mut buf).unwrap();
        let (_, t) = pte_read(&mut m, pte_addr);
        assert!(t.raw() > 1000);
    }

    #[test]
    fn dma_burst_moves_data_and_reports_timing() {
        let mut m = sys(200, true);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x10_0000);
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        let write = MemReq::write(InitiatorId::dma(0), bypass, &data).burst();
        let tw = m.access(write).unwrap().timing;
        let mut back = vec![0u8; 2048];
        let tr = dma_read(&mut m, bypass, &mut back);
        assert_eq!(back, data);
        assert_eq!(tr.occupancy, Cycles::new(256));
        assert!(tr.latency.raw() > 200);
        assert!(tw.latency.raw() > 0);
        assert_eq!(m.stats().dma_bursts, 2);
        assert_eq!(m.stats().dma_bytes, 4096);
    }

    #[test]
    fn dma_bypass_does_not_touch_llc() {
        let mut m = sys(200, true);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET);
        let mut buf = [0u8; 64];
        dma_read(&mut m, bypass, &mut buf);
        assert_eq!(m.llc().unwrap().stats(LlcRequester::Dma).total(), 0);
    }

    #[test]
    fn dma_through_llc_ablation_breaks_bursts() {
        let mut ablate = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(600),
            llc_serves_dma: true,
            ..MemSysConfig::default()
        });
        let mut normal = sys(600, true);
        // Cached window address so the ablation path actually caches it.
        let addr = PhysAddr::new(DRAM_BASE + 0x20_0000);
        let mut buf = vec![0u8; 2048];
        let t_ablate = dma_read(&mut ablate, addr, &mut buf);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x20_0000);
        let t_normal = dma_read(&mut normal, bypass, &mut buf);
        // Refilling 32 lines sequentially is far slower than one long burst.
        assert!(t_ablate.latency.raw() > 4 * t_normal.latency.raw());
        assert!(ablate.llc().unwrap().stats(LlcRequester::Dma).total() > 0);
    }

    #[test]
    fn llc_flush_cost_scales_with_dirty_lines() {
        let mut m = sys(200, true);
        let empty_flush = m.flush_llc();
        for i in 0..64u64 {
            m.host_write(PhysAddr::new(DRAM_BASE + i * 64), &[1u8; 8])
                .unwrap();
        }
        let dirty_flush = m.flush_llc();
        assert!(dirty_flush > empty_flush);
        assert_eq!(m.stats().llc_flushes, 2);
    }

    #[test]
    fn flush_llc_without_llc_is_free() {
        let mut m = sys(200, false);
        assert_eq!(m.flush_llc(), Cycles::ZERO);
    }

    #[test]
    fn interference_slows_down_ptw() {
        let pte_addr = PhysAddr::new(DRAM_BASE + 0x3000);
        let run = |interf: bool| -> u64 {
            let mut m = sys(600, false);
            if interf {
                m.set_interference(Some(InterferenceConfig::default()));
            }
            let mut total = 0;
            for i in 0..200u64 {
                let (_, t) = pte_read(&mut m, pte_addr + i * 8);
                total += t.raw();
            }
            total
        };
        let quiet = run(false);
        let noisy = run(true);
        assert!(
            noisy as f64 > quiet as f64 * 1.1,
            "interference should add queueing delay: quiet={quiet} noisy={noisy}"
        );
    }

    /// Window boundary: `open_measurement_window` must reset the fabric's
    /// compaction watermark and live index alongside reservations and
    /// credits — the new window's cycle 0 is reservable again — while the
    /// folded-reservation run total survives like every other statistic.
    #[test]
    fn open_measurement_window_resets_fabric_compaction_state() {
        let mut m = sys(200, true);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x10_0000);
        let mut buf = [0u8; 2048];
        for _ in 0..4 {
            dma_read(&mut m, bypass, &mut buf);
            m.clock().advance(Cycles::new(2000));
        }
        m.compact_fabric_before(m.clock().now());
        assert!(m.fabric().compacted_events() > 0, "history was folded");
        assert!(m.fabric().watermark() > Cycles::ZERO);
        let folded = m.fabric().compacted_events();
        m.open_measurement_window();
        assert_eq!(m.fabric().watermark(), Cycles::ZERO, "watermark resets");
        assert_eq!(m.fabric().event_count(), 0, "live index drops");
        assert_eq!(m.fabric().compacted_events(), folded, "run total survives");
        // Cycle 0 of the new window — far below the old watermark — takes a
        // fresh reservation without queueing.
        dma_read(&mut m, bypass, &mut buf);
        assert_eq!(m.fabric().event_count(), 1);
        assert_eq!(m.fabric().total().queue_cycles, 0);
    }

    #[test]
    fn stats_reset() {
        let mut m = sys(200, true);
        let mut buf = [0u8; 8];
        m.host_read(PhysAddr::new(DRAM_BASE), &mut buf).unwrap();
        assert_eq!(m.stats().host_accesses, 1);
        m.reset_stats();
        assert_eq!(m.stats().host_accesses, 0);
        assert_eq!(m.crossbar().total_transactions(), 0);
    }
}
