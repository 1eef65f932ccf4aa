//! The cluster DMA engine.
//!
//! The ninth core of the Snitch cluster drives a DMA engine that moves tile
//! data between DRAM and the TCDM in long AXI bursts. Its interaction with
//! the IOMMU is the central mechanism of the paper's evaluation:
//!
//! * every burst is capped by the AXI maximum burst length and split at 4 KiB
//!   page boundaries;
//! * when the IOMMU translates, the first burst of every page presents a
//!   translation request; an IOTLB miss serialises the burst behind a
//!   multi-read page-table walk, reducing the engine's effective bandwidth;
//! * without the IOMMU, bursts address the physically contiguous reserved
//!   DRAM (or the LLC-bypass window) directly.
//!
//! The engine can keep a limited number of bursts outstanding; latency is
//! overlapped across them, but the data bus serialises the payloads.

use std::collections::VecDeque;

use sva_axi::BurstPlan;
use sva_common::{Cycles, Error, InitiatorId, Iova, PhysAddr, Result};
use sva_iommu::{Iommu, PageRequestHandler};
use sva_mem::{MemReq, MemorySystem};

use crate::tcdm::Tcdm;

/// Direction of a DMA transfer.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// DRAM → TCDM (input tile refill).
    ToTcdm,
    /// TCDM → DRAM (output tile write-back).
    FromTcdm,
}

/// One DMA transfer request as programmed by the kernel's DMA core.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DmaRequest {
    /// Transfer direction.
    pub dir: Direction,
    /// External address: an IO virtual address when the IOMMU translates, or
    /// a bus address (reserved DRAM / bypass window) otherwise.
    pub ext_addr: Iova,
    /// Destination (or source) offset inside the TCDM.
    pub tcdm_offset: u64,
    /// Transfer length in bytes.
    pub len: u64,
}

impl DmaRequest {
    /// Convenience constructor for an input transfer.
    pub const fn input(ext_addr: Iova, tcdm_offset: u64, len: u64) -> Self {
        Self {
            dir: Direction::ToTcdm,
            ext_addr,
            tcdm_offset,
            len,
        }
    }

    /// Convenience constructor for an output transfer.
    pub const fn output(ext_addr: Iova, tcdm_offset: u64, len: u64) -> Self {
        Self {
            dir: Direction::FromTcdm,
            ext_addr,
            tcdm_offset,
            len,
        }
    }
}

/// Configuration of the DMA engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DmaConfig {
    /// Maximum bytes per AXI burst (256 beats × 8 B).
    pub max_burst_bytes: u64,
    /// Maximum number of bursts kept in flight.
    pub max_outstanding: usize,
    /// Host-domain cycles to program one transfer descriptor.
    pub issue_overhead: Cycles,
    /// Device ID presented to the IOMMU for data traffic.
    pub device_id: u32,
    /// Arbitration priority the engine's bursts present at the fabric port
    /// (see `ArbitrationPolicy` in `sva_common`). Zero — the default — keeps
    /// the engine in the normal arbitration pool.
    pub priority: u8,
}

impl Default for DmaConfig {
    fn default() -> Self {
        Self {
            max_burst_bytes: 2048,
            max_outstanding: 2,
            issue_overhead: Cycles::new(20),
            device_id: 1,
            priority: 0,
        }
    }
}

/// Statistics accumulated by the DMA engine.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Transfer requests executed.
    pub requests: u64,
    /// AXI bursts issued.
    pub bursts: u64,
    /// Bytes moved in either direction.
    pub bytes: u64,
    /// Translation requests presented to the IOMMU.
    pub translations: u64,
    /// Cycles spent blocked on address translation.
    pub translation_cycles: u64,
    /// Cycles burst issue stalled waiting for a request-queue credit at the
    /// fabric port (the target channel's request FIFO was full). The stall
    /// pushes the engine's issue pipeline back — the next burst cannot
    /// issue while the current one waits for a credit — which is the
    /// upstream backpressure a split-transaction fabric exerts. Always zero
    /// with the default unbounded queue depths.
    pub issue_stall_cycles: u64,
    /// IO page faults the engine recovered from through the ATS/PRI
    /// stall-and-retry loop (always zero with demand paging off — faults
    /// are errors then).
    pub page_faults: u64,
    /// Cycles bursts stalled waiting for page-request group responses
    /// (fault detection → resume), including overflow backoff. The stall is
    /// charged **serially onto the batch completion time**, not into the
    /// burst issue schedule: bursts keep their fault-free placement on the
    /// contended fabric timelines, so a demand-paged run is always the
    /// matching pre-mapped run plus its fault-service time. (Re-timing
    /// issue instead de-correlates the DMA streams — staggered bursts can
    /// dodge each other's contention and report a *lower* contended wall
    /// clock than the pre-mapped run, which made the comparison lie.)
    pub fault_stall_cycles: u64,
    /// Total cycles the engine was busy (issue to last completion), summed
    /// over transfer batches.
    pub busy_cycles: u64,
}

/// The cluster DMA engine.
#[derive(Clone, Debug, Default)]
pub struct DmaEngine {
    config: DmaConfig,
    stats: DmaStats,
}

impl DmaEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: DmaConfig) -> Self {
        Self {
            config,
            stats: DmaStats::default(),
        }
    }

    /// The engine configuration.
    pub const fn config(&self) -> &DmaConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub const fn stats(&self) -> &DmaStats {
        &self.stats
    }

    /// Clears the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = DmaStats::default();
    }

    /// Executes a batch of transfer requests starting no earlier than
    /// `start`, moving the data between `mem` and `tcdm`, translating through
    /// `iommu`, and returns the completion time of the last burst.
    ///
    /// # Errors
    ///
    /// Propagates IO page faults from the IOMMU and out-of-range TCDM or
    /// memory accesses.
    pub fn execute(
        &mut self,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        tcdm: &mut Tcdm,
        requests: &[DmaRequest],
        start: Cycles,
    ) -> Result<Cycles> {
        self.execute_with_pri(mem, iommu, tcdm, requests, start, None)
    }

    /// [`DmaEngine::execute`] with an optional ATS/PRI page-request handler.
    ///
    /// With a handler present and demand paging configured on the IOMMU, a
    /// translation fault no longer aborts the transfer: the engine issues a
    /// **page-request group** covering the rest of the faulting transfer,
    /// **stalls** until the host's group response completes (plus a backoff
    /// penalty when the group overflowed the bounded page-request queue),
    /// and **retries** the translation — up to the IOMMU's
    /// `max_fault_retries` bound, after which the fault is terminal. The
    /// full round trip is charged **serially** onto the batch completion
    /// ([`DmaStats::fault_stall_cycles`]): the bursts keep the fault-free
    /// issue schedule on the fabric, and the accumulated fault-service time
    /// is added to the returned completion, so a cold-start demand-paged
    /// batch always finishes no earlier than its pre-mapped twin.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable IO page faults (no handler, demand paging
    /// off, retry budget exhausted, or the host has no backing mapping) and
    /// out-of-range TCDM or memory accesses.
    pub fn execute_with_pri(
        &mut self,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        tcdm: &mut Tcdm,
        requests: &[DmaRequest],
        start: Cycles,
        mut pri: Option<&mut (dyn PageRequestHandler + '_)>,
    ) -> Result<Cycles> {
        let mut issue_free = start;
        let mut data_bus_free = start;
        let mut completion = start;
        // Fault-service time accumulated across the batch. Charged serially
        // onto the completion below instead of pushing `issue_t` back, so
        // the bursts keep their fault-free fabric placement (see
        // [`DmaStats::fault_stall_cycles`]).
        let mut fault_stall = Cycles::ZERO;
        let mut outstanding: VecDeque<Cycles> = VecDeque::new();
        let mut buf = vec![0u8; self.config.max_burst_bytes as usize];

        for req in requests {
            self.stats.requests += 1;
            issue_free += self.config.issue_overhead;
            let plan = BurstPlan::split(
                PhysAddr::new(req.ext_addr.raw()),
                req.len,
                self.config.max_burst_bytes,
            );
            let mut done: u64 = 0;
            for (burst, _new_page) in plan.iter_with_new_page() {
                // Respect the outstanding-transaction limit.
                let mut issue_t = issue_free;
                if outstanding.len() >= self.config.max_outstanding {
                    let oldest = outstanding
                        .pop_front()
                        .expect("outstanding queue is non-empty");
                    issue_t = issue_t.max(oldest);
                }

                // Translation: the engine presents the burst address to the
                // IOMMU at its issue time, so an IOTLB miss's page-table
                // walk lands at the right point on the fabric timelines;
                // IOTLB hits are cheap, misses serialise the burst behind
                // the walk. Under demand paging a fault turns into an
                // ATS/PRI stall-and-retry instead of an error.
                let is_write = req.dir == Direction::FromTcdm;
                let mut attempts = 0u32;
                let (pa, trans) = loop {
                    match iommu.translate_at(
                        mem,
                        self.config.device_id,
                        Iova::new(burst.addr.raw()),
                        is_write,
                        issue_t,
                    ) {
                        Ok(res) => break res,
                        Err(fault @ Error::IoPageFault { .. }) => {
                            let recoverable = iommu.demand_paging() && pri.is_some();
                            attempts += 1;
                            if !recoverable || attempts > iommu.config().max_fault_retries {
                                // Under demand paging the IOMMU routed this
                                // fault to the page-request path; the device
                                // is giving up, so the terminal fault must
                                // still reach the driver's fault queue.
                                if iommu.demand_paging() {
                                    iommu.record_terminal_fault(
                                        self.config.device_id,
                                        Iova::new(burst.addr.raw()),
                                        is_write,
                                    );
                                }
                                return Err(fault);
                            }
                            let handler = pri.as_deref_mut().expect("recoverable implies handler");
                            // The device issues a page-request group for
                            // the rest of this transfer: the faulting page
                            // plus everything it is about to touch.
                            let (_, dropped) = iommu.enqueue_page_requests(
                                mem,
                                self.config.device_id,
                                Iova::new(burst.addr.raw()),
                                req.len - done,
                                is_write,
                                issue_t,
                            );
                            let mut resume = handler.service(mem, iommu, issue_t)?;
                            if dropped > 0 {
                                // The queue overflowed mid-group: the tail
                                // pages will re-fault, so the device backs
                                // off before retrying.
                                resume += iommu.config().page_request_backoff;
                            }
                            // Charge at least one cycle even if the host
                            // answered instantaneously.
                            resume = resume.max(issue_t + Cycles::new(1));
                            self.stats.page_faults += 1;
                            let stall = resume - issue_t;
                            self.stats.fault_stall_cycles += stall.raw();
                            fault_stall += stall;
                        }
                        Err(other) => return Err(other),
                    }
                };
                self.stats.translations += 1;
                self.stats.translation_cycles += trans.raw();
                issue_t += trans;

                // Data movement + timing. The engine presents its own device
                // identity and issue time at the fabric port, so per-cluster
                // contention is observable in the fabric statistics.
                let initiator = InitiatorId::dma(self.config.device_id);
                let chunk = &mut buf[..burst.len as usize];
                let priority = self.config.priority;
                let rsp = match req.dir {
                    Direction::ToTcdm => {
                        let rsp = mem.access(
                            MemReq::read(initiator, pa, chunk)
                                .burst()
                                .priority(priority)
                                .at(issue_t),
                        )?;
                        tcdm.write(req.tcdm_offset + done, chunk)?;
                        rsp
                    }
                    Direction::FromTcdm => {
                        tcdm.read(req.tcdm_offset + done, chunk)?;
                        mem.access(
                            MemReq::write(initiator, pa, chunk)
                                .burst()
                                .priority(priority)
                                .at(issue_t),
                        )?
                    }
                };
                let timing = rsp.timing;
                // Credit-based issue: if the target channel's request queue
                // was full, the burst sat at the fabric port for
                // `issue_stall` cycles before it could even enter the
                // fabric. The stall holds the engine's request channel —
                // the next burst cannot issue until the credit was granted
                // — which is how full channel FIFOs push contention
                // upstream into the engine. (When contention charging is
                // on, the stall is also part of the returned latency, so
                // the data path sees it too.)
                let credit_granted = issue_t + rsp.issue_stall;
                self.stats.issue_stall_cycles += rsp.issue_stall.raw();

                let data_start = (issue_t + timing.latency).max(data_bus_free);
                let burst_done = data_start + timing.occupancy;
                data_bus_free = burst_done;
                completion = completion.max(burst_done);
                outstanding.push_back(burst_done);

                // The request channel is free again shortly after the
                // request-queue credit was granted.
                issue_free = credit_granted + Cycles::new(1);

                self.stats.bursts += 1;
                self.stats.bytes += burst.len;
                done += burst.len;
            }
        }
        completion += fault_stall;
        self.stats.busy_cycles += (completion.saturating_sub(start)).raw();
        Ok(completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_axi::addrmap::{DRAM_BASE, LLC_BYPASS_OFFSET};
    use sva_common::PAGE_SIZE;
    use sva_iommu::IommuConfig;
    use sva_mem::MemSysConfig;
    use sva_vm::{AddressSpace, FrameAllocator};

    fn bypass_addr(offset: u64) -> Iova {
        Iova::new(DRAM_BASE + LLC_BYPASS_OFFSET + offset)
    }

    #[test]
    fn baseline_transfer_moves_data_both_ways() {
        let mut mem = MemorySystem::default();
        let mut iommu = Iommu::new(IommuConfig::disabled());
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(DmaConfig::default());

        // Put a pattern in DRAM, DMA it in, mangle it, DMA it out elsewhere.
        let src: Vec<u8> = (0..8192u32).map(|i| (i % 250) as u8).collect();
        mem.write_phys(PhysAddr::new(DRAM_BASE + 0x10_0000), &src)
            .unwrap();

        let t_in = dma
            .execute(
                &mut mem,
                &mut iommu,
                &mut tcdm,
                &[DmaRequest::input(bypass_addr(0x10_0000), 0, 8192)],
                Cycles::ZERO,
            )
            .unwrap();
        assert!(t_in.raw() > 0);
        let mut check = vec![0u8; 8192];
        tcdm.read(0, &mut check).unwrap();
        assert_eq!(check, src);

        dma.execute(
            &mut mem,
            &mut iommu,
            &mut tcdm,
            &[DmaRequest::output(bypass_addr(0x20_0000), 0, 8192)],
            t_in,
        )
        .unwrap();
        let mut out = vec![0u8; 8192];
        mem.read_phys(PhysAddr::new(DRAM_BASE + 0x20_0000), &mut out)
            .unwrap();
        assert_eq!(out, src);

        let stats = dma.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.bytes, 16384);
        assert_eq!(stats.bursts, 8);
        assert_eq!(stats.translation_cycles, 0, "disabled IOMMU is free");
    }

    #[test]
    fn translated_transfer_reads_scattered_user_pages() {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 4 * PAGE_SIZE)
            .unwrap();
        let data: Vec<u8> = (0..4 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        space.write_virt(&mut mem, va, &data).unwrap();

        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(DmaConfig::default());
        dma.execute(
            &mut mem,
            &mut iommu,
            &mut tcdm,
            &[DmaRequest::input(Iova::from_virt(va), 0, 4 * PAGE_SIZE)],
            Cycles::ZERO,
        )
        .unwrap();
        let mut check = vec![0u8; data.len()];
        tcdm.read(0, &mut check).unwrap();
        assert_eq!(check, data);
        assert_eq!(iommu.stats().iotlb.misses, 4);
        assert!(dma.stats().translation_cycles > 0);
    }

    #[test]
    fn translation_faults_propagate() {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(DmaConfig::default());
        let err = dma.execute(
            &mut mem,
            &mut iommu,
            &mut tcdm,
            &[DmaRequest::input(Iova::new(0x6666_0000), 0, 64)],
            Cycles::ZERO,
        );
        assert!(err.is_err());
    }

    /// The ATS/PRI loop end to end at the engine level: nothing is
    /// device-mapped up front, every page faults on first touch, the host
    /// servicer pages them in, and the transfer still completes with the
    /// right data — slower than the pre-mapped run, with the fault stalls
    /// accounted.
    #[test]
    fn demand_paged_transfer_stalls_retries_and_completes() {
        use sva_host::{FaultServicer, IommuDriver};
        use sva_iommu::TlbHierarchyConfig;
        use sva_vm::AddressSpace;

        let len = 8 * PAGE_SIZE;
        let run = |demand: bool| -> (Cycles, DmaStats, sva_iommu::IommuStats, Vec<u8>) {
            let mut mem = MemorySystem::default();
            let mut frames = FrameAllocator::linux_pool();
            let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
            let va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();
            let data: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
            space.write_virt(&mut mem, va, &data).unwrap();

            let mut iommu = Iommu::new(IommuConfig {
                demand_paging: demand,
                tlb_hierarchy: Some(TlbHierarchyConfig::default()),
                ..IommuConfig::default()
            });
            let mut cpu = sva_host::HostCpu::default();
            let mut driver = IommuDriver::default();
            driver
                .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
                .unwrap();
            if !demand {
                driver
                    .map_buffer(&mut cpu, &mut mem, &mut iommu, &space, &mut frames, va, len)
                    .unwrap();
            }

            let mut tcdm = Tcdm::default();
            let mut dma = DmaEngine::new(DmaConfig::default());
            let mut servicer = FaultServicer::new(&mut driver, &space, &mut frames);
            let done = dma
                .execute_with_pri(
                    &mut mem,
                    &mut iommu,
                    &mut tcdm,
                    &[DmaRequest::input(Iova::from_virt(va), 0, len)],
                    Cycles::ZERO,
                    Some(&mut servicer),
                )
                .unwrap();
            let mut check = vec![0u8; len as usize];
            tcdm.read(0, &mut check).unwrap();
            (done, *dma.stats(), iommu.stats(), check)
        };

        let (premapped_done, premapped_stats, _, premapped_data) = run(false);
        assert_eq!(
            premapped_stats.page_faults, 0,
            "pre-mapped run never faults"
        );
        let (demand_done, demand_stats, iommu_stats, demand_data) = run(true);

        assert_eq!(demand_data, premapped_data, "paged-in data is correct");
        assert!(demand_stats.page_faults > 0, "cold start must fault");
        assert!(demand_stats.fault_stall_cycles > 0);
        assert!(
            demand_done > premapped_done,
            "demand paging must cost cycles: {demand_done} vs {premapped_done}"
        );
        let pri = iommu_stats.page_requests;
        assert_eq!(pri.serviced, 8, "every page was paged in exactly once");
        assert_eq!(pri.failed, 0);
        assert!(pri.group_responses > 0);
        assert_eq!(pri.service_time.count(), 8);
        assert!(iommu_stats.page_request_p50 > 0);
        assert!(iommu_stats.page_request_p99 >= iommu_stats.page_request_p50);
    }

    /// A truly unmapped address (no host backing) stays a terminal fault
    /// even with demand paging and a handler: the bounded retry loop gives
    /// up.
    #[test]
    fn demand_paging_cannot_recover_bad_addresses() {
        use sva_host::{FaultServicer, IommuDriver};
        use sva_vm::AddressSpace;

        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            max_fault_retries: 3,
            ..IommuConfig::default()
        });
        let mut cpu = sva_host::HostCpu::default();
        let mut driver = IommuDriver::default();
        driver
            .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
            .unwrap();
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(DmaConfig::default());
        let mut servicer = FaultServicer::new(&mut driver, &space, &mut frames);
        let err = dma.execute_with_pri(
            &mut mem,
            &mut iommu,
            &mut tcdm,
            &[DmaRequest::input(Iova::new(0x6666_0000), 0, 64)],
            Cycles::ZERO,
            Some(&mut servicer),
        );
        assert!(matches!(err, Err(sva_common::Error::IoPageFault { .. })));
        assert!(
            iommu.stats().page_requests.failed > 0,
            "the host marked the unresolvable request failed"
        );
        // The abort is not silent: giving up records a terminal fault the
        // driver can observe on the fault queue.
        let fault = iommu.pop_fault().expect("terminal fault recorded");
        assert_eq!(fault.iova, Iova::new(0x6666_0000));
        assert_eq!(fault.reason, sva_iommu::FaultReason::PageNotMapped);
    }

    #[test]
    fn translation_stalls_increase_transfer_time() {
        // Same 64 KiB transfer: once from contiguous reserved DRAM without
        // translation, once through the IOMMU at high DRAM latency without
        // an LLC. The translated variant must be noticeably slower.
        let latency = 1000;
        let len = 16 * PAGE_SIZE;

        let mut mem_a = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            llc_enabled: false,
            ..MemSysConfig::default()
        });
        let mut iommu_a = Iommu::new(IommuConfig::disabled());
        let mut tcdm_a = Tcdm::default();
        let mut dma_a = DmaEngine::new(DmaConfig::default());
        let t_baseline = dma_a
            .execute(
                &mut mem_a,
                &mut iommu_a,
                &mut tcdm_a,
                &[DmaRequest::input(bypass_addr(0x40_0000), 0, len)],
                Cycles::ZERO,
            )
            .unwrap();

        let mut mem_b = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            llc_enabled: false,
            ..MemSysConfig::default()
        });
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem_b, &mut frames).unwrap();
        let va = space.alloc_buffer(&mut mem_b, &mut frames, len).unwrap();
        let mut iommu_b = Iommu::default();
        iommu_b
            .attach_device(&mut mem_b, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let mut tcdm_b = Tcdm::default();
        let mut dma_b = DmaEngine::new(DmaConfig::default());
        let t_translated = dma_b
            .execute(
                &mut mem_b,
                &mut iommu_b,
                &mut tcdm_b,
                &[DmaRequest::input(Iova::from_virt(va), 0, len)],
                Cycles::ZERO,
            )
            .unwrap();

        assert!(
            t_translated.raw() as f64 > t_baseline.raw() as f64 * 1.5,
            "translated {t_translated} should be much slower than baseline {t_baseline}"
        );
    }

    /// Queue-aware issue: under a split-transaction fabric with a one-slot
    /// request queue, an engine issuing into a bus already backed up by
    /// another initiator stalls at the port (its own waiting request holds
    /// the slot), and the stall is visible both in the engine's statistics
    /// and in the fabric's per-initiator row. With unbounded depths the
    /// same workload never stalls and the completion time matches the pure
    /// reservation model.
    #[test]
    fn shallow_request_queue_stalls_burst_issue() {
        let run = |bounded: bool| -> (Cycles, u64, u64) {
            let mut fabric = sva_mem::FabricConfig {
                contention_enabled: true,
                ..sva_mem::FabricConfig::default()
            };
            if bounded {
                fabric.req_queue_depth = 1;
                fabric.rsp_queue_depth = 1;
            }
            let mut mem = MemorySystem::new(MemSysConfig {
                dram_latency: Cycles::new(600),
                fabric,
                ..MemSysConfig::default()
            });
            let mut iommu = Iommu::new(IommuConfig::disabled());
            let mut tcdm = Tcdm::default();
            // Stream 1 saturates the bus first (shard order: it is placed
            // first-fit and never queues)...
            let mut dma_a = DmaEngine::new(DmaConfig {
                device_id: 1,
                ..DmaConfig::default()
            });
            dma_a
                .execute(
                    &mut mem,
                    &mut iommu,
                    &mut tcdm,
                    &[DmaRequest::input(bypass_addr(0), 0, 32 * 1024)],
                    Cycles::ZERO,
                )
                .unwrap();
            // ...then stream 2 issues the same transfer from the same local
            // zero: every burst queues behind stream 1's reservations, so
            // its waiting requests pile up at the one-slot request FIFO.
            let mut dma_b = DmaEngine::new(DmaConfig {
                device_id: 3,
                ..DmaConfig::default()
            });
            let done = dma_b
                .execute(
                    &mut mem,
                    &mut iommu,
                    &mut tcdm,
                    &[DmaRequest::input(bypass_addr(0x10_0000), 0, 32 * 1024)],
                    Cycles::ZERO,
                )
                .unwrap();
            let row = mem
                .fabric()
                .initiator_stats(sva_common::InitiatorId::dma(3))
                .unwrap();
            (
                done,
                dma_b.stats().issue_stall_cycles,
                row.issue_stall_cycles,
            )
        };
        let (unbounded_done, unbounded_stall, _) = run(false);
        assert_eq!(unbounded_stall, 0, "unbounded depths never stall");
        let (bounded_done, engine_stall, fabric_stall) = run(true);
        assert!(
            engine_stall > 0,
            "burst issue must stall at the full request queue"
        );
        assert_eq!(
            engine_stall, fabric_stall,
            "engine and fabric agree on the stall"
        );
        assert!(
            bounded_done >= unbounded_done,
            "backpressure cannot finish earlier: {bounded_done} vs {unbounded_done}"
        );
    }

    /// Regression (measurement windows must not leak credits): after
    /// `open_measurement_window`, a fresh engine re-running the same
    /// transfer from local cycle zero observes exactly what a fresh memory
    /// system would — stale queue entries and outstanding reservations from
    /// the previous window are gone, for the engine's stats and the
    /// fabric's alike.
    #[test]
    fn measurement_window_does_not_leak_credits_or_outstanding_entries() {
        let shallow_mem = || {
            MemorySystem::new(MemSysConfig {
                dram_latency: Cycles::new(600),
                fabric: sva_mem::FabricConfig {
                    contention_enabled: true,
                    req_queue_depth: 1,
                    rsp_queue_depth: 1,
                    ..sva_mem::FabricConfig::default()
                },
                ..MemSysConfig::default()
            })
        };
        // Runs one transfer on a private clone of `mem` (the probe must not
        // perturb the system it probes).
        let transfer = |mem: &MemorySystem, device_id: u32| -> (Cycles, u64) {
            let mut mem = mem.clone();
            let mut iommu = Iommu::new(IommuConfig::disabled());
            let mut tcdm = Tcdm::default();
            let mut dma = DmaEngine::new(DmaConfig {
                device_id,
                ..DmaConfig::default()
            });
            let done = dma
                .execute(
                    &mut mem,
                    &mut iommu,
                    &mut tcdm,
                    &[DmaRequest::input(bypass_addr(0), 0, 16 * 1024)],
                    Cycles::ZERO,
                )
                .unwrap();
            (done, dma.stats().issue_stall_cycles)
        };
        // Window 1: two engines congest the shallow queues.
        let mut mem = shallow_mem();
        {
            let mut iommu = Iommu::new(IommuConfig::disabled());
            let mut tcdm = Tcdm::default();
            for device in [1u32, 3] {
                DmaEngine::new(DmaConfig {
                    device_id: device,
                    ..DmaConfig::default()
                })
                .execute(
                    &mut mem,
                    &mut iommu,
                    &mut tcdm,
                    &[DmaRequest::input(bypass_addr(0), 0, 32 * 1024)],
                    Cycles::ZERO,
                )
                .unwrap();
            }
        }
        // Window 2 on the used system vs window 1 on a fresh system.
        mem.open_measurement_window();
        let used = transfer(&mem, 5);
        let fresh = transfer(&shallow_mem(), 5);
        assert_eq!(
            used, fresh,
            "a fresh window must behave like a fresh system (no leaked credits)"
        );
        // A cloned platform is equally independent: congesting the original
        // after the clone must not stall the clone.
        let mem_clone = mem.clone();
        {
            let mut iommu = Iommu::new(IommuConfig::disabled());
            let mut tcdm = Tcdm::default();
            DmaEngine::new(DmaConfig {
                device_id: 7,
                ..DmaConfig::default()
            })
            .execute(
                &mut mem,
                &mut iommu,
                &mut tcdm,
                &[DmaRequest::input(bypass_addr(0), 0, 32 * 1024)],
                Cycles::ZERO,
            )
            .unwrap();
        }
        let clone_run = transfer(&mem_clone, 5);
        assert_eq!(clone_run, fresh, "clones must not share credit queues");

        // Dropped-record carryover: a window that overflowed the fault
        // queue AND the PRI queue must not leak its drop counters or its
        // PRI occupancy into the next window's accounting. (The memory
        // half is `open_measurement_window` above; the IOMMU half is
        // `Iommu::reset_stats`, invoked per measurement window by the
        // offload runner.)
        let mut frames = FrameAllocator::linux_pool();
        let mut space_mem = MemorySystem::default();
        let space = AddressSpace::new(&mut space_mem, &mut frames).unwrap();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            fault_queue_entries: 2,
            page_request_entries: 2,
            ..IommuConfig::default()
        });
        iommu
            .attach_device(&mut space_mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        // Overflow the fault queue with terminal faults (what the bounded
        // PRI retry loop records when it gives up on an address).
        for i in 0..5u64 {
            let bad = Iova::new(0x7F00_0000 + i * sva_common::PAGE_SIZE);
            iommu.record_terminal_fault(1, bad, false);
        }
        // Overflow the 2-entry PRI queue with a 4-page group and leave its
        // serviced entries on the occupancy timeline.
        let (enqueued, dropped) = iommu.enqueue_page_requests(
            &space_mem,
            1,
            Iova::new(0x7F10_0000),
            4 * sva_common::PAGE_SIZE,
            false,
            Cycles::new(10),
        );
        assert_eq!((enqueued, dropped), (2, 2), "2-entry queue drops the rest");
        while iommu.pop_page_request().is_some() {}
        iommu.note_page_request_serviced(Cycles::new(10), Cycles::new(500));
        let dirty = iommu.stats();
        assert!(dirty.fault_records_dropped > 0);
        assert!(dirty.page_requests.dropped > 0);
        assert!(dirty.page_request_peak_in_flight > 0);

        // Next window: every drop counter and the PRI occupancy restart
        // from zero, exactly like a fresh IOMMU's.
        space_mem.open_measurement_window();
        iommu.reset_stats();
        let next = iommu.stats();
        assert_eq!(next.fault_records_dropped, 0, "fault drops carried over");
        assert_eq!(next.page_requests.dropped, 0, "PRI drops carried over");
        assert_eq!(next.page_requests.requests, 0);
        assert_eq!(next.page_requests.service_time.count(), 0);
        assert_eq!(
            next.page_request_peak_in_flight, 0,
            "PRI occupancy timeline carried over"
        );
    }

    #[test]
    fn outstanding_bursts_overlap_latency() {
        let run = |outstanding: usize| -> u64 {
            let mut mem = MemorySystem::new(MemSysConfig {
                dram_latency: Cycles::new(1000),
                ..MemSysConfig::default()
            });
            let mut iommu = Iommu::new(IommuConfig::disabled());
            let mut tcdm = Tcdm::default();
            let mut dma = DmaEngine::new(DmaConfig {
                max_outstanding: outstanding,
                ..DmaConfig::default()
            });
            dma.execute(
                &mut mem,
                &mut iommu,
                &mut tcdm,
                &[DmaRequest::input(bypass_addr(0), 0, 32 * 1024)],
                Cycles::ZERO,
            )
            .unwrap()
            .raw()
        };
        let serial = run(1);
        let pipelined = run(4);
        assert!(
            pipelined * 2 < serial,
            "4 outstanding bursts ({pipelined}) should be at least 2x faster than 1 ({serial})"
        );
    }
}
