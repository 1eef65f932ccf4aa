//! The double-buffered kernel executor.
//!
//! The executor plays the role of the cluster's runtime: it walks the
//! kernel's tiles, keeps the DMA engine working one tile ahead of the compute
//! cores (double buffering), and accounts time in two regions exactly as the
//! paper does:
//!
//! * **DMA wait** — cycles the compute cores spend stalled because the data
//!   they need has not arrived (or final results are still draining);
//! * **compute** — cycles spent executing the tile on the PEs.
//!
//! With double buffering and a compute-bound kernel the DMA-wait region tends
//! to zero even when megabytes are transferred; with the IOMMU enabled and no
//! LLC, translation stalls eat into the overlap and the DMA-wait region grows
//! — that difference is Table II.

use sva_common::{Cycles, Error, GlobalClock, Result};
use sva_iommu::{Iommu, PageRequestHandler};
use sva_mem::MemorySystem;

use crate::dma::{DmaConfig, DmaEngine, DmaStats};
use crate::kernel::{DeviceKernel, TileCtx};
use crate::pe::ClusterGeometry;
use crate::tcdm::Tcdm;

/// Configuration of the cluster executor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Cluster geometry (PE count, TCDM size).
    pub geometry: ClusterGeometry,
    /// DMA engine configuration.
    pub dma: DmaConfig,
    /// Whether tile transfers are overlapped with compute (double buffering).
    /// Disabling it is an ablation; all paper experiments have it on.
    pub double_buffer: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            geometry: ClusterGeometry::default(),
            dma: DmaConfig::default(),
            double_buffer: true,
        }
    }
}

/// Timing breakdown of one kernel run on the cluster.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelRunStats {
    /// Total runtime of the kernel on the device.
    pub total: Cycles,
    /// Cycles the compute cores spent waiting for DMA transfers.
    pub dma_wait: Cycles,
    /// Cycles spent computing tiles.
    pub compute: Cycles,
    /// Number of tiles executed.
    pub tiles: u64,
    /// DMA engine statistics for this run.
    pub dma: DmaStats,
}

impl KernelRunStats {
    /// Fraction of the runtime spent waiting for DMA (the "% DMA" rows of
    /// Table II).
    pub fn dma_fraction(&self) -> f64 {
        self.dma_wait.fraction_of(self.total)
    }

    /// Merges the per-shard breakdowns of one kernel run sharded across
    /// parallel clusters: the wall-clock `total` is the slowest shard, while
    /// compute, DMA-wait, tile and DMA-engine counters aggregate across
    /// shards. With a single shard this is the identity.
    pub fn merge_parallel(shards: &[KernelRunStats]) -> KernelRunStats {
        let mut merged = KernelRunStats::default();
        for s in shards {
            merged.total = merged.total.max(s.total);
            merged.dma_wait += s.dma_wait;
            merged.compute += s.compute;
            merged.tiles += s.tiles;
            merged.dma.requests += s.dma.requests;
            merged.dma.bursts += s.dma.bursts;
            merged.dma.bytes += s.dma.bytes;
            merged.dma.translations += s.dma.translations;
            merged.dma.translation_cycles += s.dma.translation_cycles;
            merged.dma.issue_stall_cycles += s.dma.issue_stall_cycles;
            merged.dma.page_faults += s.dma.page_faults;
            merged.dma.fault_stall_cycles += s.dma.fault_stall_cycles;
            merged.dma.busy_cycles += s.dma.busy_cycles;
        }
        merged
    }
}

/// The cluster executor: TCDM + DMA engine + run loop.
#[derive(Debug)]
pub struct ClusterExecutor {
    config: ClusterConfig,
    tcdm: Tcdm,
    dma: DmaEngine,
    /// The cluster's local cursor on the shared virtual timeline. Every
    /// shard of an offload restarts its cursor at zero when a run begins —
    /// shards execute concurrently in simulated time even though they are
    /// simulated sequentially — so each executor keeps its own
    /// [`GlobalClock`] instance rather than sharing the platform's.
    clock: GlobalClock,
}

impl Clone for ClusterExecutor {
    /// Clones get their own time cursor ([`GlobalClock`] handles share
    /// their counter, and a cursor must belong to exactly one executor);
    /// the cursor is restarted at every run, so no reading is carried over.
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            tcdm: self.tcdm.clone(),
            dma: self.dma.clone(),
            clock: GlobalClock::new(),
        }
    }
}

impl ClusterExecutor {
    /// Creates an executor with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        Self {
            tcdm: Tcdm::new(config.geometry.tcdm_bytes),
            dma: DmaEngine::new(config.dma),
            clock: GlobalClock::new(),
            config,
        }
    }

    /// The executor configuration.
    pub const fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster's TCDM (e.g. to pre-load lookup tables in tests).
    pub fn tcdm_mut(&mut self) -> &mut Tcdm {
        &mut self.tcdm
    }

    /// Runs a kernel to completion and returns its timing breakdown.
    ///
    /// # Errors
    ///
    /// Propagates IOMMU faults and TCDM/memory range errors.
    pub fn run(
        &mut self,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        kernel: &mut dyn DeviceKernel,
    ) -> Result<KernelRunStats> {
        self.run_with_pri(mem, iommu, kernel, None)
    }

    /// [`ClusterExecutor::run`] with an optional ATS/PRI page-request
    /// handler: every DMA batch of the tile loop can recover from IO page
    /// faults through the handler's stall-and-retry loop (demand paging).
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable IOMMU faults and TCDM/memory range errors.
    pub fn run_with_pri(
        &mut self,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        kernel: &mut dyn DeviceKernel,
        mut pri: Option<&mut (dyn PageRequestHandler + '_)>,
    ) -> Result<KernelRunStats> {
        self.dma.reset_stats();
        let n = kernel.num_tiles();
        let mut stats = KernelRunStats {
            tiles: n as u64,
            ..KernelRunStats::default()
        };
        if n == 0 {
            // Empty shard (static block scheduling can hand a cluster zero
            // tiles): snapshot the engine accounting like the normal exit
            // path does, so both exits report the same way.
            stats.dma = *self.dma.stats();
            return Ok(stats);
        }

        // The cluster's cursor on the shared virtual timeline: every shard
        // restarts at zero (shards of one offload run concurrently in
        // simulated time).
        self.clock.restart();
        let device_id = self.config.dma.device_id;
        // Completion time of the input transfers of each tile.
        let mut input_ready: Vec<Option<Cycles>> = vec![None; n];

        // Prefetch the first tile. `dma_free` tracks the completion time of
        // the most recently issued DMA batch; the engine processes batches in
        // issue order. Each tile is planned (address-generation pre-pass on
        // shared functional memory) before its descriptors are first read;
        // under cold-start demand paging the pre-pass pages its reads in
        // through the ATS/PRI handler and the wait lands on the critical
        // path like any other stall.
        let stall =
            Self::plan_tile_with_pri(kernel, 0, mem, iommu, device_id, &mut pri, self.clock.now())?;
        if stall > Cycles::ZERO {
            stats.dma_wait += stall;
            self.clock.advance(stall);
        }
        let first_io = kernel.tile_io(0);
        let mut dma_free = self.dma.execute_with_pri(
            mem,
            iommu,
            &mut self.tcdm,
            &first_io.inputs,
            self.clock.now(),
            pri.as_deref_mut(),
        )?;
        input_ready[0] = Some(dma_free);

        for tile in 0..n {
            // Wait for this tile's inputs.
            let ready = input_ready[tile].expect("inputs of the current tile were issued");
            if ready > self.clock.now() {
                stats.dma_wait += ready - self.clock.now();
                self.clock.advance_to(ready);
            }

            // Kick off the next tile's inputs so they overlap with compute.
            if self.config.double_buffer && tile + 1 < n {
                let stall = Self::plan_tile_with_pri(
                    kernel,
                    tile + 1,
                    mem,
                    iommu,
                    device_id,
                    &mut pri,
                    self.clock.now(),
                )?;
                if stall > Cycles::ZERO {
                    stats.dma_wait += stall;
                    self.clock.advance(stall);
                }
                let next_io = kernel.tile_io(tile + 1);
                dma_free = self.dma.execute_with_pri(
                    mem,
                    iommu,
                    &mut self.tcdm,
                    &next_io.inputs,
                    self.clock.now().max(dma_free),
                    pri.as_deref_mut(),
                )?;
                input_ready[tile + 1] = Some(dma_free);
            }

            // Compute the tile.
            let compute = kernel.compute_tile(tile, &mut self.tcdm)?;
            stats.compute += compute;
            self.clock.advance(compute);

            // Write back this tile's outputs (overlaps with the next tile's
            // compute when double buffering).
            let io = kernel.tile_io(tile);
            dma_free = self.dma.execute_with_pri(
                mem,
                iommu,
                &mut self.tcdm,
                &io.outputs,
                self.clock.now().max(dma_free),
                pri.as_deref_mut(),
            )?;

            if !self.config.double_buffer {
                // Single-buffered ablation: wait for the write-back before
                // reusing the buffers, and only then fetch the next tile.
                if dma_free > self.clock.now() {
                    stats.dma_wait += dma_free - self.clock.now();
                    self.clock.advance_to(dma_free);
                }
                if tile + 1 < n {
                    let stall = Self::plan_tile_with_pri(
                        kernel,
                        tile + 1,
                        mem,
                        iommu,
                        device_id,
                        &mut pri,
                        self.clock.now(),
                    )?;
                    if stall > Cycles::ZERO {
                        stats.dma_wait += stall;
                        self.clock.advance(stall);
                    }
                    let next_io = kernel.tile_io(tile + 1);
                    dma_free = self.dma.execute_with_pri(
                        mem,
                        iommu,
                        &mut self.tcdm,
                        &next_io.inputs,
                        self.clock.now().max(dma_free),
                        pri.as_deref_mut(),
                    )?;
                    input_ready[tile + 1] = Some(dma_free);
                }
            }
        }

        // Drain the final write-backs.
        if dma_free > self.clock.now() {
            stats.dma_wait += dma_free - self.clock.now();
            self.clock.advance_to(dma_free);
        }

        stats.total = self.clock.now();
        stats.dma = *self.dma.stats();
        Ok(stats)
    }

    /// Runs the kernel's address-generation pre-pass for `tile`, recovering
    /// from cold-start demand-paging faults exactly like a faulting DMA
    /// burst: an unmapped plan-pass read enqueues a page request, waits for
    /// the host's group response (plus overflow backoff), and retries the
    /// plan — bounded by the IOMMU's `max_fault_retries` per attempt chain,
    /// after which the fault is terminal and recorded on the fault queue.
    /// Returns the cycles the pre-pass stalled waiting for page-ins (zero
    /// when nothing faulted). Without a handler, or with demand paging off,
    /// a fault propagates unchanged.
    ///
    /// This is what makes data-dependent kernels (the sort kernel's
    /// merge-path pre-pass) work under cold-start demand paging: the plan
    /// reads run *before* the first DMA touch, so without the fault-in loop
    /// they would hit unmapped pages and abort the offload.
    #[allow(clippy::too_many_arguments)] // mirrors the DMA fault loop's inputs
    fn plan_tile_with_pri(
        kernel: &mut dyn DeviceKernel,
        tile: usize,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        device_id: u32,
        pri: &mut Option<&mut (dyn PageRequestHandler + '_)>,
        now: Cycles,
    ) -> Result<Cycles> {
        let mut stall = Cycles::ZERO;
        // The retry budget is per faulting address: one plan pass may
        // legitimately fault on many *distinct* pages in sequence (each
        // page-in lets the pre-pass read further), so the counter resets
        // whenever the faulting address makes progress.
        let mut attempts = 0u32;
        let mut last_fault = None;
        loop {
            match kernel.plan_tile(tile, &TileCtx::new(mem, iommu, device_id)) {
                Ok(()) => return Ok(stall),
                Err(fault @ Error::IoPageFault { iova, is_write }) => {
                    let recoverable = iommu.demand_paging() && pri.is_some();
                    if last_fault != Some(iova) {
                        attempts = 0;
                        last_fault = Some(iova);
                    }
                    attempts += 1;
                    if !recoverable || attempts > iommu.config().max_fault_retries {
                        if iommu.demand_paging() {
                            iommu.record_terminal_fault(device_id, iova, is_write);
                        }
                        return Err(fault);
                    }
                    let handler = pri.as_deref_mut().expect("recoverable implies handler");
                    let t = now + stall;
                    // One page per request: the pre-pass reads single
                    // elements (there is no "rest of the transfer" to
                    // prefetch, unlike the DMA fault path).
                    let (_, dropped) =
                        iommu.enqueue_page_requests(mem, device_id, iova, 1, is_write, t);
                    let mut resume = handler.service(mem, iommu, t)?;
                    if dropped > 0 {
                        resume += iommu.config().page_request_backoff;
                    }
                    resume = resume.max(t + Cycles::new(1));
                    stall += resume - t;
                }
                Err(other) => return Err(other),
            }
        }
    }
}

impl Default for ClusterExecutor {
    fn default() -> Self {
        Self::new(ClusterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::DmaRequest;
    use crate::kernel::TileIo;
    use sva_axi::addrmap::{DRAM_BASE, LLC_BYPASS_OFFSET};
    use sva_common::Iova;
    use sva_common::PhysAddr;
    use sva_iommu::IommuConfig;
    use sva_mem::MemSysConfig;

    /// A synthetic kernel that streams `tiles` tiles of `tile_bytes` each and
    /// spends a configurable number of compute cycles per tile, doubling
    /// every value it touches.
    struct StreamKernel {
        tiles: usize,
        tile_bytes: u64,
        compute_per_tile: Cycles,
        src: u64,
        dst: u64,
    }

    impl DeviceKernel for StreamKernel {
        fn name(&self) -> &str {
            "stream"
        }

        fn num_tiles(&self) -> usize {
            self.tiles
        }

        fn tile_io(&self, tile: usize) -> TileIo {
            let buf = (tile % 2) as u64 * self.tile_bytes;
            let off = tile as u64 * self.tile_bytes;
            TileIo {
                inputs: vec![DmaRequest::input(
                    Iova::new(self.src + off),
                    buf,
                    self.tile_bytes,
                )],
                outputs: vec![DmaRequest::output(
                    Iova::new(self.dst + off),
                    buf,
                    self.tile_bytes,
                )],
            }
        }

        fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
            let buf = (tile % 2) as u64 * self.tile_bytes;
            for i in 0..self.tile_bytes / 4 {
                let v = tcdm.read_f32(buf + i * 4);
                tcdm.write_f32(buf + i * 4, v * 2.0);
            }
            Ok(self.compute_per_tile)
        }
    }

    fn setup(latency: u64) -> (MemorySystem, Iommu) {
        let mem = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            ..MemSysConfig::default()
        });
        let iommu = Iommu::new(IommuConfig::disabled());
        (mem, iommu)
    }

    fn bypass(offset: u64) -> u64 {
        DRAM_BASE + LLC_BYPASS_OFFSET + offset
    }

    #[test]
    fn kernel_computes_correct_results() {
        let (mut mem, mut iommu) = setup(200);
        let n_f32 = 4096usize;
        let src_vals: Vec<f32> = (0..n_f32).map(|i| i as f32).collect();
        let bytes: Vec<u8> = src_vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.write_phys(PhysAddr::new(DRAM_BASE + 0x10_0000), &bytes)
            .unwrap();

        let mut kernel = StreamKernel {
            tiles: 8,
            tile_bytes: (n_f32 * 4 / 8) as u64,
            compute_per_tile: Cycles::new(500),
            src: bypass(0x10_0000),
            dst: bypass(0x20_0000),
        };
        let mut exec = ClusterExecutor::default();
        let stats = exec.run(&mut mem, &mut iommu, &mut kernel).unwrap();

        let mut out = vec![0u8; bytes.len()];
        mem.read_phys(PhysAddr::new(DRAM_BASE + 0x20_0000), &mut out)
            .unwrap();
        for (i, chunk) in out.chunks_exact(4).enumerate() {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(v, 2.0 * i as f32, "element {i}");
        }
        assert_eq!(stats.tiles, 8);
        assert_eq!(stats.compute, Cycles::new(4000));
        assert!(stats.total > stats.compute);
        assert_eq!(stats.dma.bytes, 2 * bytes.len() as u64);
    }

    #[test]
    fn compute_bound_kernel_hides_dma() {
        let (mut mem, mut iommu) = setup(200);
        let mut kernel = StreamKernel {
            tiles: 16,
            tile_bytes: 2048,
            compute_per_tile: Cycles::new(20_000),
            src: bypass(0),
            dst: bypass(0x100_0000),
        };
        let mut exec = ClusterExecutor::default();
        let stats = exec.run(&mut mem, &mut iommu, &mut kernel).unwrap();
        assert!(
            stats.dma_fraction() < 0.05,
            "compute-bound kernel should hide DMA, got {:.1}%",
            stats.dma_fraction() * 100.0
        );
    }

    #[test]
    fn memory_bound_kernel_waits_for_dma() {
        let (mut mem, mut iommu) = setup(1000);
        let mut kernel = StreamKernel {
            tiles: 16,
            tile_bytes: 8192,
            compute_per_tile: Cycles::new(100),
            src: bypass(0),
            dst: bypass(0x100_0000),
        };
        let mut exec = ClusterExecutor::default();
        let stats = exec.run(&mut mem, &mut iommu, &mut kernel).unwrap();
        assert!(
            stats.dma_fraction() > 0.5,
            "memory-bound kernel should be dominated by DMA, got {:.1}%",
            stats.dma_fraction() * 100.0
        );
    }

    #[test]
    fn dma_wait_grows_with_memory_latency() {
        let run = |latency| {
            let (mut mem, mut iommu) = setup(latency);
            let mut kernel = StreamKernel {
                tiles: 8,
                tile_bytes: 8192,
                compute_per_tile: Cycles::new(2_000),
                src: bypass(0),
                dst: bypass(0x100_0000),
            };
            let mut exec = ClusterExecutor::default();
            exec.run(&mut mem, &mut iommu, &mut kernel).unwrap()
        };
        let fast = run(200);
        let slow = run(1000);
        assert!(slow.dma_wait > fast.dma_wait);
        assert!(slow.total > fast.total);
        assert_eq!(slow.compute, fast.compute);
    }

    #[test]
    fn double_buffering_beats_single_buffering() {
        let run = |double_buffer| {
            let (mut mem, mut iommu) = setup(600);
            let mut kernel = StreamKernel {
                tiles: 16,
                tile_bytes: 4096,
                compute_per_tile: Cycles::new(3_000),
                src: bypass(0),
                dst: bypass(0x100_0000),
            };
            let mut exec = ClusterExecutor::new(ClusterConfig {
                double_buffer,
                ..ClusterConfig::default()
            });
            exec.run(&mut mem, &mut iommu, &mut kernel).unwrap()
        };
        let double = run(true);
        let single = run(false);
        assert!(
            double.total < single.total,
            "double buffering ({}) should beat single buffering ({})",
            double.total,
            single.total
        );
    }

    #[test]
    fn empty_kernel_returns_zero_stats() {
        let (mut mem, mut iommu) = setup(200);
        struct Empty;
        impl DeviceKernel for Empty {
            fn name(&self) -> &str {
                "empty"
            }
            fn num_tiles(&self) -> usize {
                0
            }
            fn tile_io(&self, _tile: usize) -> TileIo {
                TileIo::new()
            }
            fn compute_tile(&mut self, _tile: usize, _tcdm: &mut Tcdm) -> Result<Cycles> {
                Ok(Cycles::ZERO)
            }
        }
        let mut exec = ClusterExecutor::default();
        let stats = exec.run(&mut mem, &mut iommu, &mut Empty).unwrap();
        assert_eq!(stats.total, Cycles::ZERO);
        assert_eq!(stats.tiles, 0);
    }

    /// A kernel whose transfer ranges are data-dependent: `plan_tile` reads
    /// a per-tile offset table from external memory *before* that tile's
    /// first DMA touch — the sort kernel's merge-path shape, historically
    /// documented as incompatible with cold-start demand paging because the
    /// untimed plan read hit an unmapped page.
    struct PlanPeekKernel {
        tiles: usize,
        tile_bytes: u64,
        table: Iova,
        src: Iova,
        dst: Iova,
        planned: Vec<u64>,
    }

    impl DeviceKernel for PlanPeekKernel {
        fn name(&self) -> &str {
            "plan-peek"
        }

        fn num_tiles(&self) -> usize {
            self.tiles
        }

        fn plan_tile(&mut self, tile: usize, ctx: &TileCtx<'_>) -> Result<()> {
            // One descriptor per tile, a page apart, so under cold-start
            // demand paging every plan read touches an unmapped page first.
            let chunk = ctx.read_f32(self.table + tile as u64 * sva_common::PAGE_SIZE)? as u64;
            if self.planned.len() == tile {
                self.planned.push(chunk * self.tile_bytes);
            }
            Ok(())
        }

        fn tile_io(&self, tile: usize) -> TileIo {
            let off = self.planned[tile];
            let buf = (tile % 2) as u64 * self.tile_bytes;
            TileIo {
                inputs: vec![DmaRequest::input(self.src + off, buf, self.tile_bytes)],
                outputs: vec![DmaRequest::output(self.dst + off, buf, self.tile_bytes)],
            }
        }

        fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
            let buf = (tile % 2) as u64 * self.tile_bytes;
            for i in 0..self.tile_bytes / 4 {
                let v = tcdm.read_f32(buf + i * 4);
                tcdm.write_f32(buf + i * 4, v * 2.0);
            }
            Ok(Cycles::new(100))
        }
    }

    /// Builds a cold-start demand-paging scene for [`PlanPeekKernel`]: a
    /// reversed per-tile offset table plus source data, none of it
    /// device-mapped.
    fn plan_peek_scene(
        tiles: usize,
        tile_bytes: u64,
    ) -> (
        MemorySystem,
        sva_vm::FrameAllocator,
        sva_vm::AddressSpace,
        sva_host::IommuDriver,
        Iommu,
        PlanPeekKernel,
    ) {
        use sva_common::PAGE_SIZE;
        use sva_iommu::IommuConfig;
        use sva_vm::{AddressSpace, FrameAllocator};

        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();

        let table_va = space
            .alloc_buffer(&mut mem, &mut frames, tiles as u64 * PAGE_SIZE)
            .unwrap();
        for t in 0..tiles {
            // Reversed chunk order: the partitions genuinely depend on the
            // table contents.
            let chunk = (tiles - 1 - t) as f32;
            space
                .write_virt(
                    &mut mem,
                    table_va + t as u64 * PAGE_SIZE,
                    &chunk.to_le_bytes(),
                )
                .unwrap();
        }
        let len = tiles as u64 * tile_bytes;
        let src_va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();
        let data: Vec<u8> = (0..len / 4)
            .flat_map(|i| (i as f32).to_le_bytes())
            .collect();
        space.write_virt(&mut mem, src_va, &data).unwrap();
        let dst_va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();

        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            tlb_hierarchy: Some(sva_iommu::TlbHierarchyConfig::default()),
            ..IommuConfig::default()
        });
        let mut cpu = sva_host::HostCpu::default();
        let mut driver = sva_host::IommuDriver::default();
        driver
            .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
            .unwrap();

        let kernel = PlanPeekKernel {
            tiles,
            tile_bytes,
            table: Iova::from_virt(table_va),
            src: Iova::from_virt(src_va),
            dst: Iova::from_virt(dst_va),
            planned: Vec::new(),
        };
        (mem, frames, space, driver, iommu, kernel)
    }

    /// Regression: a data-dependent plan pass pages its reads in through
    /// the ATS/PRI handler under cold-start demand paging and the run
    /// completes with correct, partition-faithful results.
    #[test]
    fn plan_pass_pages_its_reads_in_under_demand_paging() {
        use sva_host::FaultServicer;

        let tiles = 4usize;
        let tile_bytes = sva_common::PAGE_SIZE;
        let (mut mem, mut frames, space, mut driver, mut iommu, mut kernel) =
            plan_peek_scene(tiles, tile_bytes);

        let mut exec = ClusterExecutor::default();
        let mut servicer = FaultServicer::new(&mut driver, &space, &mut frames);
        let stats = exec
            .run_with_pri(&mut mem, &mut iommu, &mut kernel, Some(&mut servicer))
            .unwrap();

        assert_eq!(
            kernel.planned,
            (0..tiles)
                .map(|t| (tiles - 1 - t) as u64 * tile_bytes)
                .collect::<Vec<_>>(),
            "partitions must follow the (cold) table contents"
        );
        // Every chunk doubled in place: the reversed partition order left
        // the data layout identity, so dst[i] == 2 * src[i].
        let len = tiles as u64 * tile_bytes;
        let mut out = vec![0u8; len as usize];
        space
            .read_virt(&mem, sva_common::VirtAddr::from_iova(kernel.dst), &mut out)
            .unwrap();
        for (i, chunk) in out.chunks_exact(4).enumerate() {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(v, 2.0 * i as f32, "element {i}");
        }
        // The plan-pass faults were serviced (table pages) on top of the
        // DMA faults (src/dst pages), and the stalls landed on the clock.
        let serviced = iommu.stats().page_requests.serviced;
        assert!(
            serviced >= 3 * tiles as u64,
            "table + src + dst pages all fault in, got {serviced}"
        );
        assert!(stats.dma_wait > Cycles::ZERO);
    }

    /// Without a PRI handler the cold plan read stays a terminal fault —
    /// a descriptive error plus a fault record, never a wrong partition.
    #[test]
    fn plan_pass_fault_is_terminal_without_handler() {
        let (mut mem, _frames, _space, _driver, mut iommu, mut kernel) =
            plan_peek_scene(4, sva_common::PAGE_SIZE);

        let mut exec = ClusterExecutor::default();
        let err = exec.run(&mut mem, &mut iommu, &mut kernel);
        assert!(matches!(err, Err(Error::IoPageFault { .. })));
        let fault = iommu.pop_fault().expect("terminal fault recorded");
        assert_eq!(fault.iova, kernel.table, "tile 0's plan read faulted");
        assert!(kernel.planned.is_empty(), "no partition was fabricated");
    }
}
