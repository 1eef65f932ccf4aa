//! The heterogeneous offload runtime (OpenMP `target` model).
//!
//! The paper builds its applications with OpenMP target offloading on top of
//! the driver's userspace library. Three execution flows are compared in
//! Figure 2 and implemented here:
//!
//! * **host-only** — the kernel runs on the CVA6 core;
//! * **copy-based offload** — inputs are copied into the physically
//!   contiguous reserved DRAM, the device computes on physical addresses,
//!   results are copied back;
//! * **zero-copy offload (SVA)** — the user buffers are mapped into the
//!   device's IO virtual address space (Listing 1: flush L1, flush LLC,
//!   `create_iommu_mapping`, flush L1) and the device computes directly on
//!   the user pages through the IOMMU.
//!
//! [`OffloadRunner::run`] executes a full application (used for Figure 2);
//! [`OffloadRunner::run_device_only`] prepares the data according to the
//! platform variant and measures only the accelerator's runtime (used for
//! Table II / Figure 4, which exclude offload and synchronisation time).

use sva_cluster::{block_partition, KernelRunStats, TileRange};
use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Error, Iova, PhysAddr, Result, VirtAddr};
use sva_host::{
    FaultServicer, HostKernelRunner, HostRunStats, HostTrafficStats, MappingHandle, TrafficPhase,
};
use sva_iommu::{Iommu, IommuConfig, IommuStats};
use sva_kernels::{BufferKind, Workload};

use crate::platform::Platform;

/// Host cycles to trigger an offload: writing the task descriptor and the
/// mailbox in the L2 scratchpad and waking the cluster.
pub const OFFLOAD_TRIGGER_CYCLES: u64 = 25_000;

/// Host cycles to synchronise at the end of an offload: completion polling /
/// interrupt handling and the OpenMP fork-join bookkeeping.
pub const OFFLOAD_SYNC_CYCLES: u64 = 35_000;

/// How a workload is executed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OffloadMode {
    /// Single-threaded execution on the CVA6 host.
    HostOnly,
    /// Copy inputs to reserved DRAM, run on the device, copy results back.
    CopyOffload,
    /// Map the user buffers through the IOMMU and run on the device in place.
    ZeroCopy,
}

impl OffloadMode {
    /// Label used in reports (matches Figure 2's legend).
    pub const fn label(self) -> &'static str {
        match self {
            OffloadMode::HostOnly => "host execution",
            OffloadMode::CopyOffload => "copy + device execution",
            OffloadMode::ZeroCopy => "map + device execution (zero-copy)",
        }
    }
}

/// Result of one application run.
#[derive(Clone, Debug)]
pub struct OffloadReport {
    /// Kernel name.
    pub kernel: String,
    /// Execution flow used.
    pub mode: OffloadMode,
    /// Cycles spent copying (copy mode: in + out) or mapping (zero-copy:
    /// cache flushes + `create_iommu_mapping`).
    pub copy_or_map: Cycles,
    /// Cycles spent triggering the offload and synchronising (fork/join).
    pub offload_overhead: Cycles,
    /// Device-side breakdown (absent for host-only runs). On a multi-cluster
    /// platform this is the parallel merge of the per-cluster shards.
    pub device: Option<KernelRunStats>,
    /// Per-cluster device breakdowns (one entry per cluster for offloaded
    /// runs; empty for host-only runs).
    pub device_per_cluster: Vec<KernelRunStats>,
    /// Host-side breakdown (present for host-only runs).
    pub host: Option<HostRunStats>,
    /// Cycles spent tearing the mapping down again (zero-copy only; not part
    /// of [`OffloadReport::total`], matching the paper's breakdown).
    pub unmap: Cycles,
    /// End-to-end application cycles.
    pub total: Cycles,
    /// Whether the results matched the host reference.
    pub verified: bool,
    /// IOMMU statistics accumulated during the run.
    pub iommu: IommuStats,
    /// Host-traffic stream accounting for the whole flow, split between the
    /// setup (copy/map) and device phases (`None` when no stream is
    /// configured). Setup-phase queueing is host *self*-interference: the
    /// stream contending with the runtime's own copies and page-table
    /// writes.
    pub host_traffic: Option<HostTrafficStats>,
}

impl OffloadReport {
    /// Device computation cycles (zero for host-only runs).
    pub fn device_total(&self) -> Cycles {
        self.device.map(|d| d.total).unwrap_or(Cycles::ZERO)
    }
}

/// Result of a device-only measurement (Table II / Figures 4 and 5).
#[derive(Clone, Debug)]
pub struct DeviceOnlyReport {
    /// Kernel name.
    pub kernel: String,
    /// Device-side breakdown (parallel merge of the per-cluster shards).
    pub stats: KernelRunStats,
    /// Per-cluster device breakdowns, indexed like `Platform::clusters`.
    pub per_cluster: Vec<KernelRunStats>,
    /// IOMMU statistics accumulated during the run.
    pub iommu: IommuStats,
    /// Whether the results matched the host reference.
    pub verified: bool,
}

/// Executes workloads on a platform.
#[derive(Copy, Clone, Debug)]
pub struct OffloadRunner {
    seed: u64,
}

impl OffloadRunner {
    /// Creates a runner; `seed` determines the workload input data, so the
    /// same seed produces identical data across platform variants.
    pub const fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Runs a full application in the given mode and reports the breakdown
    /// of Figure 2.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IommuNotPresent`] for zero-copy runs on a platform
    /// without an IOMMU, and propagates faults and allocation failures.
    pub fn run(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        mode: OffloadMode,
    ) -> Result<OffloadReport> {
        let mut rng = DeterministicRng::new(self.seed);
        let initial = workload.init(&mut rng);
        let expected = workload.expected(&initial);
        let buffers = self.allocate_user_buffers(platform, workload, &initial)?;
        if let Some(stream) = platform.host_traffic.as_mut() {
            stream.reset_stats();
        }

        match mode {
            OffloadMode::HostOnly => self.run_host_only(platform, workload, &buffers, &expected),
            OffloadMode::CopyOffload => {
                self.run_copy_offload(platform, workload, &buffers, &expected)
            }
            OffloadMode::ZeroCopy => self.run_zero_copy(platform, workload, &buffers, &expected),
        }
    }

    /// Prepares data according to the platform variant (physical buffers for
    /// the baseline, IOVA mappings otherwise) and measures only the device
    /// execution, as Table II does.
    ///
    /// # Errors
    ///
    /// Propagates faults and allocation failures.
    pub fn run_device_only(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
    ) -> Result<DeviceOnlyReport> {
        let mut rng = DeterministicRng::new(self.seed);
        let initial = workload.init(&mut rng);
        let expected = workload.expected(&initial);
        if let Some(stream) = platform.host_traffic.as_mut() {
            stream.reset_stats();
        }

        if platform.iommu.is_translating() {
            let buffers = self.allocate_user_buffers(platform, workload, &initial)?;
            // Listing 1: flush caches, then map right before the offload so
            // the freshly written PTEs sit in the LLC. Under demand paging
            // the up-front map pass is skipped entirely — every page the
            // device touches cold-starts through the page-request loop.
            platform.cpu.flush_l1();
            platform.mem.flush_llc();
            if !platform.iommu.demand_paging() {
                for buf in &buffers {
                    platform.driver.map_buffer(
                        &mut platform.cpu,
                        &mut platform.mem,
                        &mut platform.iommu,
                        &platform.space,
                        &mut platform.frames,
                        buf.va,
                        buf.bytes,
                    )?;
                }
            }
            platform.cpu.flush_l1();
            platform.iommu.reset_stats();

            let device_ptrs: Vec<Iova> = buffers.iter().map(|b| Iova::from_virt(b.va)).collect();
            let (stats, per_cluster) =
                Self::run_device_sharded(platform, workload, &device_ptrs, None)?;
            let actual = self.read_back_virtual(platform, workload, &buffers)?;
            let verified = workload.verify(&expected, &actual).is_ok();
            Ok(DeviceOnlyReport {
                kernel: workload.name().to_string(),
                stats,
                per_cluster,
                iommu: platform.iommu.stats(),
                verified,
            })
        } else {
            let placements = self.place_in_reserved(platform, workload, &initial)?;
            let device_ptrs: Vec<Iova> = placements
                .iter()
                .map(|pa| Iova::new(platform.mem.map().remap().to_bypass(*pa).raw()))
                .collect();
            let (stats, per_cluster) =
                Self::run_device_sharded(platform, workload, &device_ptrs, None)?;
            let actual = self.read_back_physical(platform, workload, &placements)?;
            let verified = workload.verify(&expected, &actual).is_ok();
            Ok(DeviceOnlyReport {
                kernel: workload.name().to_string(),
                stats,
                per_cluster,
                iommu: platform.iommu.stats(),
                verified,
            })
        }
    }

    // ------------------------------------------------------------------
    // Sharded device execution
    // ------------------------------------------------------------------

    /// Runs the workload's device kernel sharded across every cluster of the
    /// platform with static block scheduling: cluster `i` executes the
    /// `i`-th contiguous block of tiles on its own TCDM while all DMA traffic
    /// shares the IOMMU and the memory fabric. Returns the parallel-merged
    /// breakdown (wall-clock = slowest shard) plus the per-cluster shards.
    ///
    /// The call opens a **measurement window**: the fabric's channel
    /// timelines are cleared (statistics survive) and the global clock
    /// restarts, so every shard's local cursor — and the host-traffic
    /// stream, when configured — starts from the same zero on the shared
    /// virtual timeline. The stream is injected in slices interleaved with
    /// the shards (one slice before each shard, the remainder after the
    /// last), which makes the queueing bidirectional under first-fit
    /// placement: early slices reserve bus time the shards queue behind,
    /// later slices queue behind the shards' reservations.
    ///
    /// When the workload has fewer tiles than the platform has clusters, the
    /// tail clusters receive empty [`TileRange`] shards and report zero
    /// stats without instantiating a kernel — the executor path would
    /// return the same zeroes for an empty shard (a unit-tested
    /// equivalence in `sva_cluster::kernel`), so the shortcut cannot drift.
    ///
    /// With one cluster and no host traffic this degenerates to exactly the
    /// paper's single `ClusterExecutor::run` call.
    fn run_device_sharded(
        platform: &mut Platform,
        workload: &dyn Workload,
        device_ptrs: &[Iova],
        iommu_override: Option<&mut Iommu>,
    ) -> Result<(KernelRunStats, Vec<KernelRunStats>)> {
        let num_clusters = platform.clusters.len();
        platform.mem.open_measurement_window();
        let traffic_slice = match platform.host_traffic.as_mut() {
            Some(stream) => {
                stream.begin_window(TrafficPhase::Device);
                stream
                    .config()
                    .accesses
                    .div_ceil(num_clusters as u64 + 1)
                    .max(1)
            }
            None => 0,
        };
        let total_tiles = workload.device_kernel(device_ptrs).num_tiles();
        let blocks = block_partition(total_tiles, num_clusters);
        let mut shards = Vec::with_capacity(num_clusters);
        // Demand paging is only live for the platform's own translating
        // IOMMU — a bypass override (copy-based offload) never faults.
        let demand_paging = iommu_override.is_none() && platform.iommu.demand_paging();
        let mut override_iommu = iommu_override;
        for (cluster_idx, (start, len)) in blocks.into_iter().enumerate() {
            if let Some(stream) = platform.host_traffic.as_mut() {
                stream.inject(&mut platform.mem, &platform.clock, traffic_slice)?;
            }
            if len == 0 {
                // Empty tail shard: skip building a whole kernel instance
                // to run zero tiles. Default stats are exactly what the
                // executor returns for an empty shard — pinned by
                // `empty_tile_range_is_valid_and_runs_to_zero_stats` in
                // `sva_cluster::kernel`.
                shards.push(KernelRunStats::default());
                continue;
            }
            let mut shard = TileRange::new(workload.device_kernel(device_ptrs), start, len);
            let iommu: &mut Iommu = match override_iommu.as_deref_mut() {
                Some(i) => i,
                None => &mut platform.iommu,
            };
            let stats = if demand_paging {
                // The host driver stands by to service page-request groups:
                // faults stall the shard's DMA instead of aborting it.
                let mut servicer =
                    FaultServicer::new(&mut platform.driver, &platform.space, &mut platform.frames);
                platform.clusters[cluster_idx].run_with_pri(
                    &mut platform.mem,
                    iommu,
                    &mut shard,
                    Some(&mut servicer),
                )?
            } else {
                platform.clusters[cluster_idx].run(&mut platform.mem, iommu, &mut shard)?
            };
            shards.push(stats);
        }
        // Drain the rest of the configured stream so every window injects
        // the same host load regardless of cluster count.
        if let Some(stream) = platform.host_traffic.as_mut() {
            let rest = stream.remaining();
            stream.inject(&mut platform.mem, &platform.clock, rest)?;
        }
        // The device window is over: every shard (and the stream drain) has
        // been simulated, so all later accesses are stamped from the
        // monotone global clock — "now" is a valid no-earlier-arrival
        // watermark and finished reservations can be folded out of the
        // placement index before any post-window traffic runs.
        platform.mem.compact_fabric_before(platform.clock.now());
        // The translation path compacts under the same watermark: walk-table
        // windows that completed before it can no longer serve a coalescing
        // probe or count as in-flight, for the same monotone-clock reason.
        match override_iommu {
            Some(i) => i.compact_translation_before(platform.clock.now()),
            None => platform
                .iommu
                .compact_translation_before(platform.clock.now()),
        }
        Ok((KernelRunStats::merge_parallel(&shards), shards))
    }

    // ------------------------------------------------------------------
    // Setup-phase host traffic
    // ------------------------------------------------------------------

    /// Opens a setup-phase traffic window when a stream is configured
    /// (ROADMAP item "Host traffic during full-app flows"): the fabric
    /// timelines are cleared, the global clock restarts — the runtime's
    /// copies and page-table writes are stamped from zero — and the stream
    /// rewinds, accounted to [`TrafficPhase::Setup`]. Because the stream
    /// presents its own `host_stream` identity, it genuinely contends with
    /// the runtime's `host` traffic on the fabric: host self-interference
    /// during offload setup becomes measurable. Returns the slice of stream
    /// accesses to inject before each of the `ops` runtime operations
    /// (mirroring the device window's shard interleaving).
    fn begin_setup_traffic(platform: &mut Platform, ops: u64) -> u64 {
        match platform.host_traffic.as_mut() {
            Some(stream) => {
                platform.mem.open_measurement_window();
                stream.begin_window(TrafficPhase::Setup);
                stream.config().accesses.div_ceil(ops + 1).max(1)
            }
            None => 0,
        }
    }

    /// Injects up to `count` stream accesses into the current window.
    fn inject_traffic(platform: &mut Platform, count: u64) -> Result<()> {
        if let Some(stream) = platform.host_traffic.as_mut() {
            stream.inject(&mut platform.mem, &platform.clock, count)?;
        }
        Ok(())
    }

    /// Drains whatever the current traffic window still holds, so every
    /// window injects the same host load regardless of operation count.
    fn drain_traffic(platform: &mut Platform) -> Result<()> {
        if let Some(stream) = platform.host_traffic.as_mut() {
            let rest = stream.remaining();
            stream.inject(&mut platform.mem, &platform.clock, rest)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Buffer management helpers
    // ------------------------------------------------------------------

    fn allocate_user_buffers(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        initial: &[Vec<f32>],
    ) -> Result<Vec<UserBufferAlloc>> {
        let specs = workload.buffers();
        let mut out = Vec::with_capacity(specs.len());
        for (spec, data) in specs.iter().zip(initial) {
            let va = platform.space.alloc_buffer(
                &mut platform.mem,
                &mut platform.frames,
                spec.bytes(),
            )?;
            platform
                .space
                .write_virt(&mut platform.mem, va, &f32s_to_bytes(data))?;
            out.push(UserBufferAlloc {
                va,
                bytes: spec.bytes(),
                kind: spec.kind,
            });
        }
        Ok(out)
    }

    fn place_in_reserved(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        initial: &[Vec<f32>],
    ) -> Result<Vec<PhysAddr>> {
        let specs = workload.buffers();
        let mut out = Vec::with_capacity(specs.len());
        for (spec, data) in specs.iter().zip(initial) {
            let pa = platform.reserved.alloc_bytes(spec.bytes())?;
            platform.mem.write_phys(pa, &f32s_to_bytes(data))?;
            out.push(pa);
        }
        Ok(out)
    }

    fn read_back_virtual(
        &self,
        platform: &Platform,
        workload: &dyn Workload,
        buffers: &[UserBufferAlloc],
    ) -> Result<Vec<Vec<f32>>> {
        let specs = workload.buffers();
        let mut out = Vec::with_capacity(specs.len());
        for (spec, buf) in specs.iter().zip(buffers) {
            let mut bytes = vec![0u8; spec.bytes() as usize];
            platform
                .space
                .read_virt(&platform.mem, buf.va, &mut bytes)?;
            out.push(bytes_to_f32s(&bytes));
        }
        Ok(out)
    }

    fn read_back_physical(
        &self,
        platform: &Platform,
        workload: &dyn Workload,
        placements: &[PhysAddr],
    ) -> Result<Vec<Vec<f32>>> {
        let specs = workload.buffers();
        let mut out = Vec::with_capacity(specs.len());
        for (spec, pa) in specs.iter().zip(placements) {
            let mut bytes = vec![0u8; spec.bytes() as usize];
            platform.mem.read_phys(*pa, &mut bytes)?;
            out.push(bytes_to_f32s(&bytes));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // The three execution flows
    // ------------------------------------------------------------------

    fn run_host_only(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        buffers: &[UserBufferAlloc],
        expected: &[Vec<f32>],
    ) -> Result<OffloadReport> {
        let inputs: Vec<(VirtAddr, u64)> = buffers
            .iter()
            .filter(|b| matches!(b.kind, BufferKind::Input | BufferKind::InOut))
            .map(|b| (b.va, b.bytes))
            .collect();
        let outputs: Vec<(VirtAddr, u64)> = buffers
            .iter()
            .filter(|b| b.kind.is_result())
            .map(|b| (b.va, b.bytes))
            .collect();
        let host = HostKernelRunner::new().run(
            &mut platform.cpu,
            &mut platform.mem,
            &platform.space,
            workload.host_cost(),
            &inputs,
            &outputs,
        )?;

        // Functionally, the host computes the reference result; store it so
        // verification reflects a correct host execution.
        let specs = workload.buffers();
        for ((spec, buf), data) in specs.iter().zip(buffers).zip(expected) {
            if spec.kind.is_result() {
                platform
                    .space
                    .write_virt(&mut platform.mem, buf.va, &f32s_to_bytes(data))?;
            }
        }
        let actual = self.read_back_virtual(platform, workload, buffers)?;
        let verified = workload.verify(expected, &actual).is_ok();

        Ok(OffloadReport {
            kernel: workload.name().to_string(),
            mode: OffloadMode::HostOnly,
            copy_or_map: Cycles::ZERO,
            offload_overhead: Cycles::ZERO,
            device: None,
            device_per_cluster: Vec::new(),
            host: Some(host),
            unmap: Cycles::ZERO,
            total: host.total,
            verified,
            iommu: platform.iommu.stats(),
            host_traffic: platform.host_traffic.as_ref().map(|s| *s.stats()),
        })
    }

    fn run_copy_offload(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        buffers: &[UserBufferAlloc],
        expected: &[Vec<f32>],
    ) -> Result<OffloadReport> {
        // Allocate the physically contiguous shadow buffers.
        let specs = workload.buffers();
        let mut shadows = Vec::with_capacity(specs.len());
        for spec in &specs {
            shadows.push(platform.reserved.alloc_bytes(spec.bytes())?);
        }

        // Copy inputs to the device-visible area (timed + functional). When
        // a host-traffic stream is configured it runs through the copy
        // phase too — the stream's reads interleave with the copy engine's
        // accesses, so the copies queue behind genuine concurrent host
        // load (setup-phase self-interference).
        let copies_in = buffers.iter().filter(|b| b.kind.copied_to_device()).count() as u64;
        let slice = Self::begin_setup_traffic(platform, copies_in);
        let mut copy_cycles = Cycles::ZERO;
        for (buf, pa) in buffers.iter().zip(&shadows) {
            if buf.kind.copied_to_device() {
                Self::inject_traffic(platform, slice)?;
                let stats = platform.copy.copy_to_device(
                    &mut platform.cpu,
                    &mut platform.mem,
                    &platform.space,
                    buf.va,
                    *pa,
                    buf.bytes,
                )?;
                copy_cycles += stats.cycles;
            }
        }
        Self::drain_traffic(platform)?;

        // Run the device on physical (bypass-window) addresses. Copy-based
        // offloads present the bypassed device ID, so translation is off.
        let device_ptrs: Vec<Iova> = shadows
            .iter()
            .map(|pa| Iova::new(platform.mem.map().remap().to_bypass(*pa).raw()))
            .collect();
        let mut bypass_iommu = Iommu::new(IommuConfig::disabled());
        let (device, device_per_cluster) =
            Self::run_device_sharded(platform, workload, &device_ptrs, Some(&mut bypass_iommu))?;

        // Copy the results back into the user buffers, again under the
        // setup-phase stream (a fresh window: the device run consumed the
        // previous one).
        let copies_out = buffers
            .iter()
            .filter(|b| b.kind.copied_from_device())
            .count() as u64;
        let slice = Self::begin_setup_traffic(platform, copies_out);
        for (buf, pa) in buffers.iter().zip(&shadows) {
            if buf.kind.copied_from_device() {
                Self::inject_traffic(platform, slice)?;
                let stats = platform.copy.copy_from_device(
                    &mut platform.cpu,
                    &mut platform.mem,
                    &platform.space,
                    *pa,
                    buf.va,
                    buf.bytes,
                )?;
                copy_cycles += stats.cycles;
            }
        }
        Self::drain_traffic(platform)?;

        let actual = self.read_back_virtual(platform, workload, buffers)?;
        let verified = workload.verify(expected, &actual).is_ok();
        let overhead = Cycles::new(OFFLOAD_TRIGGER_CYCLES + OFFLOAD_SYNC_CYCLES);

        Ok(OffloadReport {
            kernel: workload.name().to_string(),
            mode: OffloadMode::CopyOffload,
            copy_or_map: copy_cycles,
            offload_overhead: overhead,
            device: Some(device),
            device_per_cluster,
            host: None,
            unmap: Cycles::ZERO,
            total: copy_cycles + overhead + device.total,
            verified,
            iommu: platform.iommu.stats(),
            host_traffic: platform.host_traffic.as_ref().map(|s| *s.stats()),
        })
    }

    fn run_zero_copy(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        buffers: &[UserBufferAlloc],
        expected: &[Vec<f32>],
    ) -> Result<OffloadReport> {
        if !platform.iommu.is_translating() {
            return Err(Error::IommuNotPresent);
        }

        // Listing 1: flush L1 and LLC so device-visible memory is coherent,
        // then create the IOVA mappings, then flush L1 again. A configured
        // host-traffic stream runs through the map phase: its reads contend
        // with the driver's page-table writes on the fabric and evict the
        // freshly written PTEs from the LLC — the setup-phase
        // self-interference the ROADMAP called out. Under demand paging the
        // map pass is skipped: pages become device-resident through the
        // page-request loop on first touch, and there is nothing to tear
        // down up front (the unmap section below is likewise empty).
        let demand_paging = platform.iommu.demand_paging();
        let slice = Self::begin_setup_traffic(platform, buffers.len() as u64);
        let mut map_cycles = platform.cpu.flush_l1();
        map_cycles += platform.mem.flush_llc();
        let mut handles: Vec<MappingHandle> = Vec::with_capacity(buffers.len());
        if !demand_paging {
            for buf in buffers {
                Self::inject_traffic(platform, slice)?;
                let (handle, cost) = platform.driver.map_buffer(
                    &mut platform.cpu,
                    &mut platform.mem,
                    &mut platform.iommu,
                    &platform.space,
                    &mut platform.frames,
                    buf.va,
                    buf.bytes,
                )?;
                map_cycles += cost.cycles;
                handles.push(handle);
            }
        }
        Self::drain_traffic(platform)?;
        map_cycles += platform.cpu.flush_l1();

        // Device execution on IO virtual addresses, sharded across clusters.
        let device_ptrs: Vec<Iova> = buffers.iter().map(|b| Iova::from_virt(b.va)).collect();
        let (device, device_per_cluster) =
            Self::run_device_sharded(platform, workload, &device_ptrs, None)?;

        // Tear the mappings down (reported separately, like the paper).
        let mut unmap_cycles = Cycles::ZERO;
        for handle in handles {
            let cost = platform.driver.unmap_buffer(
                &mut platform.cpu,
                &mut platform.mem,
                &mut platform.iommu,
                handle,
            )?;
            unmap_cycles += cost.cycles;
        }

        let actual = self.read_back_virtual(platform, workload, buffers)?;
        let verified = workload.verify(expected, &actual).is_ok();
        let overhead = Cycles::new(OFFLOAD_TRIGGER_CYCLES + OFFLOAD_SYNC_CYCLES);

        Ok(OffloadReport {
            kernel: workload.name().to_string(),
            mode: OffloadMode::ZeroCopy,
            copy_or_map: map_cycles,
            offload_overhead: overhead,
            device: Some(device),
            device_per_cluster,
            host: None,
            unmap: unmap_cycles,
            total: map_cycles + overhead + device.total,
            verified,
            iommu: platform.iommu.stats(),
            host_traffic: platform.host_traffic.as_ref().map(|s| *s.stats()),
        })
    }
}

/// A user buffer allocated for a run.
#[derive(Copy, Clone, Debug)]
struct UserBufferAlloc {
    va: VirtAddr,
    bytes: u64,
    kind: BufferKind,
}

/// Converts a slice of `f32` into little-endian bytes.
fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Converts little-endian bytes into `f32` values.
fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlatformConfig, SocVariant};
    use sva_kernels::{AxpyWorkload, GemmWorkload, KernelKind};

    #[test]
    fn bytes_roundtrip() {
        let vals = vec![1.0f32, -2.5, 3.25, f32::MIN_POSITIVE];
        assert_eq!(bytes_to_f32s(&f32s_to_bytes(&vals)), vals);
    }

    #[test]
    fn zero_copy_requires_an_iommu() {
        let mut platform = Platform::new(PlatformConfig::baseline(200)).unwrap();
        let wl = AxpyWorkload::with_elems(4096);
        let err = OffloadRunner::new(1).run(&mut platform, &wl, OffloadMode::ZeroCopy);
        assert!(matches!(err, Err(Error::IommuNotPresent)));
    }

    #[test]
    fn all_three_modes_produce_verified_results_for_axpy() {
        let wl = AxpyWorkload::with_elems(6_000);
        for mode in [
            OffloadMode::HostOnly,
            OffloadMode::CopyOffload,
            OffloadMode::ZeroCopy,
        ] {
            let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
            let report = OffloadRunner::new(3).run(&mut platform, &wl, mode).unwrap();
            assert!(report.verified, "{mode:?} must produce correct results");
            assert!(report.total.raw() > 0);
            match mode {
                OffloadMode::HostOnly => {
                    assert!(report.host.is_some());
                    assert_eq!(report.copy_or_map, Cycles::ZERO);
                }
                OffloadMode::CopyOffload => {
                    assert!(report.device.is_some());
                    assert!(report.copy_or_map.raw() > 0);
                    assert_eq!(report.unmap, Cycles::ZERO);
                }
                OffloadMode::ZeroCopy => {
                    assert!(report.device.is_some());
                    assert!(report.copy_or_map.raw() > 0);
                    assert!(report.unmap.raw() > 0);
                    assert!(report.iommu.translations > 0);
                }
            }
        }
    }

    #[test]
    fn zero_copy_beats_copy_based_offload() {
        let wl = AxpyWorkload::paper();
        let mut p1 = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        let copy = OffloadRunner::new(5)
            .run(&mut p1, &wl, OffloadMode::CopyOffload)
            .unwrap();
        let mut p2 = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        let zero = OffloadRunner::new(5)
            .run(&mut p2, &wl, OffloadMode::ZeroCopy)
            .unwrap();
        assert!(
            zero.total < copy.total,
            "zero-copy ({}) must beat copy-based offload ({})",
            zero.total,
            copy.total
        );
        assert!(zero.copy_or_map < copy.copy_or_map);
    }

    #[test]
    fn device_only_runs_verify_on_every_variant() {
        let wl = GemmWorkload::with_dim(32);
        for variant in SocVariant::ALL {
            let mut platform = Platform::new(PlatformConfig::variant(variant, 200)).unwrap();
            let report = OffloadRunner::new(11)
                .run_device_only(&mut platform, &wl)
                .unwrap();
            assert!(report.verified, "{variant:?} gemm results must verify");
            assert!(report.stats.total.raw() > 0);
            if variant.has_iommu() {
                assert!(report.iommu.translations > 0);
            } else {
                assert_eq!(report.iommu.iotlb.total(), 0);
            }
        }
    }

    #[test]
    fn small_workloads_verify_end_to_end_on_the_device() {
        for kind in KernelKind::ALL {
            let wl = kind.small_workload();
            let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
            let report = OffloadRunner::new(13)
                .run_device_only(&mut platform, wl.as_ref())
                .unwrap();
            assert!(
                report.verified,
                "{kind:?} device results must match the reference"
            );
        }
    }

    #[test]
    fn multi_cluster_offloads_verify_and_shard_every_tile() {
        let wl = GemmWorkload::with_dim(96);
        for clusters in [1usize, 2, 3, 4] {
            let config = PlatformConfig::iommu_with_llc(200).with_clusters(clusters);
            let mut platform = Platform::new(config).unwrap();
            let report = OffloadRunner::new(21)
                .run_device_only(&mut platform, &wl)
                .unwrap();
            assert!(report.verified, "{clusters} clusters must verify");
            assert_eq!(report.per_cluster.len(), clusters);
            let shard_tiles: u64 = report.per_cluster.iter().map(|s| s.tiles).sum();
            assert_eq!(report.stats.tiles, shard_tiles);
            // Wall-clock is the slowest shard.
            let slowest = report.per_cluster.iter().map(|s| s.total).max().unwrap();
            assert_eq!(report.stats.total, slowest);
        }
    }

    #[test]
    fn more_clusters_than_tiles_runs_empty_shards_cleanly() {
        // axpy at 10k elements has 3 tiles; shard it across 8 clusters.
        let small = AxpyWorkload::with_elems(10_000);
        let big = GemmWorkload::with_dim(96);
        let config = PlatformConfig::iommu_with_llc(200).with_clusters(8);
        let mut platform = Platform::new(config).unwrap();
        let runner = OffloadRunner::new(17);
        // First occupy every cluster so their DMA engines accumulate stats.
        let warm = runner.run_device_only(&mut platform, &big).unwrap();
        assert!(warm.per_cluster.iter().all(|s| s.dma.bytes > 0));
        // Then the 3-tile workload: the 5 idle clusters report zeroes.
        let report = runner.run_device_only(&mut platform, &small).unwrap();
        assert!(report.verified);
        assert_eq!(report.per_cluster.len(), 8);
        assert_eq!(
            report.per_cluster.iter().filter(|s| s.tiles > 0).count(),
            3,
            "exactly one shard per tile"
        );
        for idle in &report.per_cluster[3..] {
            assert_eq!(idle.tiles, 0);
            assert_eq!(idle.total, Cycles::ZERO);
            assert_eq!(idle.dma.bytes, 0, "idle shard must report zero DMA stats");
        }
        assert_eq!(report.stats.tiles, 3);
        let slowest = report.per_cluster.iter().map(|s| s.total).max().unwrap();
        assert_eq!(report.stats.total, slowest);
    }

    #[test]
    fn sort_shards_across_clusters_and_verifies() {
        // The merge-path partitions are recomputed from shared functional
        // memory in the plan pre-pass, so the non-linear kernel now shards:
        // every cluster sees the runs exactly as the previous pass left
        // them, wherever that pass executed.
        use sva_kernels::SortWorkload;
        // 16 384 elements = 2 merge passes (even parity, local sort in
        // place); 32 768 = 3 passes (odd parity, the ping-pong starts in
        // the aux array so the result still lands in `data`).
        for n in [16_384usize, 32_768] {
            let wl = SortWorkload::with_elems(n);
            for clusters in [1usize, 2, 3, 4] {
                let config = PlatformConfig::iommu_with_llc(200)
                    .with_clusters(clusters)
                    .with_fabric_contention();
                let mut platform = Platform::new(config).unwrap();
                let report = OffloadRunner::new(31)
                    .run_device_only(&mut platform, &wl)
                    .unwrap();
                assert!(
                    report.verified,
                    "sort({n}) must verify on {clusters} clusters"
                );
                assert_eq!(report.per_cluster.len(), clusters);
                let shard_tiles: u64 = report.per_cluster.iter().map(|s| s.tiles).sum();
                assert_eq!(report.stats.tiles, shard_tiles, "every tile executed once");
            }
        }
    }

    #[test]
    fn sharding_speeds_up_the_device_wall_clock() {
        let wl = GemmWorkload::with_dim(64);
        let run = |clusters| {
            let config = PlatformConfig::iommu_with_llc(200).with_clusters(clusters);
            let mut platform = Platform::new(config).unwrap();
            OffloadRunner::new(7)
                .run_device_only(&mut platform, &wl)
                .unwrap()
                .stats
                .total
                .raw()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            (four as f64) < one as f64 * 0.5,
            "4 clusters ({four}) should at least halve the 1-cluster wall clock ({one})"
        );
    }

    #[test]
    fn host_traffic_extends_into_copy_and_map_phases() {
        use sva_host::HostTrafficConfig;
        let run = |mode: OffloadMode, traffic: bool| {
            let mut config = PlatformConfig::iommu_with_llc(200)
                .with_clusters(2)
                .with_fabric_contention();
            if traffic {
                config = config.with_host_traffic(HostTrafficConfig {
                    accesses: 512,
                    ..HostTrafficConfig::default()
                });
            }
            let mut platform = Platform::new(config).unwrap();
            OffloadRunner::new(23)
                .run(&mut platform, &AxpyWorkload::with_elems(16_384), mode)
                .unwrap()
        };
        for mode in [OffloadMode::CopyOffload, OffloadMode::ZeroCopy] {
            let idle = run(mode, false);
            let noisy = run(mode, true);
            assert!(idle.verified && noisy.verified);
            assert!(idle.host_traffic.is_none(), "no stream, no report row");
            let stats = noisy.host_traffic.expect("stream accounting reported");
            // The stream ran in both phases: each copy/map window and the
            // device window injected their full configured load.
            assert!(stats.setup.issued > 0, "{mode:?}: setup phase injected");
            assert!(stats.device.issued > 0, "{mode:?}: device phase injected");
            assert_eq!(
                stats.issued,
                stats.setup.issued + stats.device.issued,
                "{mode:?}: phases partition the stream"
            );
            // Host self-interference: the stream queues behind the
            // runtime's own copies / page-table writes during setup.
            assert!(
                stats.setup.queue_cycles > 0,
                "{mode:?}: setup-phase queueing must be observable"
            );
            assert!(
                noisy.copy_or_map >= idle.copy_or_map,
                "{mode:?}: interference cannot speed setup up ({} vs {})",
                noisy.copy_or_map,
                idle.copy_or_map
            );
        }
        // The copy engine streams through the polluted LLC and shares the
        // bus with the stream, so copy-based setup must get strictly
        // slower. (The map path's timed accesses are cold misses and
        // posted writes either way, and first-fit placement simulates the
        // runtime's accesses before the overlapping stream slices, so its
        // cost is interference-insensitive — the stream's own setup-phase
        // queueing above is where map-phase contention surfaces.)
        let idle_copy = run(OffloadMode::CopyOffload, false);
        let noisy_copy = run(OffloadMode::CopyOffload, true);
        assert!(
            noisy_copy.copy_or_map > idle_copy.copy_or_map,
            "copy-phase interference must cost cycles ({} vs {})",
            noisy_copy.copy_or_map,
            idle_copy.copy_or_map
        );
    }

    #[test]
    fn tlb_hierarchy_runs_verify_and_split_hits_across_levels() {
        let wl = GemmWorkload::with_dim(64);
        let config = PlatformConfig::iommu_with_llc(200)
            .with_clusters(2)
            .with_fabric_contention()
            .with_default_tlb_hierarchy();
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(19)
            .run_device_only(&mut platform, &wl)
            .unwrap();
        assert!(report.verified);
        assert!(report.iommu.atc.hits > 0, "the private ATCs serve hits");
        assert!(report.iommu.atc.misses > 0);
        assert!(
            report.iommu.iotlb.hits > 0,
            "the shared L2 serves ATC misses"
        );
        assert!(
            report.iommu.iotlb.total() < report.iommu.atc.total(),
            "L1 filters traffic away from L2"
        );
        assert_eq!(
            report.iommu.atc.total(),
            report.iommu.translations - report.iommu.bypassed,
            "every translated access probes L1"
        );
    }

    #[test]
    fn demand_paged_device_runs_verify_and_account_the_fault_loop() {
        let wl = GemmWorkload::with_dim(64);
        let base = || {
            PlatformConfig::iommu_with_llc(200)
                .with_clusters(2)
                .with_fabric_contention()
                .with_default_tlb_hierarchy()
        };
        let mut pre = Platform::new(base()).unwrap();
        let premapped = OffloadRunner::new(29)
            .run_device_only(&mut pre, &wl)
            .unwrap();
        assert_eq!(premapped.iommu.page_requests.serviced, 0);

        let mut platform = Platform::new(base().with_demand_paging()).unwrap();
        let report = OffloadRunner::new(29)
            .run_device_only(&mut platform, &wl)
            .unwrap();
        assert!(report.verified, "demand-paged results are correct");
        let pri = report.iommu.page_requests;
        assert!(pri.serviced > 0, "pages were paged in on demand");
        assert_eq!(pri.failed, 0);
        assert!(pri.group_responses > 0);
        assert!(report.iommu.page_request_p50 > 0, "latency percentiles");
        assert!(report.stats.dma.page_faults > 0);
        assert!(report.stats.dma.fault_stall_cycles > 0);
        assert!(
            report.stats.total > premapped.stats.total,
            "cold-start paging must cost device cycles ({} vs {})",
            report.stats.total,
            premapped.stats.total
        );
    }

    #[test]
    fn demand_paged_zero_copy_application_verifies_without_premap() {
        let wl = AxpyWorkload::with_elems(16_384);
        let config = PlatformConfig::iommu_with_llc(200)
            .with_demand_paging()
            .with_fabric_contention();
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(37)
            .run(&mut platform, &wl, OffloadMode::ZeroCopy)
            .unwrap();
        assert!(report.verified);
        assert!(
            report.iommu.page_requests.serviced > 0,
            "the application faulted its working set in"
        );
        assert_eq!(
            report.unmap,
            Cycles::ZERO,
            "nothing was pre-mapped, nothing to tear down"
        );
    }

    #[test]
    fn page_request_queue_overflow_backs_off_and_still_completes() {
        let wl = AxpyWorkload::with_elems(16_384);
        let run = |entries: usize| {
            let mut config = PlatformConfig::iommu_with_llc(200)
                .with_fabric_contention()
                .with_demand_paging();
            config.iommu.page_request_entries = entries;
            let mut platform = Platform::new(config).unwrap();
            OffloadRunner::new(41)
                .run_device_only(&mut platform, &wl)
                .unwrap()
        };
        let roomy = run(64);
        let tiny = run(1);
        assert!(roomy.verified && tiny.verified);
        assert_eq!(roomy.iommu.page_requests.dropped, 0, "64 slots never drop");
        assert!(
            tiny.iommu.page_requests.dropped > 0,
            "a one-slot queue must overflow on multi-page groups"
        );
        assert!(
            tiny.iommu.page_requests.group_responses > roomy.iommu.page_requests.group_responses,
            "smaller groups, more responses"
        );
        assert!(
            tiny.stats.total >= roomy.stats.total,
            "overflow backoff cannot speed the device up"
        );
    }

    #[test]
    fn multi_cluster_zero_copy_application_verifies() {
        let wl = AxpyWorkload::with_elems(16_384);
        let config = PlatformConfig::iommu_with_llc(200).with_clusters(2);
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(9)
            .run(&mut platform, &wl, OffloadMode::ZeroCopy)
            .unwrap();
        assert!(report.verified);
        assert_eq!(report.device_per_cluster.len(), 2);
        // Both clusters' DMA streams translated through the shared IOMMU.
        let per_device = platform.iommu.device_iotlb_stats();
        assert!(
            per_device.len() >= 2,
            "both data devices present: {per_device:?}"
        );
    }
}
