//! The assembled prototype platform (Figure 1 of the paper), scaled to N
//! accelerator clusters.
//!
//! The paper's prototype instantiates one Snitch cluster behind the IOMMU.
//! [`Platform`] generalises that to `num_clusters` executors sharing the
//! IOMMU and the memory fabric: cluster `i` presents IOMMU device ID
//! `base + 2·i` for data traffic and `base + 2·i + 1` (a bypassed context)
//! for instruction fetches, all attached to the same process address space.
//! With `num_clusters == 1` the platform is exactly the paper's.

use sva_cluster::ClusterExecutor;
use sva_common::rng::DeterministicRng;
use sva_common::{GlobalClock, Result};
use sva_host::{CopyEngine, HostCpu, HostTrafficStream, IommuDriver};
use sva_iommu::Iommu;
use sva_mem::MemorySystem;
use sva_vm::{AddressSpace, FrameAllocator};

use crate::config::PlatformConfig;

/// The full SoC: host subsystem, IOMMU, accelerator clusters, memory system
/// and the software state (process address space, driver, allocators).
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    /// The global simulation clock owned by the platform: shared with the
    /// memory system (which stamps otherwise-unstamped accesses with it)
    /// and the host CPU (which advances it as it executes). Cluster
    /// executors keep their own per-shard cursors — shards of one offload
    /// run concurrently in simulated time.
    pub clock: GlobalClock,
    /// The shared memory system (LLC, DRAM, delayer, L2 SPM).
    pub mem: MemorySystem,
    /// The CVA6 host core.
    pub cpu: HostCpu,
    /// The timed host-traffic stream injected into device measurement
    /// windows, when configured.
    pub host_traffic: Option<HostTrafficStream>,
    /// The RISC-V IOMMU (disabled/translating depending on the variant),
    /// shared by every cluster.
    pub iommu: Iommu,
    /// The Snitch cluster executors. Cluster `i`'s DMA engine presents
    /// device ID [`Platform::cluster_device_id`]`(i)`.
    pub clusters: Vec<ClusterExecutor>,
    /// The user process running the heterogeneous application.
    pub space: AddressSpace,
    /// Frame allocator for Linux-managed memory (user pages, page tables).
    pub frames: FrameAllocator,
    /// Frame allocator for the reserved physically contiguous DMA area.
    pub reserved: FrameAllocator,
    /// The IOMMU driver (kernel module + userspace library model).
    pub driver: IommuDriver,
    /// The host copy engine used by copy-based offloading.
    pub copy: CopyEngine,
    /// Deterministic random source for workload initialisation.
    pub rng: DeterministicRng,
}

impl Clone for Platform {
    /// A cloned platform is an **independent** simulation: because
    /// [`GlobalClock`] handles share their counter, a derived clone would
    /// leave both platforms advancing (and rewinding) each other's time.
    /// The manual impl fresh-wires a new clock seeded at the original's
    /// current reading and re-attaches it to the memory system and the
    /// host CPU.
    fn clone(&self) -> Self {
        let clock = GlobalClock::new();
        clock.advance_to(self.clock.now());
        let mut mem = self.mem.clone();
        mem.attach_clock(&clock);
        let mut cpu = self.cpu.clone();
        cpu.attach_clock(&clock);
        Self {
            config: self.config.clone(),
            clock,
            mem,
            cpu,
            host_traffic: self.host_traffic.clone(),
            iommu: self.iommu.clone(),
            clusters: self.clusters.clone(),
            space: self.space.clone(),
            frames: self.frames.clone(),
            reserved: self.reserved.clone(),
            driver: self.driver.clone(),
            copy: self.copy.clone(),
            rng: self.rng.clone(),
        }
    }
}

impl Platform {
    /// Builds and boots a platform: constructs the memory system, creates the
    /// user process, and — when the variant has an IOMMU — attaches every
    /// cluster to the process's IOMMU domain (cluster 0 through the driver,
    /// the paper's flow; further clusters directly against the same IO page
    /// table).
    ///
    /// # Errors
    ///
    /// Returns [`sva_common::Error::InvalidConfig`], naming the knob, for a
    /// zero-entry IOTLB, a DMA engine allowed no outstanding bursts, a
    /// zero-slot fabric queue or a DRAM backend without channels, and
    /// allocation failures while setting up the address space or the IOMMU
    /// structures.
    pub fn new(config: PlatformConfig) -> Result<Self> {
        config.validate()?;
        let clock = GlobalClock::new();
        let mut mem = MemorySystem::new(config.mem.clone());
        mem.attach_clock(&clock);
        mem.set_interference(config.interference.to_config(config.seed ^ 0xA11CE));

        let mut cpu = HostCpu::new(config.cpu);
        cpu.attach_clock(&clock);
        let host_traffic = config.host_traffic.map(HostTrafficStream::new);
        let mut iommu = Iommu::new(config.iommu);
        let num_clusters = config.num_clusters;
        let clusters = (0..num_clusters)
            .map(|i| {
                let mut cluster_cfg = config.cluster;
                cluster_cfg.dma.device_id = config.driver.device_id + 2 * i as u32;
                cluster_cfg.dma.priority = config.cluster_priorities.get(i).copied().unwrap_or(0);
                ClusterExecutor::new(cluster_cfg)
            })
            .collect();
        let mut frames = FrameAllocator::linux_pool();
        let reserved = FrameAllocator::reserved_pool();
        let space = AddressSpace::new(&mut mem, &mut frames)?;
        let mut driver = IommuDriver::new(config.driver);

        if iommu.is_translating() {
            driver.attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())?;
            // The instruction-fetch path of each cluster uses a second device
            // ID with a bypassed device context (Section III-B).
            iommu.attach_bypass_device(&mut mem, &mut frames, config.driver.device_id + 1)?;
            // Clusters beyond the first share the IO page table the driver
            // built for cluster 0 — same process, same mappings.
            let root = driver.io_table().expect("driver attached").root();
            for i in 1..num_clusters {
                let data_id = config.driver.device_id + 2 * i as u32;
                iommu.attach_device(&mut mem, &mut frames, data_id, space.pscid(), root)?;
                iommu.attach_bypass_device(&mut mem, &mut frames, data_id + 1)?;
            }
        }

        Ok(Self {
            rng: DeterministicRng::new(config.seed),
            config,
            clock,
            mem,
            cpu,
            host_traffic,
            iommu,
            clusters,
            space,
            frames,
            reserved,
            driver,
            copy: CopyEngine::new(),
        })
    }

    /// The configuration this platform was built from.
    pub const fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Number of accelerator clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The first cluster executor (the paper's single cluster).
    pub fn cluster(&self) -> &ClusterExecutor {
        &self.clusters[0]
    }

    /// Mutable access to the first cluster executor.
    pub fn cluster_mut(&mut self) -> &mut ClusterExecutor {
        &mut self.clusters[0]
    }

    /// IOMMU device ID presented by cluster `index`'s DMA data traffic.
    pub fn cluster_device_id(&self, index: usize) -> u32 {
        self.config.driver.device_id + 2 * index as u32
    }

    /// Convenience: the DRAM latency knob of this instance.
    pub fn dram_latency(&self) -> u64 {
        self.config.dram_latency.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocVariant;

    fn rejected_knob(config: PlatformConfig) -> String {
        match Platform::new(config) {
            Err(sva_common::Error::InvalidConfig { reason }) => reason,
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn zero_entry_iotlb_is_rejected_by_name() {
        let reason = rejected_knob(PlatformConfig::iommu_with_llc(200).with_iotlb_entries(0));
        assert!(reason.contains("iotlb_entries"), "{reason}");
    }

    #[test]
    fn zero_outstanding_dma_is_rejected_by_name() {
        let reason = rejected_knob(PlatformConfig::iommu_with_llc(200).with_dma_outstanding(0));
        assert!(reason.contains("max_outstanding"), "{reason}");
    }

    #[test]
    fn zero_request_queue_depth_is_rejected_by_name() {
        let reason = rejected_knob(PlatformConfig::iommu_with_llc(200).with_channel_depths(0, 4));
        assert!(reason.contains("mem.fabric.req_queue_depth"), "{reason}");
    }

    #[test]
    fn zero_response_queue_depth_is_rejected_by_name() {
        let reason = rejected_knob(PlatformConfig::iommu_with_llc(200).with_channel_depths(4, 0));
        assert!(reason.contains("mem.fabric.rsp_queue_depth"), "{reason}");
    }

    #[test]
    fn zero_memory_channels_are_rejected_by_name() {
        let reason = rejected_knob(PlatformConfig::iommu_with_llc(200).with_memory_channels(0));
        assert!(
            reason.contains("mem.fabric.channels.num_channels"),
            "{reason}"
        );
    }

    #[test]
    fn zero_clusters_are_rejected_by_name() {
        let reason = rejected_knob(PlatformConfig::iommu_with_llc(200).with_clusters(0));
        assert!(reason.contains("num_clusters (with_clusters)"), "{reason}");
    }

    #[test]
    fn all_variants_boot() {
        for variant in SocVariant::ALL {
            let config = PlatformConfig::variant(variant, 600);
            let platform = Platform::new(config).unwrap();
            assert_eq!(platform.config().variant, variant);
            assert_eq!(platform.dram_latency(), 600);
            assert_eq!(platform.iommu.is_translating(), variant.has_iommu());
            assert_eq!(platform.mem.llc().is_some(), variant.has_llc());
        }
    }

    #[test]
    fn translating_platforms_have_an_attached_device() {
        let platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        assert!(platform.iommu.ddt().is_some());
        assert!(platform.driver.io_table().is_some());
    }

    #[test]
    fn baseline_platform_has_no_device_directory() {
        let platform = Platform::new(PlatformConfig::baseline(200)).unwrap();
        assert!(platform.iommu.ddt().is_none());
    }

    #[test]
    fn default_platform_has_one_cluster() {
        let platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        assert_eq!(platform.num_clusters(), 1);
        assert_eq!(platform.cluster_device_id(0), 1);
        assert_eq!(platform.iommu.attached_devices(), &[1, 2]);
    }

    #[test]
    fn multi_cluster_platform_attaches_every_device_pair() {
        let config = PlatformConfig::iommu_with_llc(200).with_clusters(4);
        let platform = Platform::new(config).unwrap();
        assert_eq!(platform.num_clusters(), 4);
        for i in 0..4 {
            assert_eq!(
                platform.clusters[i].config().dma.device_id,
                platform.cluster_device_id(i)
            );
        }
        // Data + instruction-fetch contexts for each cluster: 1..=8.
        assert_eq!(platform.iommu.attached_devices(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn multi_cluster_baseline_boots_without_iommu_state() {
        let config = PlatformConfig::baseline(200).with_clusters(3);
        let platform = Platform::new(config).unwrap();
        assert_eq!(platform.num_clusters(), 3);
        assert!(platform.iommu.ddt().is_none());
    }
}
