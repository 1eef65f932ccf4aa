//! Platform configurations.
//!
//! The evaluation compares three variants of the same SoC (Table II and
//! Figure 4):
//!
//! * **Baseline** — no IOMMU; the accelerator addresses the physically
//!   contiguous reserved DRAM directly (explicit copies are needed for
//!   offloading);
//! * **IOMMU** — the IOMMU translates device traffic, but the LLC is
//!   disabled, so page-table walks go to DRAM;
//! * **IOMMU + LLC** — the paper's proposal: the shared LLC caches host and
//!   page-table-walk traffic while device DMA bypasses it.
//!
//! All variants share the DRAM-latency knob (the AXI delayer) swept over
//! 200 / 600 / 1000 cycles.

use sva_cluster::{ClusterConfig, DmaConfig};
use sva_common::{ArbitrationPolicy, Cycles, Error, QueueDepths, Result};
use sva_host::{DriverConfig, HostCpuConfig, HostTrafficConfig, InterferenceLevel};
use sva_iommu::{IommuConfig, IommuMode, TlbHierarchyConfig};
use sva_mem::{DramChannelConfig, LlcConfig, MemSysConfig};

/// The three platform variants of the evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SocVariant {
    /// No IOMMU (physical addressing, copy-based offload only).
    Baseline,
    /// IOMMU enabled, LLC disabled.
    Iommu,
    /// IOMMU enabled and the shared LLC caches host + PTW traffic.
    IommuLlc,
}

impl SocVariant {
    /// All variants, in the order of Table II.
    pub const ALL: [SocVariant; 3] = [
        SocVariant::Baseline,
        SocVariant::Iommu,
        SocVariant::IommuLlc,
    ];

    /// Label used in tables and figures.
    pub const fn label(self) -> &'static str {
        match self {
            SocVariant::Baseline => "Baseline",
            SocVariant::Iommu => "IOMMU",
            SocVariant::IommuLlc => "IOMMU+LLC",
        }
    }

    /// Whether the variant instantiates the IOMMU.
    pub const fn has_iommu(self) -> bool {
        !matches!(self, SocVariant::Baseline)
    }

    /// Whether the variant instantiates the LLC.
    pub const fn has_llc(self) -> bool {
        matches!(self, SocVariant::IommuLlc | SocVariant::Baseline)
    }
}

/// The DRAM-latency sweep used throughout the paper.
pub const PAPER_LATENCIES: [u64; 3] = [200, 600, 1000];

/// Full configuration of a platform instance.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformConfig {
    /// Which of the paper's variants this is.
    pub variant: SocVariant,
    /// Extra DRAM latency from the AXI delayer.
    pub dram_latency: Cycles,
    /// Memory-system details (LLC geometry, bypass policy, ...).
    pub mem: MemSysConfig,
    /// Host CPU details.
    pub cpu: HostCpuConfig,
    /// IOMMU details (IOTLB size etc.).
    pub iommu: IommuConfig,
    /// Cluster details (DMA outstanding transactions, double buffering).
    pub cluster: ClusterConfig,
    /// Driver cost model.
    pub driver: DriverConfig,
    /// Synthetic host interference while the device runs (Figure 5's
    /// statistical model; superseded by [`PlatformConfig::host_traffic`]
    /// for fabric sweeps).
    pub interference: InterferenceLevel,
    /// Timed host-traffic stream injected into device measurement windows
    /// (`None` = host idle). Setting it turns on the global-clock engine
    /// (`FabricConfig::timed_host_ptw`), so the stream's accesses reserve
    /// bus occupancy and host/PTW queueing is charged when fabric
    /// contention charging is enabled.
    pub host_traffic: Option<HostTrafficConfig>,
    /// Number of accelerator clusters sharing the IOMMU and memory fabric.
    /// The paper's prototype has one; offloads are sharded across clusters
    /// with static block scheduling when more are instantiated.
    pub num_clusters: usize,
    /// Fabric arbitration priority of each cluster's DMA engine (index =
    /// cluster; missing entries default to 0). Pair with
    /// [`ArbitrationPolicy::FixedPriority`] for strict ordering. Beware:
    /// under the default `RoundRobin` policy a non-zero priority takes the
    /// win-outright escape hatch — that cluster's bursts never queue, which
    /// disables contention modelling for it; under `Weighted` priorities
    /// are ignored.
    pub cluster_priorities: Vec<u8>,
    /// Seed for all stochastic components of a run.
    pub seed: u64,
}

impl PlatformConfig {
    /// Builds one of the paper's three variants at a given DRAM latency.
    pub fn variant(variant: SocVariant, dram_latency: u64) -> Self {
        let dram_latency = Cycles::new(dram_latency);
        let mem = MemSysConfig {
            dram_latency,
            llc_enabled: variant.has_llc(),
            llc: LlcConfig::cheshire_128k(),
            llc_serves_ptw: true,
            llc_serves_dma: false,
            ..MemSysConfig::default()
        };
        let iommu = IommuConfig {
            mode: if variant.has_iommu() {
                IommuMode::Translating
            } else {
                IommuMode::Disabled
            },
            iotlb_entries: 4,
            ..IommuConfig::default()
        };
        Self {
            variant,
            dram_latency,
            mem,
            cpu: HostCpuConfig::default(),
            iommu,
            cluster: ClusterConfig {
                dma: DmaConfig::default(),
                ..ClusterConfig::default()
            },
            driver: DriverConfig::default(),
            interference: InterferenceLevel::Idle,
            host_traffic: None,
            num_clusters: 1,
            cluster_priorities: Vec::new(),
            seed: 0x5EED,
        }
    }

    /// The paper's baseline platform (no IOMMU) at a given latency.
    pub fn baseline(dram_latency: u64) -> Self {
        Self::variant(SocVariant::Baseline, dram_latency)
    }

    /// IOMMU without LLC at a given latency.
    pub fn iommu_no_llc(dram_latency: u64) -> Self {
        Self::variant(SocVariant::Iommu, dram_latency)
    }

    /// IOMMU with the shared LLC at a given latency.
    pub fn iommu_with_llc(dram_latency: u64) -> Self {
        Self::variant(SocVariant::IommuLlc, dram_latency)
    }

    /// Returns a copy with a different IOTLB capacity (ablation).
    pub fn with_iotlb_entries(mut self, entries: usize) -> Self {
        self.iommu.iotlb_entries = entries;
        self
    }

    /// Returns a copy with a different number of outstanding DMA bursts
    /// (ablation).
    pub fn with_dma_outstanding(mut self, outstanding: usize) -> Self {
        self.cluster.dma.max_outstanding = outstanding;
        self
    }

    /// Returns a copy that routes device DMA through the LLC instead of the
    /// bypass (ablation of the paper's bypass argument).
    pub fn with_dma_through_llc(mut self) -> Self {
        self.mem.llc_serves_dma = true;
        self
    }

    /// Returns a copy with the given interference level (Figure 5).
    pub fn with_interference(mut self, level: InterferenceLevel) -> Self {
        self.interference = level;
        self
    }

    /// Returns a copy with double buffering disabled (ablation).
    pub fn with_single_buffering(mut self) -> Self {
        self.cluster.double_buffer = false;
        self
    }

    /// Returns a copy with `n` accelerator clusters sharing the IOMMU and
    /// the memory fabric (`Platform::new` rejects `n = 0`).
    pub fn with_clusters(mut self, n: usize) -> Self {
        self.num_clusters = n;
        self
    }

    /// Returns a copy whose memory fabric *charges* the cross-initiator
    /// queueing it measures (contention becomes part of reported latencies).
    pub fn with_fabric_contention(mut self) -> Self {
        self.mem.fabric.contention_enabled = true;
        self
    }

    /// Returns a copy whose DRAM backend is split into `n` page-interleaved
    /// channels (`n = 1` is the paper's single shared data path; `n = 0` is
    /// rejected by [`crate::Platform::new`]).
    pub fn with_memory_channels(mut self, n: usize) -> Self {
        self.mem.fabric.channels = DramChannelConfig {
            num_channels: n,
            ..self.mem.fabric.channels
        };
        self
    }

    /// Returns a copy with a fully specified multi-channel DRAM geometry
    /// (channel count, rank folding, interleave granule).
    pub fn with_channel_config(mut self, channels: DramChannelConfig) -> Self {
        self.mem.fabric.channels = channels;
        self
    }

    /// Returns a copy using the given fabric arbitration policy.
    pub fn with_arbitration(mut self, policy: ArbitrationPolicy) -> Self {
        self.mem.fabric.policy = policy;
        self
    }

    /// Returns a copy whose DRAM channels carry **finite request/response
    /// queues** of the given depths: the split-transaction fabric. A full
    /// request queue stalls initiator issue (credit-based backpressure,
    /// reported as `issue_stall_cycles`); a full response queue delays
    /// grants. The default `usize::MAX` depths are cycle-identical to the
    /// pure reservation model; a depth of 0 is rejected by
    /// [`crate::Platform::new`].
    pub fn with_channel_depths(mut self, req: usize, rsp: usize) -> Self {
        self.mem.fabric.req_queue_depth = req;
        self.mem.fabric.rsp_queue_depth = rsp;
        self
    }

    /// Returns a copy with the given [`QueueDepths`] (including
    /// [`QueueDepths::UNBOUNDED`], the default reservation model).
    pub fn with_queue_depths(mut self, depths: QueueDepths) -> Self {
        self.mem.fabric.req_queue_depth = depths.req;
        self.mem.fabric.rsp_queue_depth = depths.rsp;
        self
    }

    /// Returns a copy giving cluster `i` the DMA arbitration priority
    /// `priorities[i]` (missing entries default to 0). Pair with
    /// [`ArbitrationPolicy::FixedPriority`] for strict QoS ordering.
    pub fn with_cluster_priorities(mut self, priorities: Vec<u8>) -> Self {
        self.cluster_priorities = priorities;
        self
    }

    /// Returns a copy with the global-clock engine on: host and PTW
    /// accesses reserve bus occupancy on the fabric timelines and their
    /// measured queueing is charged into latencies whenever fabric
    /// contention charging is also enabled.
    pub fn with_global_clock(mut self) -> Self {
        self.mem.fabric.timed_host_ptw = true;
        self
    }

    /// Returns a copy that injects a timed host-traffic stream into every
    /// device measurement window (and turns the global-clock engine on —
    /// untimed host traffic could not contend).
    pub fn with_host_traffic(mut self, traffic: HostTrafficConfig) -> Self {
        self.host_traffic = Some(traffic);
        self.mem.fabric.timed_host_ptw = true;
        self
    }

    /// Returns a copy with the IOMMU's MSHR-style batched page-table walker
    /// enabled: concurrent walks that need a PTE read already in flight
    /// coalesce onto it instead of issuing their own.
    pub fn with_ptw_batching(mut self) -> Self {
        self.iommu.ptw_batching = true;
        self
    }

    /// Returns a copy with the batched walker enabled and its walk table
    /// sized to `entries` in-flight PTE reads.
    pub fn with_ptw_mshr_entries(mut self, entries: usize) -> Self {
        self.iommu.ptw_batching = true;
        self.iommu.ptw_mshr_entries = entries.max(1);
        self
    }

    /// Returns a copy whose IOMMU runs the **two-level translation
    /// hierarchy**: a private L1 ATC per device in front of a shared L2
    /// IOTLB, each with its own organisation, replacement policy and
    /// lookup latency (charged into every translation). The default
    /// (`None`) is the paper prototype's single IOTLB, cycle-identical to
    /// the pre-hierarchy model.
    pub fn with_tlb_hierarchy(mut self, hierarchy: TlbHierarchyConfig) -> Self {
        self.iommu.tlb_hierarchy = Some(hierarchy);
        self
    }

    /// Returns a copy with the default two-level hierarchy (4-entry
    /// fully-associative ATC per device, 32-entry 8×4 shared L2, true
    /// LRU).
    pub fn with_default_tlb_hierarchy(self) -> Self {
        self.with_tlb_hierarchy(TlbHierarchyConfig::default())
    }

    /// Returns a copy with **ATS/PRI-style demand paging**: zero-copy
    /// offloads skip the driver's up-front `map_buffer` pass, every page
    /// the device touches faults on first access, the fault enqueues a
    /// page request on the IOMMU's bounded queue, and the host driver
    /// services it by mapping the page through the timed memory system
    /// while the faulting DMA engine stalls-and-retries. Fault service
    /// latency is surfaced through `OffloadReport::iommu`
    /// (`page_requests`, percentiles) and the DMA engines'
    /// `fault_stall_cycles`.
    ///
    /// Workloads whose tile planning peeks device-visible memory before
    /// the first DMA touch (the sort kernel's merge-path pre-pass) work
    /// too: the executor's plan pass pages its reads in through the same
    /// ATS/PRI stall-and-retry loop, so a cold probe faults, waits for the
    /// host to map the page, and re-reads instead of failing.
    pub fn with_demand_paging(mut self) -> Self {
        self.iommu.demand_paging = true;
        self
    }

    /// Rejects knob values the platform cannot simulate, naming the knob.
    /// [`crate::Platform::new`] calls this before building anything.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a platform without clusters
    /// (`num_clusters`), a zero-entry IOTLB (`iommu.iotlb_entries`), a DMA
    /// engine allowed no outstanding bursts (`cluster.dma.max_outstanding`),
    /// a zero-slot fabric queue (`mem.fabric.req_queue_depth` /
    /// `mem.fabric.rsp_queue_depth`) or a DRAM backend without channels
    /// (`mem.fabric.channels.num_channels`).
    pub(crate) fn validate(&self) -> Result<()> {
        let reject = |reason: &str| {
            Err(Error::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.num_clusters == 0 {
            return reject("num_clusters (with_clusters) must be at least 1");
        }
        if self.iommu.iotlb_entries == 0 {
            return reject("iommu.iotlb_entries (with_iotlb_entries) must be at least 1");
        }
        if self.cluster.dma.max_outstanding == 0 {
            return reject("cluster.dma.max_outstanding (with_dma_outstanding) must be at least 1");
        }
        if self.mem.fabric.req_queue_depth == 0 {
            return reject("mem.fabric.req_queue_depth (with_channel_depths) must be at least 1");
        }
        if self.mem.fabric.rsp_queue_depth == 0 {
            return reject("mem.fabric.rsp_queue_depth (with_channel_depths) must be at least 1");
        }
        if self.mem.fabric.channels.num_channels == 0 {
            return reject(
                "mem.fabric.channels.num_channels (with_memory_channels) must be at least 1",
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_match_table2_configurations() {
        let base = PlatformConfig::baseline(600);
        assert!(!base.mem.llc_enabled || base.variant == SocVariant::Baseline);
        assert_eq!(base.iommu.mode, IommuMode::Disabled);
        assert!(
            base.mem.llc_enabled,
            "the baseline platform keeps its LLC for the host"
        );

        let no_llc = PlatformConfig::iommu_no_llc(600);
        assert_eq!(no_llc.iommu.mode, IommuMode::Translating);
        assert!(!no_llc.mem.llc_enabled);

        let with_llc = PlatformConfig::iommu_with_llc(600);
        assert_eq!(with_llc.iommu.mode, IommuMode::Translating);
        assert!(with_llc.mem.llc_enabled);
        assert!(
            !with_llc.mem.llc_serves_dma,
            "DMA must bypass the LLC by default"
        );
    }

    #[test]
    fn paper_iotlb_has_four_entries() {
        for v in SocVariant::ALL {
            assert_eq!(PlatformConfig::variant(v, 200).iommu.iotlb_entries, 4);
        }
    }

    #[test]
    fn ablation_builders() {
        let c = PlatformConfig::iommu_with_llc(200)
            .with_iotlb_entries(16)
            .with_dma_outstanding(8)
            .with_dma_through_llc()
            .with_single_buffering()
            .with_interference(InterferenceLevel::RandomTraffic);
        assert_eq!(c.iommu.iotlb_entries, 16);
        assert_eq!(c.cluster.dma.max_outstanding, 8);
        assert!(c.mem.llc_serves_dma);
        assert!(!c.cluster.double_buffer);
        assert_eq!(c.interference, InterferenceLevel::RandomTraffic);
    }

    #[test]
    fn labels_are_paper_labels() {
        assert_eq!(SocVariant::Baseline.label(), "Baseline");
        assert_eq!(SocVariant::Iommu.label(), "IOMMU");
        assert_eq!(SocVariant::IommuLlc.label(), "IOMMU+LLC");
    }
}
