//! The three benchmark workloads, built and run through the public API of
//! `sva_soc` only.
//!
//! A workload is set up once ([`Bench::setup`]): every distinct platform
//! configuration is booted with `Platform::new` into a prototype, and the
//! serving workload calibrates its service table. A pass then runs every op
//! of the workload in order ([`Bench::run_op`]); a device op clones its
//! prototype platform, so each op starts from the freshly booted state.

use sva_common::rng::DeterministicRng;
use sva_common::{ArbitrationPolicy, QueueDepths, Result};
use sva_host::HostTrafficConfig;
use sva_kernels::{KernelKind, Workload};
use sva_mem::{ChannelStats, InitiatorSnapshot};
use sva_soc::experiments::fabric::TlbHierarchyConfig;
use sva_soc::experiments::{ablation, copy_vs_map, offload_breakdown, ptw_time, serving as grid};
use sva_soc::offload::DeviceOnlyReport;
use sva_soc::serving::{self, ServiceTable, ServingConfig, ServingReport};
use sva_soc::{OffloadRunner, Platform, PlatformConfig, SocVariant};

use crate::ledger::{Counters, Digest};
use crate::trace::Tracer;

/// Which workload a run measures.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Table II / Fig. 4 grid plus one call of every figure and ablation
    /// experiment, at the sizes of the paper binaries.
    PaperGrid,
    /// Four clusters on a contended, bounded, host-loaded fabric with PTW
    /// batching, a tight TLB hierarchy and optional demand paging.
    ContendedSva,
    /// The open-loop serving grid with every tenant's trace scaled up.
    Serving,
}

impl WorkloadKind {
    /// Every workload, in report order.
    pub const ALL: [WorkloadKind; 3] = [Self::PaperGrid, Self::ContendedSva, Self::Serving];

    /// The workload's name on the command line and in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Self::PaperGrid => "paper_grid",
            Self::ContendedSva => "contended_sva",
            Self::Serving => "serving",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The seed the repository's own experiment uses for this workload:
    /// `kernel_runtime::run`, `fabric::run_point` and the serving sweep.
    pub const fn default_seed(self) -> u64 {
        match self {
            Self::PaperGrid => 0xBEEF,
            Self::ContendedSva => 0xFAB,
            Self::Serving => grid::SERVING_SEED,
        }
    }

    /// Digest of one full-size pass at [`WorkloadKind::default_seed`].
    /// Any change to a simulated output changes it.
    pub const fn golden_digest(self) -> u64 {
        match self {
            Self::PaperGrid => 0x2a6a_f51a_ed8d_bfcc,
            Self::ContendedSva => 0xf304_f776_ad88_1db6,
            Self::Serving => 0xa78f_6a7c_65d3_9423,
        }
    }
}

/// Problem sizes of the figure binaries (`table2`/`fig4`, `fig2`, `fig3`,
/// `fig5`) in their paper or `--small` mode.
struct FigureSizes {
    /// axpy elements of Fig. 2 (left) and Fig. 5.
    elems: usize,
    /// Buffer sizes of Fig. 3, in pages.
    pages: Vec<u64>,
    /// DRAM latencies of Table II, Fig. 3 and Fig. 4.
    latencies: Vec<u64>,
    /// DRAM latencies of Fig. 5.
    ptw_latencies: Vec<u64>,
}

impl FigureSizes {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                elems: 8_192,
                pages: vec![4, 16],
                latencies: vec![200, 1000],
                ptw_latencies: vec![200, 1000],
            }
        } else {
            Self {
                elems: 32_768,
                pages: vec![4, 8, 16, 32, 64],
                latencies: vec![200, 600, 1000],
                ptw_latencies: vec![200, 400, 600, 800, 1000],
            }
        }
    }
}

/// Kernels of the contended workload.
const CONTENDED_KERNELS: [KernelKind; 4] = [
    KernelKind::Gesummv,
    KernelKind::Heat3d,
    KernelKind::Sort,
    KernelKind::Axpy,
];
/// DRAM latencies of the contended workload.
const CONTENDED_LATENCIES: [u64; 2] = [200, 1000];
/// Factor by which every serving tenant's request count is scaled.
const SERVING_SCALE: usize = 10;

/// A figure or ablation experiment, called once per pass.
#[derive(Clone, Debug)]
enum AppCall {
    OffloadBreakdown {
        elems: usize,
        latency: u64,
    },
    CopyVsMap {
        pages: Vec<u64>,
        latencies: Vec<u64>,
    },
    PtwTime {
        elems: usize,
        latencies: Vec<u64>,
    },
    IotlbSize,
    DmaThroughLlc,
    DmaOutstanding,
    DoubleBuffering,
    FlushBeforeMap,
}

#[derive(Clone, Debug)]
enum Op {
    /// `run_device_only` of `workloads[workload]` on a clone of
    /// `platforms[platform]`.
    Device { platform: usize, workload: usize },
    /// One call of a figure or ablation entry point.
    App(AppCall),
    /// `serving::run` of `serving[config]`.
    Serve { config: usize },
}

/// What one op produced.
#[derive(Clone, Debug)]
pub struct OpOutcome {
    /// Device results verified against the host reference, or the serving
    /// report conserved every request.
    pub ok: bool,
    /// Modelled cycles the op's results report.
    pub sim_cycles: u64,
    /// Digest of every simulated output of the op.
    pub digest: u64,
    /// Exact layer counters of the op.
    pub counters: Counters,
}

/// A set-up workload, ready to run passes.
pub struct Bench {
    seed: u64,
    platforms: Vec<Platform>,
    workloads: Vec<Box<dyn Workload>>,
    serving: Vec<ServingConfig>,
    services: Option<ServiceTable>,
    ops: Vec<Op>,
}

impl Bench {
    /// Builds `kind` at workload seed `seed`. `smoke` selects the reduced
    /// problem sizes of the repository's `--small` runs.
    ///
    /// # Errors
    ///
    /// Propagates platform construction and calibration failures.
    pub fn setup(kind: WorkloadKind, seed: u64, smoke: bool, tracer: &mut Tracer) -> Result<Self> {
        let mut bench = Self {
            seed,
            platforms: Vec::new(),
            workloads: Vec::new(),
            serving: Vec::new(),
            services: None,
            ops: Vec::new(),
        };
        match kind {
            WorkloadKind::PaperGrid => bench.setup_paper_grid(smoke, tracer)?,
            WorkloadKind::ContendedSva => bench.setup_contended(smoke, tracer)?,
            WorkloadKind::Serving => bench.setup_serving(smoke, tracer)?,
        }
        Ok(bench)
    }

    fn boot(&mut self, config: PlatformConfig, tracer: &mut Tracer) -> Result<()> {
        let platform = tracer.call("soc.platform", || Platform::new(config))?;
        self.platforms.push(platform);
        Ok(())
    }

    /// Adds one device op per prototype platform, in boot order.
    fn add_device_ops(&mut self, kind: KernelKind, smoke: bool) {
        self.workloads.push(if smoke {
            kind.small_workload()
        } else {
            kind.paper_workload()
        });
        let workload = self.workloads.len() - 1;
        for platform in 0..self.platforms.len() {
            self.ops.push(Op::Device { platform, workload });
        }
    }

    /// The grid in `kernel_runtime::run` order (kernel, latency, variant),
    /// then the figure experiments and ablations as their binaries call
    /// them.
    fn setup_paper_grid(&mut self, smoke: bool, tracer: &mut Tracer) -> Result<()> {
        let sizes = FigureSizes::new(smoke);
        for &latency in &sizes.latencies {
            for variant in SocVariant::ALL {
                self.boot(PlatformConfig::variant(variant, latency), tracer)?;
            }
        }
        for kind in KernelKind::TABLE2 {
            self.add_device_ops(kind, smoke);
        }
        self.ops.extend(
            [
                AppCall::OffloadBreakdown {
                    elems: sizes.elems,
                    latency: 200,
                },
                AppCall::CopyVsMap {
                    pages: sizes.pages,
                    latencies: sizes.latencies,
                },
                AppCall::PtwTime {
                    elems: sizes.elems,
                    latencies: sizes.ptw_latencies,
                },
                AppCall::IotlbSize,
                AppCall::DmaThroughLlc,
                AppCall::DmaOutstanding,
                AppCall::DoubleBuffering,
                AppCall::FlushBeforeMap,
            ]
            .map(Op::App),
        );
        Ok(())
    }

    /// The `fabric::run_point` configuration with every contention knob on,
    /// one prototype per (demand paging, latency) pair.
    fn setup_contended(&mut self, smoke: bool, tracer: &mut Tracer) -> Result<()> {
        for demand in [false, true] {
            for latency in CONTENDED_LATENCIES {
                self.boot(contended_config(latency, demand), tracer)?;
            }
        }
        for kind in CONTENDED_KERNELS {
            self.add_device_ops(kind, smoke);
        }
        Ok(())
    }

    /// `experiments::serving::grid`, every tenant scaled by
    /// [`SERVING_SCALE`] (smoke: the smoke grid, unscaled), arrivals seeded
    /// by the workload seed; the service table is calibrated here.
    fn setup_serving(&mut self, smoke: bool, tracer: &mut Tracer) -> Result<()> {
        self.serving = grid::grid(smoke);
        for config in &mut self.serving {
            config.seed = self.seed;
            if !smoke {
                for tenant in &mut config.tenants {
                    tenant.requests *= SERVING_SCALE;
                }
            }
        }
        let kernels = self.serving[0].kernels();
        let seed = self.seed;
        let services = tracer.call("soc.serving.calibrate", || {
            ServiceTable::calibrate(&kernels, seed)
        })?;
        self.services = Some(services);
        self.ops = (0..self.serving.len())
            .map(|config| Op::Serve { config })
            .collect();
        Ok(())
    }

    /// Number of ops in one pass.
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// A short description of op `i` for failure messages.
    pub fn label(&self, i: usize) -> String {
        match &self.ops[i] {
            Op::Device { platform, workload } => {
                let config = self.platforms[*platform].config();
                format!(
                    "{} on {} @ {} cycles",
                    self.workloads[*workload].name(),
                    config.variant.label(),
                    config.dram_latency.raw()
                )
            }
            Op::App(call) => format!("{call:?}"),
            Op::Serve { config } => {
                let c = &self.serving[*config];
                format!("serving {:?} {:?} util {}", c.mix, c.policy, c.utilization)
            }
        }
    }

    /// Runs op `i` of the pass.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run_op(&self, i: usize, tracer: &mut Tracer) -> Result<OpOutcome> {
        match &self.ops[i] {
            Op::Device { platform, workload } => {
                let mut platform =
                    tracer.call("soc.platform.clone", || self.platforms[*platform].clone());
                let workload = self.workloads[*workload].as_ref();
                let report = tracer.call("soc.offload.device", || {
                    OffloadRunner::new(self.seed).run_device_only(&mut platform, workload)
                })?;
                let mem = tracer.call("mem.stats", || MemStats {
                    fabric: platform.mem.fabric_stats(),
                    channels: platform.mem.channel_stats(),
                    grant_switches: platform.mem.fabric().grant_switches(),
                });
                Ok(device_outcome(&report, &mem))
            }
            Op::App(call) => tracer.call("soc.offload.app", || run_app(call)),
            Op::Serve { config } => {
                let services = self
                    .services
                    .as_ref()
                    .expect("serving calibrated at set-up");
                let report = tracer.call("soc.serving.des", || {
                    serving::run(&self.serving[*config], services)
                });
                Ok(serving_outcome(&report))
            }
        }
    }

    /// The host reference of op `i` on its own: `init`, `expected` and
    /// `verify` on the op's inputs, exactly the reference work
    /// `run_device_only` does around the simulation. `None` for ops
    /// without device inputs of their own.
    pub fn run_reference(&self, i: usize, tracer: &mut Tracer) -> Option<bool> {
        let Op::Device { workload, .. } = &self.ops[i] else {
            return None;
        };
        let workload = self.workloads[*workload].as_ref();
        Some(tracer.call("kernels.reference", || {
            let initial = workload.init(&mut DeterministicRng::new(self.seed));
            let expected = workload.expected(&initial);
            workload.verify(&expected, &expected).is_ok()
        }))
    }
}

/// The contended platform, configured by the same `PlatformConfig` calls as
/// `fabric::run_point`: four IOMMU+LLC clusters, two channels, round-robin
/// arbitration, 4/4 queues, host traffic, PTW batching and the default
/// (4-entry ATC, 8×4 IOTLB) hierarchy.
fn contended_config(latency: u64, demand_paging: bool) -> PlatformConfig {
    let config = PlatformConfig::variant(SocVariant::IommuLlc, latency)
        .with_clusters(4)
        .with_fabric_contention()
        .with_memory_channels(2)
        .with_arbitration(ArbitrationPolicy::RoundRobin)
        .with_queue_depths(QueueDepths::bounded(4, 4))
        .with_host_traffic(HostTrafficConfig::default())
        .with_ptw_batching()
        .with_tlb_hierarchy(TlbHierarchyConfig::default());
    if demand_paging {
        config.with_demand_paging()
    } else {
        config
    }
}

/// The memory system's statistics after a device op.
struct MemStats {
    fabric: Vec<InitiatorSnapshot>,
    channels: Vec<ChannelStats>,
    grant_switches: u64,
}

fn device_outcome(report: &DeviceOnlyReport, mem: &MemStats) -> OpOutcome {
    let mut c = Counters::default();
    for snap in &mem.fabric {
        let s = snap.stats;
        c.fabric_accesses += s.accesses();
        c.fabric_bytes += s.bytes;
        c.fabric_queue_cycles += s.queue_cycles;
        c.fabric_issue_stall_cycles += s.issue_stall_cycles;
        c.fabric_contended_grants += s.contended_grants;
        c.fabric_req_queue_peak = c.fabric_req_queue_peak.max(s.req_queue_peak);
    }
    c.fabric_grant_switches = mem.grant_switches;
    let stats = &report.stats;
    c.tiles = stats.tiles;
    c.compute_cycles = stats.compute.raw();
    c.dma_wait_cycles = stats.dma_wait.raw();
    c.dma_requests = stats.dma.requests;
    c.dma_bursts = stats.dma.bursts;
    c.dma_bytes = stats.dma.bytes;
    c.dma_issue_stall_cycles = stats.dma.issue_stall_cycles;
    c.dma_page_faults = stats.dma.page_faults;
    c.dma_fault_stall_cycles = stats.dma.fault_stall_cycles;
    let io = &report.iommu;
    c.translations = io.translations;
    c.atc_hits = io.atc.hits;
    c.atc_misses = io.atc.misses;
    c.iotlb_hits = io.iotlb.hits;
    c.iotlb_misses = io.iotlb.misses;
    c.ptw_walks = io.ptw_walks;
    c.ptw_reads = io.ptw_reads;
    c.ptw_coalesced_reads = io.ptw_coalesced_reads;
    c.walk_table_events_peak = io.ptw_walk_table_events_peak as u64;
    c.pri_requests = io.page_requests.requests;
    c.pri_dropped = io.page_requests.dropped;
    c.pri_serviced = io.page_requests.serviced;
    c.pri_p99 = io.page_request_p99;

    let mut d = Digest::default();
    d.word(stats.total.raw())
        .word(u64::from(report.verified))
        .counters(&c);
    for shard in &report.per_cluster {
        d.word(shard.total.raw()).word(shard.dma_wait.raw());
    }
    for ch in &mem.channels {
        d.word(ch.grants)
            .word(ch.bytes)
            .word(ch.occupancy_cycles)
            .word(ch.queue_cycles);
        d.word(ch.issue_stall_cycles)
            .word(ch.req_queue_peak)
            .word(ch.rsp_queue_peak);
    }
    d.word(io.page_request_p50)
        .word(io.page_request_p90)
        .float(io.ptw_time.mean());
    OpOutcome {
        ok: report.verified,
        sim_cycles: stats.total.raw(),
        digest: d.value(),
        counters: c,
    }
}

fn run_app(call: &AppCall) -> Result<OpOutcome> {
    let mut d = Digest::default();
    let mut sim = 0u64;
    let mut ok = true;
    match call {
        AppCall::OffloadBreakdown { elems, latency } => {
            for case in offload_breakdown::run(*elems, *latency)?.cases {
                ok &= case.verified;
                sim += case.total;
                d.word(case.copy_or_map).word(case.offload_overhead);
                d.word(case.compute)
                    .word(case.total)
                    .word(u64::from(case.verified));
            }
        }
        AppCall::CopyVsMap { pages, latencies } => {
            for p in copy_vs_map::run(pages, latencies)?.points {
                sim += p.copy_cycles + p.map_cycles;
                d.word(p.copy_cycles).word(p.map_cycles);
            }
        }
        AppCall::PtwTime { elems, latencies } => {
            for p in ptw_time::run(*elems, latencies)?.points {
                sim += (p.avg_ptw_cycles * p.walks as f64).round() as u64;
                d.float(p.avg_ptw_cycles).word(p.walks);
            }
        }
        AppCall::IotlbSize
        | AppCall::DmaThroughLlc
        | AppCall::DmaOutstanding
        | AppCall::DoubleBuffering
        | AppCall::FlushBeforeMap => {
            let result = match call {
                AppCall::IotlbSize => {
                    ablation::iotlb_size(KernelKind::Gesummv, 1000, &[1, 2, 4, 8, 16, 64])
                }
                AppCall::DmaThroughLlc => ablation::dma_through_llc(KernelKind::Heat3d, 600),
                AppCall::DmaOutstanding => {
                    ablation::dma_outstanding(KernelKind::Heat3d, 1000, &[1, 2, 4, 8])
                }
                AppCall::DoubleBuffering => ablation::double_buffering(KernelKind::Gesummv, 600),
                _ => ablation::flush_before_map(1000),
            }?;
            for p in result.points {
                sim += p.total;
                d.word(p.total)
                    .float(p.dma_fraction)
                    .float(p.avg_ptw_cycles);
            }
        }
    }
    Ok(OpOutcome {
        ok,
        sim_cycles: sim,
        digest: d.value(),
        counters: Counters::default(),
    })
}

fn serving_outcome(report: &ServingReport) -> OpOutcome {
    let c = Counters {
        serving_offered: report.offered,
        serving_admitted: report.admitted,
        serving_rejected: report.rejected,
        ..Counters::default()
    };
    let mut d = Digest::default();
    d.counters(&c).word(report.completed).word(report.makespan);
    let l = report.latency;
    d.word(l.p50).word(l.p99).word(l.p999).word(l.count);
    for t in &report.tenants {
        d.word(t.offered).word(t.rejected).word(t.completed);
        d.word(t.latency.p50)
            .word(t.latency.p99)
            .word(t.latency.p999);
    }
    d.word(report.queue_peak as u64);
    for &depth in &report.queue_depth_samples {
        d.word(depth as u64);
    }
    OpOutcome {
        ok: report.conserved(),
        sim_cycles: report.makespan,
        digest: d.value(),
        counters: c,
    }
}

/// One of the paper's reference ratios next to the model's value.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Metric stem, e.g. `paper.zero_copy_gain_pct`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// The paper's figure, as the experiment modules document it.
    pub paper: f64,
    /// The model's figure.
    pub model: f64,
}

impl Reference {
    /// Relative error of the model against the paper, in percent.
    pub fn err_pct(&self) -> f64 {
        (self.model - self.paper).abs() / self.paper * 100.0
    }
}

/// The five reference ratios the experiment modules carry (zero-copy gain,
/// Fig. 3 copy and map scaling, Fig. 5 LLC walk speed-up and host
/// interference), computed by the same calls at the same sizes as the
/// paper binaries. The model is not validated beyond these five figures.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn model_accuracy(
    smoke: bool,
) -> std::result::Result<Vec<Reference>, Box<dyn std::error::Error>> {
    let sizes = FigureSizes::new(smoke);
    let breakdown = offload_breakdown::run(sizes.elems, 200)?;
    let scaling = copy_vs_map::run(&sizes.pages, &sizes.latencies)?;
    let ptw = ptw_time::run(sizes.elems, &sizes.ptw_latencies)?;
    let missing = "a reference point is missing from the experiment results";
    Ok(vec![
        Reference {
            name: "paper.zero_copy_gain_pct",
            unit: "%",
            paper: 47.0,
            model: breakdown.zero_copy_speedup().ok_or(missing)? * 100.0,
        },
        Reference {
            name: "paper.copy_scaling",
            unit: "x",
            paper: 3.4,
            model: scaling.copy_scaling(16, 200, 1000).ok_or(missing)?,
        },
        Reference {
            name: "paper.map_scaling",
            unit: "x",
            paper: 2.1,
            model: scaling.map_scaling(16, 200, 1000).ok_or(missing)?,
        },
        Reference {
            name: "paper.llc_ptw_speedup",
            unit: "x",
            paper: 15.0,
            model: ptw.llc_speedup(),
        },
        Reference {
            name: "paper.host_interference_pct",
            unit: "%",
            paper: 20.0,
            model: ptw.interference_slowdown() * 100.0,
        },
    ])
}
