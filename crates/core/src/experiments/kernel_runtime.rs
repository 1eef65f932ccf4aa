//! Table II / Figure 4: device runtime, DMA share and IOMMU overhead per
//! kernel, DRAM latency and platform variant.
//!
//! For every kernel and DRAM latency the experiment runs the three platform
//! variants (*Baseline*, *IOMMU*, *IOMMU + LLC*), measuring only the
//! accelerator's execution (offload and synchronisation time excluded, as in
//! the paper). Table II reports absolute cycles and the share of time spent
//! waiting for DMA; Figure 4 reports the same data normalised to the
//! baseline, with the IOMMU overhead percentage annotated.

use sva_kernels::KernelKind;

use crate::config::{PlatformConfig, SocVariant};
use crate::offload::OffloadRunner;
use crate::platform::Platform;
use crate::report::{percent, sci, TextTable};
use sva_common::Result;

/// One measurement point.
#[derive(Clone, Debug)]
pub struct KernelRuntimePoint {
    /// Kernel measured.
    pub kernel: String,
    /// DRAM latency (delayer cycles).
    pub dram_latency: u64,
    /// Platform variant.
    pub variant: SocVariant,
    /// Total device cycles.
    pub total: u64,
    /// Cycles the cluster waited for DMA.
    pub dma_wait: u64,
    /// DMA share of the runtime.
    pub dma_fraction: f64,
    /// Whether the device results matched the host reference.
    pub verified: bool,
}

/// The full sweep.
#[derive(Clone, Debug, Default)]
pub struct KernelRuntimeResult {
    /// All measurement points.
    pub points: Vec<KernelRuntimePoint>,
}

impl KernelRuntimeResult {
    /// Finds the point for a given combination.
    pub fn get(
        &self,
        kernel: &str,
        latency: u64,
        variant: SocVariant,
    ) -> Option<&KernelRuntimePoint> {
        self.points
            .iter()
            .find(|p| p.kernel == kernel && p.dram_latency == latency && p.variant == variant)
    }

    /// Runtime overhead of a variant relative to the baseline at the same
    /// latency (Figure 4's annotations), as a fraction.
    pub fn overhead_vs_baseline(
        &self,
        kernel: &str,
        latency: u64,
        variant: SocVariant,
    ) -> Option<f64> {
        let base = self.get(kernel, latency, SocVariant::Baseline)?;
        let v = self.get(kernel, latency, variant)?;
        Some(v.total as f64 / base.total as f64 - 1.0)
    }

    /// Renders the Table II layout: one block of rows per kernel, one column
    /// per latency, three variant rows (cycles and %DMA).
    pub fn render_table2(&self, latencies: &[u64]) -> String {
        let mut header = vec!["Kernel".to_string(), "Config".to_string()];
        for l in latencies {
            header.push(format!("{l} cyc"));
            header.push(format!("%DMA@{l}"));
        }
        let mut table = TextTable::new(header);
        let kernels: Vec<String> = {
            let mut seen = Vec::new();
            for p in &self.points {
                if !seen.contains(&p.kernel) {
                    seen.push(p.kernel.clone());
                }
            }
            seen
        };
        for kernel in &kernels {
            for variant in SocVariant::ALL {
                let mut row = vec![kernel.clone(), variant.label().to_string()];
                for &l in latencies {
                    if let Some(p) = self.get(kernel, l, variant) {
                        row.push(sci(p.total));
                        row.push(percent(p.dma_fraction));
                    } else {
                        row.push("-".to_string());
                        row.push("-".to_string());
                    }
                }
                table.row(row);
            }
        }
        table.render()
    }

    /// Renders the Figure 4 layout: runtime relative to the baseline plus the
    /// overhead annotation for the IOMMU variants.
    pub fn render_fig4(&self, latencies: &[u64]) -> String {
        let mut table = TextTable::new(vec![
            "Kernel",
            "Latency",
            "Config",
            "Relative runtime",
            "IOMMU overhead",
        ]);
        let kernels: Vec<String> = {
            let mut seen = Vec::new();
            for p in &self.points {
                if !seen.contains(&p.kernel) {
                    seen.push(p.kernel.clone());
                }
            }
            seen
        };
        for kernel in &kernels {
            for &l in latencies {
                for variant in SocVariant::ALL {
                    let (Some(p), Some(base)) = (
                        self.get(kernel, l, variant),
                        self.get(kernel, l, SocVariant::Baseline),
                    ) else {
                        continue;
                    };
                    let rel = p.total as f64 / base.total as f64;
                    let overhead = if variant == SocVariant::Baseline {
                        "-".to_string()
                    } else {
                        percent(rel - 1.0)
                    };
                    table.row(vec![
                        kernel.clone(),
                        l.to_string(),
                        variant.label().to_string(),
                        format!("{rel:.3}"),
                        overhead,
                    ]);
                }
            }
        }
        table.render()
    }
}

/// Runs the sweep for the given kernels and latencies.
///
/// `paper_size` selects the paper's problem sizes; `false` selects reduced
/// sizes for fast functional testing.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn run(
    kernels: &[KernelKind],
    latencies: &[u64],
    paper_size: bool,
) -> Result<KernelRuntimeResult> {
    let mut result = KernelRuntimeResult::default();
    for &kind in kernels {
        let workload = if paper_size {
            kind.paper_workload()
        } else {
            kind.small_workload()
        };
        for &latency in latencies {
            for variant in SocVariant::ALL {
                let mut platform = Platform::new(PlatformConfig::variant(variant, latency))?;
                let report =
                    OffloadRunner::new(0xBEEF).run_device_only(&mut platform, workload.as_ref())?;
                result.points.push(KernelRuntimePoint {
                    kernel: workload.name().to_string(),
                    dram_latency: latency,
                    variant,
                    total: report.stats.total.raw(),
                    dma_wait: report.stats.dma_wait.raw(),
                    dma_fraction: report.stats.dma_fraction(),
                    verified: report.verified,
                });
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_reproduces_the_papers_shape() {
        let result = run(&[KernelKind::Gemm, KernelKind::Heat3d], &[200, 1000], false).unwrap();
        assert_eq!(result.points.len(), 2 * 2 * 3);
        assert!(result.points.iter().all(|p| p.verified));

        // DMA share grows with latency for the baseline.
        for kernel in ["gemm", "heat3d"] {
            let low = result.get(kernel, 200, SocVariant::Baseline).unwrap();
            let high = result.get(kernel, 1000, SocVariant::Baseline).unwrap();
            assert!(high.dma_fraction >= low.dma_fraction, "{kernel}");
            assert!(high.total > low.total, "{kernel}");
        }

        // heat3d is more memory bound than gemm.
        let gemm = result.get("gemm", 1000, SocVariant::Baseline).unwrap();
        let heat = result.get("heat3d", 1000, SocVariant::Baseline).unwrap();
        assert!(heat.dma_fraction > gemm.dma_fraction);

        // The IOMMU without LLC costs more than with the LLC, which is close
        // to the baseline.
        for kernel in ["gemm", "heat3d"] {
            let no_llc = result
                .overhead_vs_baseline(kernel, 1000, SocVariant::Iommu)
                .unwrap();
            let with_llc = result
                .overhead_vs_baseline(kernel, 1000, SocVariant::IommuLlc)
                .unwrap();
            assert!(no_llc > with_llc, "{kernel}: {no_llc} !> {with_llc}");
            assert!(
                with_llc < 0.10,
                "{kernel}: LLC overhead should be small, got {with_llc}"
            );
        }
    }

    #[test]
    fn rendering_contains_all_variants() {
        let result = run(&[KernelKind::Gesummv], &[200], false).unwrap();
        let t2 = result.render_table2(&[200]);
        let f4 = result.render_fig4(&[200]);
        for label in ["Baseline", "IOMMU", "IOMMU+LLC"] {
            assert!(t2.contains(label));
            assert!(f4.contains(label));
        }
    }
}
