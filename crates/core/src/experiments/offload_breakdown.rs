//! Figure 2 (left): application-level breakdown of an axpy offload.
//!
//! The experiment runs the same axpy problem three ways — host-only,
//! copy-based offload and zero-copy offload — and splits the runtime into
//! the copy-or-map region, the offload/fork-join overhead and the
//! computation, exactly like the stacked bars of Figure 2. It also computes
//! the headline claim of Section IV-A: how much faster zero-copy offloading
//! is than copy-based offloading.

use sva_common::Result;
use sva_kernels::AxpyWorkload;

use crate::config::PlatformConfig;
use crate::offload::{OffloadMode, OffloadRunner};
use crate::platform::Platform;
use crate::report::{sci, TextTable};

/// One bar of the figure.
#[derive(Clone, Debug)]
pub struct OffloadCase {
    /// Which offload flow.
    pub mode: OffloadMode,
    /// Cycles spent copying or mapping.
    pub copy_or_map: u64,
    /// Cycles spent triggering / synchronising the offload.
    pub offload_overhead: u64,
    /// Cycles spent computing (device or host).
    pub compute: u64,
    /// End-to-end cycles.
    pub total: u64,
    /// Whether results verified against the reference.
    pub verified: bool,
}

/// The three bars plus derived headline numbers.
#[derive(Clone, Debug)]
pub struct OffloadBreakdownResult {
    /// Problem size (elements per vector).
    pub elems: usize,
    /// DRAM latency used.
    pub dram_latency: u64,
    /// The three cases: host-only, copy, zero-copy.
    pub cases: Vec<OffloadCase>,
}

impl OffloadBreakdownResult {
    /// Returns the case for a mode.
    pub fn case(&self, mode: OffloadMode) -> Option<&OffloadCase> {
        self.cases.iter().find(|c| c.mode == mode)
    }

    /// Section IV-A headline: fraction by which zero-copy offloading is
    /// faster than copy-based offloading (the paper measures 47 %).
    pub fn zero_copy_speedup(&self) -> Option<f64> {
        let copy = self.case(OffloadMode::CopyOffload)?;
        let zero = self.case(OffloadMode::ZeroCopy)?;
        Some(1.0 - zero.total as f64 / copy.total as f64)
    }

    /// Renders the Figure 2 (left) stacked-bar data as a table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Scenario",
            "Copy/Map",
            "Offload overhead",
            "Compute",
            "Total",
            "Verified",
        ]);
        for case in &self.cases {
            table.row(vec![
                case.mode.label().to_string(),
                sci(case.copy_or_map),
                sci(case.offload_overhead),
                sci(case.compute),
                sci(case.total),
                case.verified.to_string(),
            ]);
        }
        let mut out = format!(
            "axpy {} elements, DRAM latency {} cycles\n{}",
            self.elems,
            self.dram_latency,
            table.render()
        );
        if let Some(speedup) = self.zero_copy_speedup() {
            out.push_str(&format!(
                "zero-copy offloading is {:.0}% faster than copy-based offloading (paper: 47%)\n",
                speedup * 100.0
            ));
        }
        out
    }
}

/// Runs the three scenarios for an axpy of `elems` elements at the given
/// DRAM latency (the paper uses 32 768 elements).
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn run(elems: usize, dram_latency: u64) -> Result<OffloadBreakdownResult> {
    let workload = AxpyWorkload::with_elems(elems);
    let mut cases = Vec::new();
    for mode in [
        OffloadMode::HostOnly,
        OffloadMode::CopyOffload,
        OffloadMode::ZeroCopy,
    ] {
        // Each scenario runs on a freshly booted platform of the paper's full
        // configuration (IOMMU + LLC) so caches do not leak state across bars.
        let mut platform = Platform::new(PlatformConfig::iommu_with_llc(dram_latency))?;
        let report = OffloadRunner::new(0xF162).run(&mut platform, &workload, mode)?;
        let compute = report
            .device
            .map(|d| d.total.raw())
            .or(report.host.map(|h| h.total.raw()))
            .unwrap_or(0);
        cases.push(OffloadCase {
            mode,
            copy_or_map: report.copy_or_map.raw(),
            offload_overhead: report.offload_overhead.raw(),
            compute,
            total: report.total.raw(),
            verified: report.verified,
        });
    }
    Ok(OffloadBreakdownResult {
        elems,
        dram_latency,
        cases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_matches_figure2_shape() {
        let result = run(16_384, 200).unwrap();
        assert_eq!(result.cases.len(), 3);
        assert!(result.cases.iter().all(|c| c.verified));

        let host = result.case(OffloadMode::HostOnly).unwrap();
        let copy = result.case(OffloadMode::CopyOffload).unwrap();
        let zero = result.case(OffloadMode::ZeroCopy).unwrap();

        // Device compute is faster than host compute (8 PEs vs 1 core).
        assert!(copy.compute < host.compute);
        // Mapping is cheaper than copying.
        assert!(zero.copy_or_map < copy.copy_or_map);
        // Zero-copy offloading wins overall.
        assert!(result.zero_copy_speedup().unwrap() > 0.0);
        // And the rendered report mentions the headline.
        assert!(result.render().contains("faster than copy-based"));
    }
}
