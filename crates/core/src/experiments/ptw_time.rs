//! Figure 5: average IOMMU page-table-walk time with and without the shared
//! LLC and with and without concurrent host traffic.
//!
//! The experiment runs the axpy kernel as a zero-copy offload and records the
//! IOMMU's per-walk latency statistics for every combination of
//! `{LLC, no LLC}` × `{host idle, host random traffic}` over a DRAM-latency
//! sweep. The paper's observations to reproduce: the LLC cuts the average
//! walk time by an order of magnitude (~15× on average, staying below
//! 200 cycles even at 1000 cycles of DRAM latency), and host interference
//! adds roughly 20 % to the walk time.

use sva_common::Result;
use sva_host::InterferenceLevel;
use sva_kernels::AxpyWorkload;

use crate::config::{PlatformConfig, SocVariant};
use crate::offload::OffloadRunner;
use crate::platform::Platform;
use crate::report::TextTable;

/// One `(latency, llc, interference)` measurement.
#[derive(Copy, Clone, Debug)]
pub struct PtwPoint {
    /// DRAM latency (delayer cycles).
    pub dram_latency: u64,
    /// Whether the shared LLC served page-table walks.
    pub llc: bool,
    /// Whether the host issued concurrent random traffic.
    pub interference: bool,
    /// Average page-table-walk latency in cycles.
    pub avg_ptw_cycles: f64,
    /// Number of walks observed.
    pub walks: u64,
}

/// The full sweep.
#[derive(Clone, Debug, Default)]
pub struct PtwResultSet {
    /// All measurement points.
    pub points: Vec<PtwPoint>,
}

impl PtwResultSet {
    /// Finds a point.
    pub fn get(&self, latency: u64, llc: bool, interference: bool) -> Option<&PtwPoint> {
        self.points
            .iter()
            .find(|p| p.dram_latency == latency && p.llc == llc && p.interference == interference)
    }

    /// Average factor by which the LLC reduces the walk time over the sweep
    /// (the paper reports ~15×), host idle.
    pub fn llc_speedup(&self) -> f64 {
        let mut ratios = Vec::new();
        for p in self.points.iter().filter(|p| !p.llc && !p.interference) {
            if let Some(with) = self.get(p.dram_latency, true, false) {
                if with.avg_ptw_cycles > 0.0 {
                    ratios.push(p.avg_ptw_cycles / with.avg_ptw_cycles);
                }
            }
        }
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Average slowdown caused by host interference when the LLC is present
    /// (the paper reports ~20 %), as a fraction.
    pub fn interference_slowdown(&self) -> f64 {
        let mut ratios = Vec::new();
        for p in self.points.iter().filter(|p| p.llc && p.interference) {
            if let Some(quiet) = self.get(p.dram_latency, true, false) {
                if quiet.avg_ptw_cycles > 0.0 {
                    ratios.push(p.avg_ptw_cycles / quiet.avg_ptw_cycles - 1.0);
                }
            }
        }
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Renders the Figure 5 data.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "DRAM latency",
            "LLC",
            "Host traffic",
            "Avg PTW cycles",
            "Walks",
        ]);
        for p in &self.points {
            table.row(vec![
                p.dram_latency.to_string(),
                if p.llc { "yes" } else { "no" }.to_string(),
                if p.interference { "random" } else { "idle" }.to_string(),
                format!("{:.1}", p.avg_ptw_cycles),
                p.walks.to_string(),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "LLC reduces the average PTW time by {:.1}x (paper: ~15x); \
             host interference adds {:.0}% (paper: ~20%)\n",
            self.llc_speedup(),
            self.interference_slowdown() * 100.0
        ));
        out
    }
}

/// Runs the sweep: axpy of `elems` elements, for every latency, with and
/// without LLC and host interference.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn run(elems: usize, latencies: &[u64]) -> Result<PtwResultSet> {
    let workload = AxpyWorkload::with_elems(elems);
    let mut result = PtwResultSet::default();
    for &latency in latencies {
        for llc in [false, true] {
            for interference in [false, true] {
                let variant = if llc {
                    SocVariant::IommuLlc
                } else {
                    SocVariant::Iommu
                };
                let level = if interference {
                    InterferenceLevel::RandomTraffic
                } else {
                    InterferenceLevel::Idle
                };
                let config = PlatformConfig::variant(variant, latency).with_interference(level);
                let mut platform = Platform::new(config)?;
                let report =
                    OffloadRunner::new(0xF165).run_device_only(&mut platform, &workload)?;
                result.points.push(PtwPoint {
                    dram_latency: latency,
                    llc,
                    interference,
                    avg_ptw_cycles: report.iommu.ptw_time.mean(),
                    walks: report.iommu.ptw_walks,
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
    fn llc_and_interference_shape_matches_figure5() {
        let result = run(16_384, &[600]).unwrap();
        assert_eq!(result.points.len(), 4);

        let no_llc = result.get(600, false, false).unwrap();
        let with_llc = result.get(600, true, false).unwrap();
        assert!(no_llc.walks > 0 && with_llc.walks > 0);

        // The LLC reduces the walk time by an order of magnitude and keeps it
        // below ~200 cycles.
        assert!(
            result.llc_speedup() > 5.0,
            "speedup {:.1}",
            result.llc_speedup()
        );
        assert!(
            with_llc.avg_ptw_cycles < 200.0,
            "avg walk with LLC should stay under 200 cycles, got {:.1}",
            with_llc.avg_ptw_cycles
        );

        // Interference slows walks down, both with and without the LLC.
        let noisy = result.get(600, true, true).unwrap();
        assert!(noisy.avg_ptw_cycles > with_llc.avg_ptw_cycles);
        assert!(result.interference_slowdown() > 0.0);
        assert!(result.render().contains("Avg PTW cycles"));
    }
}
