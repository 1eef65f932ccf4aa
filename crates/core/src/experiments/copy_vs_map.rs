//! Figure 2 (right) and Figure 3: copy time vs map time over input size and
//! DRAM latency.
//!
//! The experiment allocates a user buffer of a given number of pages,
//! measures the host cycles needed to (a) copy it into the reserved
//! physically contiguous DRAM and (b) create IOMMU mappings for it
//! (including the cache flushes of Listing 1), and sweeps both the buffer
//! size (Figure 2 right) and the DRAM latency (Figure 3). The paper's
//! observations to reproduce: copying 16 pages becomes ~3.4× slower when the
//! latency grows from 200 to 1000 cycles, while mapping becomes only ~2.1×
//! slower because the driver's working set is mostly cache-resident.

use sva_common::{Result, PAGE_SIZE};

use crate::config::PlatformConfig;
use crate::platform::Platform;
use crate::report::{sci, TextTable};

/// One `(pages, latency)` measurement.
#[derive(Copy, Clone, Debug)]
pub struct CopyVsMapPoint {
    /// Buffer size in 4 KiB pages.
    pub pages: u64,
    /// DRAM latency (delayer cycles).
    pub dram_latency: u64,
    /// Host cycles to copy the buffer to reserved DRAM.
    pub copy_cycles: u64,
    /// Host cycles to create the IOMMU mapping (flushes + ioctl + PTEs).
    pub map_cycles: u64,
}

/// The full sweep.
#[derive(Clone, Debug, Default)]
pub struct CopyVsMapResult {
    /// All measurement points.
    pub points: Vec<CopyVsMapPoint>,
}

impl CopyVsMapResult {
    /// Finds a point.
    pub fn get(&self, pages: u64, latency: u64) -> Option<&CopyVsMapPoint> {
        self.points
            .iter()
            .find(|p| p.pages == pages && p.dram_latency == latency)
    }

    /// Ratio of copy time between two latencies at a fixed size (the paper's
    /// 3.4× for 16 pages, 200 → 1000).
    pub fn copy_scaling(&self, pages: u64, low: u64, high: u64) -> Option<f64> {
        Some(self.get(pages, high)?.copy_cycles as f64 / self.get(pages, low)?.copy_cycles as f64)
    }

    /// Ratio of map time between two latencies at a fixed size (the paper's
    /// 2.1×).
    pub fn map_scaling(&self, pages: u64, low: u64, high: u64) -> Option<f64> {
        Some(self.get(pages, high)?.map_cycles as f64 / self.get(pages, low)?.map_cycles as f64)
    }

    /// Renders the sweep as a table (Figures 2 right / 3).
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Pages",
            "DRAM latency",
            "Copy cycles",
            "Map cycles",
            "Copy/Map",
        ]);
        for p in &self.points {
            table.row(vec![
                p.pages.to_string(),
                p.dram_latency.to_string(),
                sci(p.copy_cycles),
                sci(p.map_cycles),
                format!("{:.2}", p.copy_cycles as f64 / p.map_cycles.max(1) as f64),
            ]);
        }
        table.render()
    }
}

/// Measures copy and map cost for each `(pages, latency)` combination.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn run(page_counts: &[u64], latencies: &[u64]) -> Result<CopyVsMapResult> {
    let mut result = CopyVsMapResult::default();
    for &latency in latencies {
        for &pages in page_counts {
            let bytes = pages * PAGE_SIZE;

            // Copy measurement: fresh platform, cold caches (the input was
            // produced long before the offload in the application).
            let mut p = Platform::new(PlatformConfig::iommu_with_llc(latency))?;
            let va = p.space.alloc_buffer(&mut p.mem, &mut p.frames, bytes)?;
            p.cpu.flush_l1();
            p.mem.flush_llc();
            let dst = p.reserved.alloc_bytes(bytes)?;
            let copy = p
                .copy
                .copy_to_device(&mut p.cpu, &mut p.mem, &p.space, va, dst, bytes)?;

            // Map measurement: fresh platform, Listing 1 flow (flush L1 and
            // LLC, then create the mapping).
            let mut q = Platform::new(PlatformConfig::iommu_with_llc(latency))?;
            let va = q.space.alloc_buffer(&mut q.mem, &mut q.frames, bytes)?;
            let mut map_cycles = q.cpu.flush_l1();
            map_cycles += q.mem.flush_llc();
            let (_, cost) = q.driver.map_buffer(
                &mut q.cpu,
                &mut q.mem,
                &mut q.iommu,
                &q.space,
                &mut q.frames,
                va,
                bytes,
            )?;
            map_cycles += cost.cycles;
            map_cycles += q.cpu.flush_l1();

            result.points.push(CopyVsMapPoint {
                pages,
                dram_latency: latency,
                copy_cycles: copy.cycles.raw(),
                map_cycles: map_cycles.raw(),
            });
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_cheaper_and_scales_better_than_copying() {
        let result = run(&[4, 16], &[200, 1000]).unwrap();
        assert_eq!(result.points.len(), 4);

        // Mapping beats copying at every measured point (Figure 2 right).
        for p in &result.points {
            assert!(
                p.map_cycles < p.copy_cycles,
                "mapping ({}) should be cheaper than copying ({}) for {} pages",
                p.map_cycles,
                p.copy_cycles,
                p.pages
            );
        }

        // Figure 3: copy scales harder with DRAM latency than map.
        let copy_scale = result.copy_scaling(16, 200, 1000).unwrap();
        let map_scale = result.map_scaling(16, 200, 1000).unwrap();
        assert!(
            copy_scale > map_scale,
            "copy {copy_scale:.2} !> map {map_scale:.2}"
        );
        assert!(
            copy_scale > 2.0,
            "copy scaling {copy_scale:.2} should be pronounced"
        );
        assert!(
            map_scale < 3.0,
            "map scaling {map_scale:.2} should stay moderate"
        );

        // Copy and map both grow with the input size.
        for latency in [200, 1000] {
            let small = result.get(4, latency).unwrap();
            let big = result.get(16, latency).unwrap();
            assert!(big.copy_cycles > small.copy_cycles);
            assert!(big.map_cycles > small.map_cycles);
        }
        assert!(result.render().contains("Copy cycles"));
    }
}
