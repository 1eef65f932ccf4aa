//! Exact simulated counters, the output digest and the order statistics the
//! report is built from.

/// Declares [`Counters`]: one `u64` per field, each with its metric name and
/// how two ops combine (`sum` or `max`).
macro_rules! counters {
    ($($field:ident => $name:literal, $combine:ident;)*) => {
        /// Exact counters of one op or one pass, copied from the reports the
        /// public API returns. Every value repeats exactly at a given seed.
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $(#[doc = $name] pub $field: u64,)*
        }

        impl Counters {
            /// `(metric name, value)` for every counter, in declaration order.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$field)),*]
            }

            /// Adds `other` into `self` (a pass is the sum of its ops).
            pub fn absorb(&mut self, other: &Counters) {
                $(self.$field = $combine(self.$field, other.$field);)*
            }
        }
    };
}

fn sum(a: u64, b: u64) -> u64 {
    a + b
}

fn max(a: u64, b: u64) -> u64 {
    a.max(b)
}

counters! {
    fabric_accesses => "mem.fabric.accesses", sum;
    fabric_bytes => "mem.fabric.bytes", sum;
    fabric_queue_cycles => "mem.fabric.queue_cycles", sum;
    fabric_issue_stall_cycles => "mem.fabric.issue_stall_cycles", sum;
    fabric_contended_grants => "mem.fabric.contended_grants", sum;
    fabric_grant_switches => "mem.fabric.grant_switches", sum;
    fabric_req_queue_peak => "mem.fabric.req_queue_peak", max;
    tiles => "cluster.tiles", sum;
    compute_cycles => "cluster.compute_cycles", sum;
    dma_wait_cycles => "cluster.dma_wait_cycles", sum;
    dma_requests => "cluster.dma.requests", sum;
    dma_bursts => "cluster.dma.bursts", sum;
    dma_bytes => "cluster.dma.bytes", sum;
    dma_issue_stall_cycles => "cluster.dma.issue_stall_cycles", sum;
    dma_page_faults => "cluster.dma.page_faults", sum;
    dma_fault_stall_cycles => "cluster.dma.fault_stall_cycles", sum;
    translations => "iommu.translations", sum;
    atc_hits => "iommu.atc.hits", sum;
    atc_misses => "iommu.atc.misses", sum;
    iotlb_hits => "iommu.iotlb.hits", sum;
    iotlb_misses => "iommu.iotlb.misses", sum;
    ptw_walks => "iommu.ptw.walks", sum;
    ptw_reads => "iommu.ptw.reads", sum;
    ptw_coalesced_reads => "iommu.ptw.coalesced_reads", sum;
    walk_table_events_peak => "iommu.ptw.walk_table_events_peak", max;
    pri_requests => "iommu.pri.requests", sum;
    pri_dropped => "iommu.pri.dropped", sum;
    pri_serviced => "iommu.pri.serviced", sum;
    pri_p99 => "iommu.pri.p99", max;
    serving_offered => "soc.serving.offered", sum;
    serving_admitted => "soc.serving.admitted", sum;
    serving_rejected => "soc.serving.rejected", sum;
}

impl Counters {
    /// Ratios derived from the counters: `(metric name, value)`.
    pub fn ratios(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "iommu.atc.hit_rate",
                ratio(self.atc_hits, self.atc_hits + self.atc_misses),
            ),
            (
                "iommu.iotlb.hit_rate",
                ratio(self.iotlb_hits, self.iotlb_hits + self.iotlb_misses),
            ),
            (
                "iommu.ptw.coalesced_ratio",
                ratio(
                    self.ptw_coalesced_reads,
                    self.ptw_reads + self.ptw_coalesced_reads,
                ),
            ),
            (
                "soc.serving.admit_ratio",
                ratio(self.serving_admitted, self.serving_offered),
            ),
        ]
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// 64-bit FNV-1a over a stream of `u64` words: the digest every op folds
/// its simulated outputs into.
#[derive(Copy, Clone, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a float by its exact bit pattern.
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// Folds every counter.
    pub fn counters(&mut self, c: &Counters) -> &mut Self {
        for (_, v) in c.entries() {
            self.word(v);
        }
        self
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (the
/// "inclusive" method of Python's `statistics.quantiles`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(values, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn counters_sum_and_max() {
        let mut a = Counters {
            fabric_accesses: 3,
            fabric_req_queue_peak: 4,
            ..Counters::default()
        };
        a.absorb(&Counters {
            fabric_accesses: 5,
            fabric_req_queue_peak: 2,
            ..Counters::default()
        });
        assert_eq!(a.fabric_accesses, 8);
        assert_eq!(a.fabric_req_queue_peak, 4);
        assert_eq!(a.entries()[0], ("mem.fabric.accesses", 8));
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Digest::default();
        a.word(1).word(2);
        let mut b = Digest::default();
        b.word(2).word(1);
        assert_ne!(a.value(), b.value());
    }
}
