//! Beyond the paper — the open-loop serving sweep.
//!
//! The paper's evaluation is closed-loop: one offload at a time, measured
//! in isolation. This sweep asks the deployment question instead — *what
//! SLO can N clusters actually hold under offered load?* — by driving the
//! calibrated platform with multi-tenant open-loop arrival traces (the
//! three [`ArrivalMix`] shapes) through a bounded admission queue and each
//! [`DispatchPolicy`], at utilizations below and above the aggregate
//! service capacity. Each point reports end-to-end latency p50/p99/p999,
//! per-tenant goodput against offered load, admission rejects and the
//! waiting-queue depth timeline.
//!
//! Service times are calibrated once per kernel with a real device-only
//! run ([`ServiceTable::calibrate`]) and shared by every grid point, so
//! the sweep's cost is dominated by the (cheap, purely event-driven)
//! serving loops and stays bench-friendly.

use sva_common::ArrivalMix;
use sva_host::serving::DispatchPolicy;

use crate::report::{sci, TextTable};
use crate::serving::{self, ServiceTable, ServingConfig, ServingReport};
use sva_common::Result;

pub use crate::experiments::fabric::SweepMeta;

/// Utilization factors of the full grid: one point with headroom and one
/// past saturation (rejects and a stretched tail are expected there).
pub const GRID_UTILIZATIONS: [f64; 2] = [0.7, 1.2];

/// Seed shared by the sweep's calibration runs and arrival traces.
pub const SERVING_SEED: u64 = 0x5E4B;

/// The full serving sweep: every grid point plus the shared calibration.
#[derive(Clone, Debug)]
pub struct ServingSweepResult {
    /// One report per grid point, in grid order.
    pub points: Vec<ServingReport>,
}

/// The grid of serving points: every arrival mix × every dispatch policy ×
/// [`GRID_UTILIZATIONS`], on a four-cluster platform. `smoke` shrinks the
/// grid (one utilization, two policies, shorter traces) for CI.
pub fn grid(smoke: bool) -> Vec<ServingConfig> {
    let policies: &[DispatchPolicy] = if smoke {
        &[DispatchPolicy::Fcfs, DispatchPolicy::Priority]
    } else {
        &DispatchPolicy::ALL
    };
    let utilizations: &[f64] = if smoke { &[1.2] } else { &GRID_UTILIZATIONS };
    let mut configs = Vec::new();
    for mix in ArrivalMix::ALL {
        for &policy in policies {
            for &utilization in utilizations {
                let mut config = ServingConfig::small(4, policy, mix);
                config.utilization = utilization;
                config.seed = SERVING_SEED;
                if smoke {
                    for tenant in &mut config.tenants {
                        tenant.requests /= 4;
                    }
                }
                configs.push(config);
            }
        }
    }
    configs
}

/// Calibrates the service table the whole grid shares (one device-only run
/// per distinct kernel of the default tenant set).
///
/// # Errors
///
/// Propagates platform construction and offload failures.
pub fn calibrate() -> Result<ServiceTable> {
    let kernels = ServingConfig::small(4, DispatchPolicy::Fcfs, ArrivalMix::Poisson).kernels();
    ServiceTable::calibrate(&kernels, SERVING_SEED)
}

/// Runs one grid point against the shared calibration.
pub fn run_point(config: &ServingConfig, services: &ServiceTable) -> ServingReport {
    serving::run(config, services)
}

impl ServingSweepResult {
    /// Paper-style text table, one row per point.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "mix", "policy", "util", "offered", "rejected", "p50", "p99", "p999", "peak_q",
            "makespan",
        ]);
        for p in &self.points {
            table.row(vec![
                p.mix.clone(),
                p.policy.clone(),
                format!("{:.1}", p.utilization),
                p.offered.to_string(),
                p.rejected.to_string(),
                sci(p.latency.p50),
                sci(p.latency.p99),
                sci(p.latency.p999),
                p.queue_peak.to_string(),
                sci(p.makespan),
            ]);
        }
        table.render()
    }

    /// Serialises the sweep as JSON (hand-rolled; the build is offline and
    /// carries no JSON library).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": \"serving_sweep\",\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let tenants: Vec<String> = p
                .tenants
                .iter()
                .map(|t| {
                    format!(
                        "{{\"tenant\": \"{}\", \"kernel\": \"{}\", \"offered\": {}, \
                         \"rejected\": {}, \"completed\": {}, \
                         \"offered_per_mcycle\": {:.4}, \"goodput_per_mcycle\": {:.4}, \
                         \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                        t.name,
                        t.kernel,
                        t.offered,
                        t.rejected,
                        t.completed,
                        t.offered_per_mcycle,
                        t.goodput_per_mcycle,
                        t.latency.p50,
                        t.latency.p99,
                        t.latency.p999
                    )
                })
                .collect();
            let services: Vec<String> = p
                .services
                .iter()
                .map(|(k, c)| format!("{{\"kernel\": \"{k}\", \"service_cycles\": {c}}}"))
                .collect();
            let samples: Vec<String> = p.queue_depth_samples.iter().map(usize::to_string).collect();
            out.push_str(&format!(
                "    {{\"mix\": \"{}\", \"policy\": \"{}\", \"utilization\": {:.2}, \
                 \"clusters\": {}, \"admission_depth\": {}, \
                 \"offered\": {}, \"admitted\": {}, \"rejected\": {}, \"completed\": {}, \
                 \"makespan\": {}, \
                 \"latency_p50\": {}, \"latency_p99\": {}, \"latency_p999\": {}, \
                 \"queue_peak\": {}, \"queue_depth_samples\": [{}], \
                 \"services\": [{}], \"tenants\": [{}]}}{}\n",
                p.mix,
                p.policy,
                p.utilization,
                p.clusters,
                p.admission_depth,
                p.offered,
                p.admitted,
                p.rejected,
                p.completed,
                p.makespan,
                p.latency.p50,
                p.latency.p99,
                p.latency.p999,
                p.queue_peak,
                samples.join(", "),
                services.join(", "),
                tenants.join(", "),
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// [`ServingSweepResult::to_json`] with the execution-metadata block
    /// spliced in, mirroring the fabric sweep's format: worker count and
    /// wallclock timings aligned with `points` by index. The plain
    /// `to_json` stays meta-free so replayed/merged result files compare
    /// structurally.
    pub fn to_json_with_meta(&self, meta: &SweepMeta) -> String {
        let timings: Vec<String> = meta
            .points_wallclock_ms
            .iter()
            .map(u64::to_string)
            .collect();
        let block = format!(
            "\n  \"meta\": {{\"workers\": {}, \"total_wallclock_ms\": {}, \
             \"points_wallclock_ms\": [{}]}},",
            meta.workers,
            meta.total_wallclock_ms,
            timings.join(", ")
        );
        let marker = "\"experiment\": \"serving_sweep\",";
        self.to_json()
            .replacen(marker, &format!("{marker}{block}"), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_mix_and_policy() {
        let full = grid(false);
        assert_eq!(full.len(), 3 * 4 * 2);
        let smoke = grid(true);
        assert_eq!(smoke.len(), 3 * 2);
        assert!(smoke
            .iter()
            .all(|c| c.tenants.iter().all(|t| t.requests > 0)));
        // Smoke points must be materially smaller than full ones.
        let full_reqs: usize = full[0].tenants.iter().map(|t| t.requests).sum();
        let smoke_reqs: usize = smoke[0].tenants.iter().map(|t| t.requests).sum();
        assert!(smoke_reqs * 2 < full_reqs);
    }

    #[test]
    fn json_round_trip_is_well_formed_and_meta_splices() {
        let configs = grid(true);
        let services = crate::serving::tests_support::synthetic_table();
        let points = configs
            .iter()
            .take(2)
            .map(|c| run_point(c, &services))
            .collect();
        let result = ServingSweepResult { points };
        let json = result.to_json();
        assert!(json.contains("\"experiment\": \"serving_sweep\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        let meta = SweepMeta {
            workers: 3,
            total_wallclock_ms: 42,
            points_wallclock_ms: vec![20, 22],
        };
        let with_meta = result.to_json_with_meta(&meta);
        assert!(with_meta.contains("\"meta\": {\"workers\": 3, \"total_wallclock_ms\": 42"));
        assert!(with_meta.contains("\"points_wallclock_ms\": [20, 22]"));
        assert_eq!(
            with_meta.matches('{').count(),
            with_meta.matches('}').count()
        );
    }
}
