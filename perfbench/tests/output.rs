//! Runs the benchmark binary and validates what it prints by parsing it:
//! every metric `BENCHMARK.json` names is reported with its unit, the
//! checks pass at the default and at a held-out seed, and the workloads
//! reproduce the repository's own experiments bit for bit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use perfbench::json::{self, Value};
use perfbench::trace::Tracer;
use perfbench::workloads::{Bench, WorkloadKind};
use sva_common::{ArbitrationPolicy, QueueDepths};
use sva_kernels::KernelKind;
use sva_soc::experiments::fabric::{self, FabricKnobs, TlbHierarchyConfig, TlbKnobs};
use sva_soc::experiments::kernel_runtime;
use sva_soc::SocVariant;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs")
}

/// The parsed last line of a successful run.
fn result_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("the run printed something");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_report(report: &Value, section: &str) {
    assert_eq!(report.get("correct"), Some(&Value::Bool(true)));
    let attempted = report
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(report.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = report
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let want = declared(section);
    let mut names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<Vec<_>>(),
        names
    );
    for (name, unit) in &want {
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn every_workload_reports_every_declared_metric_with_its_unit() {
    for kind in WorkloadKind::ALL {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                kind.name(),
                "--seed",
                "0",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let report = result_line(&out);
            check_report(&report, section);
            let metrics = report.get("metrics").unwrap();
            let value = |name: &str| {
                metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap()
            };
            if trace == "0" {
                for name in [
                    "wall_s",
                    "op_ms_p50",
                    "op_ms_p90",
                    "setup_s",
                    "sim_cycles",
                    "peak_rss_mb",
                ] {
                    assert!(value(name) > 0.0, "{} {name}", kind.name());
                }
            } else {
                // One traced pass: the op-phase self times add up to it.
                let layers: f64 = [
                    "soc.platform.clone.ms",
                    "soc.offload.device.ms",
                    "mem.stats.ms",
                    "soc.offload.app.ms",
                    "soc.serving.des.ms",
                    "bench.harness.ms",
                ]
                .iter()
                .map(|n| value(n))
                .sum();
                let pass = value("trace.pass_ms");
                assert!(
                    (layers - pass).abs() <= 0.01 * pass,
                    "{}: {layers} ms of {pass} ms attributed",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn a_held_out_seed_passes_every_check() {
    for kind in [WorkloadKind::PaperGrid, WorkloadKind::Serving] {
        let out = perfbench(&[
            "--workload",
            kind.name(),
            "--seed",
            "987654321",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ]);
        check_report(&result_line(&out), "end_to_end");
    }
}

#[test]
fn committed_digests_hold_at_the_default_seed() {
    for kind in WorkloadKind::ALL {
        let out = perfbench(&[
            "--workload",
            kind.name(),
            "--seed",
            "0",
            "--seconds",
            "0",
            "--trace",
            "0",
        ]);
        check_report(&result_line(&out), "end_to_end");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "serving", "--trace", "2"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn paper_grid_reproduces_kernel_runtime_at_its_seed() {
    let seed = WorkloadKind::PaperGrid.default_seed();
    let bench = Bench::setup(
        WorkloadKind::PaperGrid,
        seed,
        false,
        &mut Tracer::new(false),
    )
    .unwrap();
    let want = kernel_runtime::run(&KernelKind::TABLE2, &[200, 600, 1000], true).unwrap();
    assert_eq!(want.points.len(), 36);
    for (i, point) in want.points.iter().enumerate() {
        let got = bench.run_op(i, &mut Tracer::new(false)).unwrap();
        assert!(got.ok && point.verified);
        assert_eq!(got.sim_cycles, point.total, "{}", bench.label(i));
        assert_eq!(
            got.counters.dma_wait_cycles,
            point.dma_wait,
            "{}",
            bench.label(i)
        );
    }
}

#[test]
fn contended_sva_reproduces_fabric_run_point_at_its_seed() {
    let seed = WorkloadKind::ContendedSva.default_seed();
    let bench = Bench::setup(
        WorkloadKind::ContendedSva,
        seed,
        false,
        &mut Tracer::new(false),
    )
    .unwrap();
    let mut i = 0;
    for kind in [
        KernelKind::Gesummv,
        KernelKind::Heat3d,
        KernelKind::Sort,
        KernelKind::Axpy,
    ] {
        for demand_paging in [false, true] {
            for latency in [200, 1000] {
                let want = fabric::run_point(
                    kind,
                    true,
                    4,
                    SocVariant::IommuLlc,
                    latency,
                    2,
                    &ArbitrationPolicy::RoundRobin,
                    QueueDepths::bounded(4, 4),
                    FabricKnobs {
                        host_traffic: true,
                        ptw_batching: true,
                    },
                    TlbKnobs {
                        hierarchy: Some(TlbHierarchyConfig::default()),
                        demand_paging,
                    },
                )
                .unwrap();
                let got = bench.run_op(i, &mut Tracer::new(false)).unwrap();
                assert_eq!(got.sim_cycles, want.total, "{}", bench.label(i));
                assert_eq!(
                    got.counters.pri_requests,
                    want.page_requests,
                    "{}",
                    bench.label(i)
                );
                assert_eq!(got.counters.ptw_walks, want.ptw_walks, "{}", bench.label(i));
                assert_eq!(got.counters.fabric_grant_switches, want.grant_switches);
                i += 1;
            }
        }
    }
}
