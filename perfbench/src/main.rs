//! `perfbench` — runs one workload of the simulator and reports its
//! end-to-end or per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|contended_sva|serving> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! * `--seed N` — the workload seed is the workload's default seed XOR `N`,
//!   so `--seed 0` reproduces the repository's own experiment (and is the
//!   seed the committed digest is checked at). It feeds `OffloadRunner::new`,
//!   `ServiceTable::calibrate` and `ServingConfig::seed`.
//! * `--seconds S` — timed passes run until `S` seconds have passed and at
//!   least 100 ops have been timed.
//! * `--trace 0` — every end-to-end metric, measured with tracing off.
//! * `--trace 1` — every per-layer metric: timed passes alternate between
//!   untraced and traced, self time per layer comes from the traced passes,
//!   and the difference between the two pass medians is the tracing
//!   overhead. The spans are written as a Chrome trace file under the cargo
//!   target directory (`$CARGO_TARGET_DIR`, else `perfbench/target`).
//! * `--smoke` — reduced problem sizes and a single pass, for tests.
//!
//! The run is single-threaded. Set-up is repeated 101 times and reported as
//! its median; an untimed warm-up pass records every op's digest, and every
//! later pass must reproduce it.
//!
//! End-to-end host times are scaled to a reference host speed: a
//! benchmark-owned probe (`perfbench::probe`) runs after every set-up and
//! before every op of a pass, outside the op's timing, and the set-up phase
//! and each pass are scaled by the probe's speed over that span. This
//! removes the drift that other tenants of a shared host cause; the raw
//! times are printed alongside. With `--trace 1` the probe does not run and
//! per-layer times are raw, so traced and untraced passes differ only by
//! the tracing. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the exit code
//! is non-zero when any op failed its check.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::ledger::{median, quantile, ratio, Counters, Digest};
use perfbench::probe::{self, HostProbe};
use perfbench::trace::Tracer;
use perfbench::workloads::{model_accuracy, Bench, OpOutcome, WorkloadKind};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;
/// Ops a full-size run times at least, so `op_ms_p90` has ten samples above it.
const MIN_TIMED_OPS: usize = 100;
/// Rounds of standalone host-reference calls in a traced run.
const REFERENCE_ROUNDS: usize = 3;
/// Op-phase layers, whose self times make up a traced pass: the metric and
/// the spans whose self time it sums.
const PASS_LAYERS: [(&str, &[&str]); 6] = [
    ("soc.platform.clone.ms", &["soc.platform.clone"]),
    ("soc.offload.device.ms", &["soc.offload.device"]),
    ("mem.stats.ms", &["mem.stats"]),
    ("soc.offload.app.ms", &["soc.offload.app"]),
    ("soc.serving.des.ms", &["soc.serving.des"]),
    ("bench.harness.ms", &["bench.op", "bench.pass"]),
];

const USAGE: &str = "usage: perfbench --workload <paper_grid|contended_sva|serving> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

struct Args {
    kind: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut smoke = false;
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The op-level checks of a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// Digest of each op in the warm-up pass; later passes must match.
    expected: Vec<u64>,
}

impl Checks {
    /// Records one op; returns its outcome when it succeeded.
    fn op(
        &mut self,
        i: usize,
        bench: &Bench,
        out: sva_common::Result<OpOutcome>,
    ) -> Option<OpOutcome> {
        self.attempted += 1;
        let failure = match &out {
            Err(e) => Some(format!("error: {e}")),
            Ok(o) if !o.ok => Some("output not verified / not conserved".to_string()),
            Ok(o) if self.expected.get(i).is_some_and(|&d| d != o.digest) => Some(format!(
                "digest {:#018x} differs from the warm-up pass",
                o.digest
            )),
            Ok(_) => None,
        };
        match failure {
            Some(why) => {
                self.failed += 1;
                eprintln!("perfbench: op {i} ({}) failed: {why}", bench.label(i));
                None
            }
            None => out.ok(),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark, prints the report and returns whether every check
/// passed.
fn run(args: &Args) -> BoxResult<bool> {
    let kind = args.kind;
    let seed = kind.default_seed() ^ args.seed;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench workload={} seed={} (workload seed {seed:#x}) trace={} smoke={}",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        args.smoke
    );
    println!(
        "host: nproc={nproc} profile={} rustc={} threads=1",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC")
    );

    let mut tracer = Tracer::new(args.trace);
    let probed = !args.trace;
    let mut probe = HostProbe::new();
    let mut setup_s = Vec::new();
    let mut setup_probe_ms = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        tracer.enter("bench.setup");
        let t = Instant::now();
        let built = Bench::setup(kind, seed, args.smoke, &mut tracer)?;
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.exit();
        if probed {
            setup_probe_ms.push(probe.sample());
        }
        bench = Some(built);
    }
    let setup_speed = probe::speed(&setup_probe_ms);
    let bench = bench.expect("set up at least once");
    let n = bench.ops();

    // Warm-up pass: untimed, records the digest every later pass must match.
    tracer.set_recording(false);
    let mut checks = Checks::default();
    let mut counters = Counters::default();
    let mut sim_cycles = 0u64;
    let mut pass_digest = Digest::default();
    for i in 0..n {
        let out = checks.op(i, &bench, bench.run_op(i, &mut tracer));
        let digest = out.as_ref().map_or(0, |o| o.digest);
        if let Some(o) = out {
            counters.absorb(&o.counters);
            sim_cycles += o.sim_cycles;
        }
        checks.expected.push(digest);
        pass_digest.word(digest);
    }
    let pass_digest = pass_digest.value();
    let mut digest_ok = true;
    if !args.smoke && args.seed == 0 {
        let golden = kind.golden_digest();
        if pass_digest != golden {
            digest_ok = false;
            checks.failed += n as u64;
            eprintln!(
                "perfbench: pass digest {pass_digest:#018x} differs from the committed {golden:#018x}"
            );
        }
    }
    println!("digest: {pass_digest:#018x} over {n} ops per pass");

    // Timed passes; with tracing, odd passes are traced. Without tracing, a
    // probe sample runs before every op; a pass's time excludes them.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut scaled_pass_s = Vec::new();
    let mut pass_speed = Vec::new();
    let mut op_ms = Vec::new();
    for pass in 0.. {
        let traced = args.trace && pass % 2 == 1;
        tracer.set_recording(traced);
        tracer.enter("bench.pass");
        let t_pass = Instant::now();
        let mut pass_op_ms = Vec::with_capacity(n);
        let mut probe_ms = Vec::with_capacity(n);
        for i in 0..n {
            if probed {
                probe_ms.push(probe.sample());
            }
            let t_op = Instant::now();
            tracer.enter("bench.op");
            let out = bench.run_op(i, &mut tracer);
            tracer.exit();
            pass_op_ms.push(t_op.elapsed().as_secs_f64() * 1e3);
            checks.op(i, &bench, out);
        }
        let s = t_pass.elapsed().as_secs_f64() - probe_ms.iter().sum::<f64>() / 1e3;
        pass_s[usize::from(traced)].push(s);
        if !traced {
            let speed = probe::speed(&probe_ms);
            pass_speed.push(speed);
            scaled_pass_s.push(s * speed);
            op_ms.extend(pass_op_ms.iter().map(|ms| ms * speed));
        }
        tracer.exit();
        let min_passes = if args.smoke { 1 } else { 2 };
        let enough = pass_s[0].len() >= min_passes
            && (!args.trace || pass_s[1].len() >= min_passes)
            && (args.smoke || op_ms.len() >= MIN_TIMED_OPS);
        if enough && (args.smoke || start.elapsed() >= budget) {
            break;
        }
    }
    tracer.set_recording(false);

    let references = model_accuracy(args.smoke)?;
    let paper_err_pct =
        references.iter().map(|r| r.err_pct()).sum::<f64>() / references.len() as f64;
    for r in &references {
        println!(
            "{}: model {:.3} {} vs paper {} (error {:.1} %)",
            r.name,
            r.model,
            r.unit,
            r.paper,
            r.err_pct()
        );
    }
    println!("model accuracy: unvalidated beyond these five reference ratios");

    let wall_s = median(&scaled_pass_s);
    let raw_wall_s = median(&pass_s[0]);
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    if args.trace {
        tracer.set_recording(true);
        for _ in 0..REFERENCE_ROUNDS {
            tracer.enter("bench.reference");
            for i in 0..n {
                if bench.run_reference(i, &mut tracer) == Some(false) {
                    checks.failed += 1;
                    eprintln!("perfbench: host reference of op {i} does not verify against itself");
                }
            }
            tracer.exit();
        }
        let passes = tracer.self_ms_by_root("bench.pass");
        let setups = tracer.self_ms_by_root("bench.setup");
        let rounds = tracer.self_ms_by_root("bench.reference");
        let pass_layers: Vec<(&str, f64)> = PASS_LAYERS
            .iter()
            .map(|(metric, spans)| (*metric, layer_median(&passes, spans)))
            .collect();
        let reference_ms = layer_median(&rounds, &["kernels.reference"]);
        let device_ms = layer_median(&passes, &["soc.offload.device"]);
        let traced_ms = median(&pass_s[1]) * 1e3;
        let untraced_ms = raw_wall_s * 1e3;

        push(
            "soc.platform.ms",
            layer_median(&setups, &["soc.platform"]),
            "ms",
        );
        push(
            "soc.serving.calibrate.ms",
            layer_median(&setups, &["soc.serving.calibrate"]),
            "ms",
        );
        push("kernels.reference.ms", reference_ms, "ms");
        push("soc.offload.device_net.ms", device_ms - reference_ms, "ms");
        for (metric, ms) in &pass_layers {
            push(metric, *ms, "ms");
        }
        push(
            "sim.host_ns_per_access",
            if counters.fabric_accesses == 0 {
                0.0
            } else {
                device_ms * 1e6 / counters.fabric_accesses as f64
            },
            "ns",
        );
        push("trace.pass_ms", traced_ms, "ms");
        push("trace.untraced_pass_ms", untraced_ms, "ms");
        push("trace.overhead_ms", traced_ms - untraced_ms, "ms");

        // The dominant layer of a pass, with the device span split into the
        // host reference it contains and the simulation proper.
        let mut shares: Vec<(&str, f64)> = pass_layers
            .iter()
            .filter(|(metric, _)| *metric != "soc.offload.device.ms")
            .copied()
            .collect();
        if device_ms > 0.0 {
            shares.push(("soc.offload.device_net.ms", device_ms - reference_ms));
            shares.push(("kernels.reference.ms", reference_ms));
        }
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let (dominant, dominant_ms) = shares[0];
        let share_pct = dominant_ms / traced_ms * 100.0;
        println!("dominant layer: {dominant} ({share_pct:.1} % of a traced pass)");
        for (name, ms) in &shares {
            println!(
                "  self {name}: {ms:.3} ms per pass ({:.1} %)",
                ms / traced_ms * 100.0
            );
        }
        let attributed: f64 = pass_layers.iter().map(|(_, ms)| ms).sum();
        println!(
            "attributed: {attributed:.3} ms of a {traced_ms:.3} ms traced pass \
             (untraced {untraced_ms:.3} ms, overhead {:.3} ms)",
            traced_ms - untraced_ms
        );
        push("trace.dominant_share_pct", share_pct, "%");

        for (name, v) in counters.entries() {
            let unit = if name.ends_with("cycles") || name.ends_with("p99") {
                "cycles"
            } else {
                "count"
            };
            push(name, v as f64, unit);
        }
        for (name, v) in counters.ratios() {
            push(name, v, "ratio");
        }
        for r in &references {
            push(r.name, r.model, r.unit);
            push(&format!("{}.err_pct", r.name), r.err_pct(), "%");
        }
        push("fail_rate", ratio(checks.failed, checks.attempted), "ratio");

        let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        );
        let path =
            dir.join("perfbench")
                .join(format!("trace-{}-seed{}.json", kind.name(), args.seed));
        tracer.write_chrome_trace(
            &path,
            &[
                ("workload", kind.name().to_string()),
                ("seed", args.seed.to_string()),
                ("nproc", nproc.to_string()),
                ("profile", env!("PERFBENCH_PROFILE").to_string()),
                ("rustc", env!("PERFBENCH_RUSTC").to_string()),
            ],
        )?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        push("wall_s", wall_s, "s");
        push("op_ms_p50", quantile(&op_ms, 0.5), "ms");
        push("op_ms_p90", quantile(&op_ms, 0.9), "ms");
        push(
            "sim_mcycles_per_s",
            sim_cycles as f64 / wall_s / 1e6,
            "Mcycles/s",
        );
        push("setup_s", median(&setup_s) * setup_speed, "s");
        push("peak_rss_mb", peak_rss_mb()?, "MB");
        push("sim_cycles", sim_cycles as f64, "cycles");
        push("paper_err_pct", paper_err_pct, "%");
    }
    println!(
        "timed: {} untraced + {} traced passes, {} ops in the op percentiles, set-up x{SETUP_REPEATS}",
        pass_s[0].len(),
        pass_s[1].len(),
        op_ms.len()
    );
    let rounded: Vec<String> = pass_s[0].iter().map(|s| format!("{s:.4}")).collect();
    println!("untraced pass s (raw): [{}]", rounded.join(", "));
    if probed {
        let rounded: Vec<String> = pass_speed.iter().map(|s| format!("{s:.3}")).collect();
        println!(
            "host speed vs the probe's reference {} ms: set-up {setup_speed:.3}, passes [{}]",
            probe::REFERENCE_MS,
            rounded.join(", ")
        );
        println!(
            "raw medians: pass {raw_wall_s:.4} s, set-up {:.6} s",
            median(&setup_s)
        );
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }

    let correct = checks.failed == 0 && digest_ok;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Median over `tables` (one per pass, set-up or round) of the summed self
/// time of `spans`.
fn layer_median(tables: &[BTreeMap<&'static str, f64>], spans: &[&str]) -> f64 {
    let totals: Vec<f64> = tables
        .iter()
        .map(|t| spans.iter().filter_map(|s| t.get(s)).sum())
        .collect();
    median(&totals)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> BoxResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
