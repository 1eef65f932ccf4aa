//! Cycle-identity property suite for the indexed fabric placement engine.
//!
//! The indexed [`Fabric`] (end-indexed reservation probe, per-slot arbiter
//! caches) must be **bit-identical** to the retained [`NaiveFabric`]
//! reference (the original scan-with-retry algorithm) on every grant:
//! identical [`GrantOutcome`]s, identical per-initiator and per-channel
//! statistics, identical grant/switch counters. The suite drives both
//! engines on `DeterministicRng` workloads across
//!
//! * all three arbitration policies (RoundRobin, Weighted with random
//!   weights, FixedPriority),
//! * unbounded and bounded channel queue depths — 1/1 (always full), 2/3
//!   and 4/4 (the depth the `contended_sva` benchmark runs),
//! * request priorities 0..3 and mixed occupancies (including
//!   zero-occupancy host/PTW probes),
//! * out-of-order arrivals: per-cluster DMA shards restart their local
//!   cursors at zero mid-run, exactly like the platform's sharded offload,
//! * one and several DRAM channels,
//!
//! and additionally proves the harness has teeth by catching an injected
//! placement off-by-one (the PR 6 `OffByOneQueue` discipline), and that
//! watermark compaction is outcome-neutral under its contract.

use sva_common::rng::DeterministicRng;
use sva_common::{
    ArbitrationPolicy, Cycles, InitiatorId, MemPortReq, PhysAddr, PortTiming, QueueDepths,
};
use sva_mem::channels::DramChannelConfig;
use sva_mem::{Fabric, FabricConfig, GrantOutcome};
use sva_reference::NaiveFabric;

/// One timed access: the request and its port timing.
#[derive(Clone, Debug)]
struct Access {
    req: MemPortReq,
    timing: PortTiming,
}

/// A randomized workload mimicking the platform's traffic shape: several
/// DMA shards whose local cursors restart at zero (arrival order is *not*
/// simulation order), host/PTW probes sprinkled across the window, random
/// priorities, burst lengths and channel-spreading addresses.
fn workload(rng: &mut DeterministicRng, accesses: usize) -> Vec<Access> {
    let shards = 1 + rng.next_below(4) as usize;
    let mut cursors = vec![0u64; shards];
    let mut out = Vec::with_capacity(accesses);
    for i in 0..accesses {
        let kind = rng.next_below(10);
        let access = if kind < 7 {
            // DMA burst from a shard; shards are simulated round-robin so a
            // later-simulated shard's early arrivals land between an
            // earlier shard's late ones.
            let shard = i % shards;
            cursors[shard] += rng.next_below(400);
            let occ = 16 + rng.next_below(300);
            let addr = 0x8000_0000 + rng.next_below(64) * 4096;
            let prio = (rng.next_below(4) / 2) as u8; // mostly 0, some 1
            Access {
                req: MemPortReq::read(InitiatorId::dma(shard as u32), PhysAddr::new(addr), occ * 8)
                    .as_burst()
                    .with_priority(prio)
                    .at(Cycles::new(cursors[shard])),
                timing: PortTiming {
                    latency: Cycles::new(100 + rng.next_below(200)),
                    occupancy: Cycles::new(occ),
                },
            }
        } else {
            // Host / host-stream / PTW probe at a random point in the
            // window so far; zero occupancy half the time (the untimed
            // default), a few payload beats otherwise (the global-clock
            // engine).
            let id = match rng.next_below(3) {
                0 => InitiatorId::Host,
                1 => InitiatorId::HostStream,
                _ => InitiatorId::Ptw,
            };
            let horizon = cursors.iter().copied().max().unwrap_or(0) + 100;
            let arrival = rng.next_below(horizon);
            let occ = if rng.next_below(2) == 0 {
                0
            } else {
                1 + rng.next_below(8)
            };
            let addr = 0x8000_0000 + rng.next_below(64) * 4096;
            let write = rng.next_below(3) == 0;
            let req = if write {
                MemPortReq::write(id, PhysAddr::new(addr), 8)
            } else {
                MemPortReq::read(id, PhysAddr::new(addr), 8)
            };
            Access {
                req: req.at(Cycles::new(arrival)),
                timing: PortTiming {
                    latency: Cycles::new(30),
                    occupancy: Cycles::new(occ),
                },
            }
        };
        out.push(access);
    }
    out
}

fn policies(rng: &mut DeterministicRng) -> Vec<ArbitrationPolicy> {
    let weights: Vec<u32> = (0..4).map(|_| 1 + rng.next_below(8) as u32).collect();
    vec![
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::FixedPriority,
        ArbitrationPolicy::Weighted(weights),
    ]
}

fn config(policy: ArbitrationPolicy, channels: usize, bounded: bool, timed: bool) -> FabricConfig {
    let depths = if bounded {
        QueueDepths::bounded(2, 3)
    } else {
        QueueDepths::UNBOUNDED
    };
    config_with_depths(policy, channels, depths, timed)
}

fn config_with_depths(
    policy: ArbitrationPolicy,
    channels: usize,
    depths: QueueDepths,
    timed: bool,
) -> FabricConfig {
    FabricConfig {
        policy,
        channels: DramChannelConfig::interleaved(channels),
        timed_host_ptw: timed,
        req_queue_depth: depths.req,
        rsp_queue_depth: depths.rsp,
        ..FabricConfig::default()
    }
}

/// Queue depths the identity grid sweeps: unbounded, always full (1/1),
/// asymmetric (2/3) and the benchmark's contended shape (4/4).
const DEPTHS: [QueueDepths; 4] = [
    QueueDepths::UNBOUNDED,
    QueueDepths::bounded(1, 1),
    QueueDepths::bounded(2, 3),
    QueueDepths::bounded(4, 4),
];

/// Asserts the two engines agree on every grant and every observable
/// statistic for `accesses`, returning the indexed outcomes.
fn assert_identical(config: FabricConfig, accesses: &[Access], label: &str) -> Vec<GrantOutcome> {
    let mut indexed = Fabric::new(config.clone());
    let mut naive = NaiveFabric::new(config);
    let mut outcomes = Vec::with_capacity(accesses.len());
    for (i, a) in accesses.iter().enumerate() {
        let x = indexed.admit(&a.req, a.timing);
        let y = naive.admit(&a.req, a.timing);
        assert_eq!(x, y, "{label}: grant {i} diverged ({:?})", a.req);
        outcomes.push(x);
    }
    for id in [
        InitiatorId::Host,
        InitiatorId::HostStream,
        InitiatorId::Ptw,
        InitiatorId::dma(0),
        InitiatorId::dma(1),
        InitiatorId::dma(2),
        InitiatorId::dma(3),
    ] {
        assert_eq!(
            indexed.initiator_stats(id),
            naive.initiator_stats(id),
            "{label}: stats diverged for {id}"
        );
    }
    assert_eq!(indexed.total(), naive.total(), "{label}: totals diverged");
    assert_eq!(
        indexed.channel_stats(),
        naive.channel_stats(),
        "{label}: channel stats diverged"
    );
    assert_eq!(indexed.grants(), naive.grants(), "{label}: grant counts");
    assert_eq!(
        indexed.grant_switches(),
        naive.grant_switches(),
        "{label}: switch counts"
    );
    outcomes
}

/// The core identity property: randomized workloads across
/// {RoundRobin, Weighted, FixedPriority} × {unbounded, 1/1, 2/3, 4/4} ×
/// {untimed, timed host/PTW} × {1, 2, 4 channels}.
#[test]
fn indexed_placement_is_cycle_identical_to_the_naive_reference() {
    let mut rng = DeterministicRng::new(0xFAB1_C1D5);
    for round in 0..12u64 {
        let accesses = workload(&mut rng, 300);
        for policy in policies(&mut rng) {
            for &channels in &[1usize, 2, 4] {
                for depths in DEPTHS {
                    for &timed in &[false, true] {
                        let label = format!(
                            "round {round}, {}, {channels}ch, depths={depths}, timed={timed}",
                            policy.label()
                        );
                        let cfg = config_with_depths(policy.clone(), channels, depths, timed);
                        assert_identical(cfg, &accesses, &label);
                    }
                }
            }
        }
    }
}

/// Identity survives window boundaries: `clear_timelines` on both engines,
/// then a second window whose cursors restart at zero.
#[test]
fn identity_holds_across_measurement_windows() {
    let mut rng = DeterministicRng::new(0x57AC_CA75);
    for policy in policies(&mut rng) {
        let cfg = config(policy.clone(), 2, true, true);
        let mut indexed = Fabric::new(cfg.clone());
        let mut naive = NaiveFabric::new(cfg);
        for window in 0..3 {
            let accesses = workload(&mut rng, 200);
            for (i, a) in accesses.iter().enumerate() {
                let x = indexed.admit(&a.req, a.timing);
                let y = naive.admit(&a.req, a.timing);
                assert_eq!(
                    x,
                    y,
                    "{}: window {window} grant {i} diverged",
                    policy.label()
                );
            }
            indexed.clear_timelines();
            naive.clear_timelines();
        }
        assert_eq!(indexed.total(), naive.total());
        assert_eq!(indexed.channel_stats(), naive.channel_stats());
    }
}

/// Watermark compaction is outcome-neutral under its contract: with
/// monotone arrivals, periodically folding history changes no grant and
/// keeps the live reservation set bounded.
#[test]
fn compaction_is_outcome_neutral_and_bounds_the_live_set() {
    let mut rng = DeterministicRng::new(0xC04_AC7);
    for policy in policies(&mut rng) {
        let cfg = config(policy.clone(), 2, false, true);
        let mut compacted = Fabric::new(cfg.clone());
        let mut reference = Fabric::new(cfg);
        // One monotone clock shared by a few initiators — the shape of the
        // open-loop serving layer, where compaction is safe mid-stream.
        let mut t = 0u64;
        let mut peak = 0usize;
        for i in 0..1500u64 {
            // Underloaded on purpose: compaction can only fold reservations
            // that finish before later arrivals, so a saturated bus (whose
            // backlog stretches every end far past "now") would leave
            // nothing to fold.
            t += 20 + rng.next_below(80);
            let dev = rng.next_below(3) as u32;
            let occ = 8 + rng.next_below(40);
            let addr = 0x8000_0000 + rng.next_below(32) * 4096;
            let req = MemPortReq::read(InitiatorId::dma(dev), PhysAddr::new(addr), occ * 8)
                .as_burst()
                .at(Cycles::new(t));
            let timing = PortTiming {
                latency: Cycles::new(100),
                occupancy: Cycles::new(occ),
            };
            let a = compacted.admit(&req, timing);
            let b = reference.admit(&req, timing);
            assert_eq!(a, b, "{}: grant {i} diverged", policy.label());
            if i % 64 == 63 {
                compacted.compact_before(Cycles::new(t));
            }
            peak = peak.max(compacted.event_count());
        }
        assert_eq!(compacted.total(), reference.total());
        assert_eq!(compacted.channel_stats(), reference.channel_stats());
        assert!(compacted.compacted_events() > 0);
        assert!(
            peak < reference.event_count() / 2,
            "{}: live set must stay far below the uncompacted timeline \
             (peak {peak} vs {})",
            policy.label(),
            reference.event_count()
        );
    }
}

/// An adversarial engine that perturbs every placement's occupancy by one
/// cycle before delegating to the real indexed fabric — the injected
/// off-by-one the identity harness must catch.
struct OffByOneFabric(Fabric);

impl OffByOneFabric {
    fn admit(&mut self, req: &MemPortReq, timing: PortTiming) -> GrantOutcome {
        let skewed = if timing.occupancy.raw() > 0 {
            PortTiming {
                latency: timing.latency,
                occupancy: timing.occupancy + Cycles::new(1),
            }
        } else {
            timing
        };
        self.0.admit(req, skewed)
    }
}

/// The harness has teeth: a one-cycle occupancy skew diverges from the
/// reference within one randomized workload.
#[test]
fn identity_harness_catches_an_injected_off_by_one() {
    let mut rng = DeterministicRng::new(0x0FF_B10E);
    let accesses = workload(&mut rng, 300);
    let cfg = config(ArbitrationPolicy::RoundRobin, 1, false, false);
    let mut skewed = OffByOneFabric(Fabric::new(cfg.clone()));
    let mut naive = NaiveFabric::new(cfg);
    let diverged = accesses.iter().any(|a| {
        let x = skewed.admit(&a.req, a.timing);
        let y = naive.admit(&a.req, a.timing);
        x != y
    }) || skewed.0.total() != naive.total();
    assert!(
        diverged,
        "the identity harness failed to catch a one-cycle occupancy skew"
    );
}
