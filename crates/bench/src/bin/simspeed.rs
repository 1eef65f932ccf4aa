//! The simulator-speed perf gate: simulated-cycles-per-wallclock-second on
//! a fixed set of stress points, written to `BENCH_simspeed.json` so speed
//! regressions are visible PR-over-PR.
//!
//! Stress points:
//!
//! * `timed_queue_deep` — a deep bounded queue (depth 64) driven by an
//!   out-of-order, slightly overloaded arrival process: the event-indexed
//!   [`TimedQueue`] against the linear-scan [`NaiveTimedQueue`]
//!   reference on the *same* batch (results are
//!   asserted identical). Records both engines' throughput and the
//!   speedup; the full run gates on the indexed engine being at least
//!   [`GATE_SPEEDUP`]× faster.
//! * `timed_queue_deep_compacted` — the same engine under watermark
//!   compaction on a monotone arrival process, recording the peak boundary
//!   count (the memory bound compaction buys).
//! * `fabric_4x4_demand` — a whole-platform point: 4 clusters × 4 memory
//!   channels with the two-level TLB hierarchy and demand paging.
//! * `fabric_deep_queues` — the split-transaction fabric with shallow
//!   (4/4) credit queues plus timed host traffic and the batched walker:
//!   the configuration that hammers `TimedQueue` hardest end-to-end.
//! * `fabric_long_window` — one long measurement window, many grants, no
//!   resets: an early long "poison pill" burst stretches the naive
//!   engine's backward scan window to its occupancy, then a monotone
//!   stream of short grants follows. The end-indexed `Fabric` (with
//!   periodic watermark compaction, peak live-set recorded) against the
//!   retained `NaiveFabric` on the same batch, outcomes asserted
//!   identical; the full run gates on [`GATE_SPEEDUP`].
//! * `fabric_weighted_hot` — the same poison-pill window under the
//!   `Weighted` policy with six initiators, keeping the deficit predicate
//!   (and its per-slot weight lookups) hot on every conflict probe.
//!   Naive baseline recorded, no gate.
//! * `ptw_walk_storm` — the translation path: a long sharded walk storm
//!   through the batched page-table walker, the indexed walk table (with
//!   its steady-state watermark-compaction discipline, peak live-record
//!   count recorded) against the [`NaiveWalkTable`]-backed walker whose
//!   per-fetch probe and MSHR count scan the whole accumulated table. Per-walk outcomes and
//!   final walker statistics are asserted identical; the full run gates on
//!   [`GATE_SPEEDUP`].
//! * `pri_group_storm` — the demand-paging page-request path: repeated
//!   overlapping page-request groups against a deep bounded queue with
//!   periodic host pops, the `(device, page)` dedup index against the
//!   retained full-queue-scan probe (`enqueue_page_requests_scan`).
//!   Per-group `(enqueued, dropped)` outcomes and the popped request
//!   stream are digest-checked identical; the full run gates on
//!   [`GATE_SPEEDUP`].
//! * `backing_stream` — the functional data plane under a long sequential
//!   DMA copy storm: typed write/read passes over a cache-resident window
//!   (large windows leave both engines memory-bound and the gate would
//!   measure shared DRAM bandwidth, not engine overhead), the direct-map
//!   `SparseMemory` (last-frame memo hot) against the retained
//!   `NaiveSparseMemory` hash-map engine, read-backs and resident
//!   accounting digest-checked identical; the full run gates on
//!   [`GATE_SPEEDUP`]. The peak resident bytes land in the meta block.
//! * `backing_scatter` — the same engine pair under a random PTE-granular
//!   storm: walker-shaped bursts of typed 8-byte fetches inside one
//!   randomly-chosen table frame at a time (mostly absent — the sparse
//!   demand-paged case, where the memo answers repeat probes of an absent
//!   frame without touching the table), stores confined to a small
//!   resident set; gated on [`GATE_SPEEDUP`].
//!
//! A measured thread-scaling curve for the `par_map`-driven sweeps rides
//! along: the same point grid mapped at 1, 2, 4, … workers via
//! `par_map_with`, recording points-per-second and the speedup over one
//! worker. Each scaling point is tagged `"oversubscribed": true` when it
//! ran more workers than the machine has hardware threads — on narrow
//! hosts the tail of the curve measures scheduler fairness, not scaling,
//! and must not be read as a regression.
//!
//! Usage: `simspeed [--smoke] [--out <path>] [--validate <path>]`
//!
//! `--smoke` shrinks every stress point for CI (the speed *gate* is not
//! enforced — smoke numbers are schema fodder, not measurements);
//! `--validate <path>` checks an existing `BENCH_simspeed.json` for the
//! documented schema and exits. The writer self-validates its own output.

use std::num::NonZeroUsize;
use std::time::Instant;

use sva_bench::par::par_map_with;
use sva_common::rng::DeterministicRng;
use sva_common::{
    ArbitrationPolicy, Cycles, InitiatorId, Iova, MemPortReq, PhysAddr, PortTiming, QueueDepths,
    TimedQueue, PAGE_SIZE,
};
use sva_iommu::{Iommu, IommuConfig, PageTableWalker, WalkStore};
use sva_kernels::KernelKind;
use sva_mem::{Fabric, FabricConfig, GrantOutcome, MemSysConfig, MemorySystem, SparseMemory};
use sva_reference::{NaiveFabric, NaiveSparseMemory, NaiveTimedQueue, NaiveWalkTable};
use sva_soc::config::SocVariant;
use sva_soc::experiments::fabric::{self, FabricKnobs, TlbHierarchyConfig, TlbKnobs};
use sva_vm::{AddressSpace, FrameAllocator, PageTable};

/// Minimum indexed-over-naive throughput multiple the full run gates on.
const GATE_SPEEDUP: f64 = 5.0;

/// One measured stress point.
struct SpeedPoint {
    name: &'static str,
    simulated_cycles: u64,
    wallclock_ms: f64,
    sim_cycles_per_sec: f64,
    /// The linear-scan reference on the same work (engine-twin points).
    naive: Option<NaiveBaseline>,
    /// Peak live indexed-state count: boundary events (queue points), live
    /// reservations (fabric points), live walk records or pending page
    /// requests (translation points).
    events_peak: Option<usize>,
    /// Peak resident bytes of the backing store (backing points only):
    /// surfaced in the meta block so sparseness regressions — a zero fill
    /// that starts materialising frames again, say — show up in the perf
    /// artifact.
    resident_bytes_peak: Option<u64>,
}

struct NaiveBaseline {
    wallclock_ms: f64,
    sim_cycles_per_sec: f64,
    speedup: f64,
}

/// One point of the thread-scaling curve.
struct ScalePoint {
    workers: usize,
    points: usize,
    wallclock_ms: f64,
    points_per_sec: f64,
    speedup_vs_1: f64,
    /// More workers than the machine has hardware threads: the point
    /// measures scheduler fairness, not scaling, and must not be read as a
    /// parallel-speedup regression.
    oversubscribed: bool,
}

fn cycles_per_sec(simulated: u64, wallclock_ms: f64) -> f64 {
    simulated as f64 / (wallclock_ms.max(1e-6) / 1e3)
}

/// The deep-queue arrival batch: 4 interleaved shards (out-of-order pushes)
/// whose offered load slightly exceeds the depth, so the queue hovers full
/// and every push exercises the admission walk.
fn deep_queue_batch(pushes: usize) -> Vec<(u64, u64)> {
    let mut rng = DeterministicRng::new(0x5135_BEEF);
    let shards = 4usize;
    let mut cursors = vec![0u64; shards];
    let mut batch = Vec::with_capacity(pushes);
    for i in 0..pushes {
        let shard = i % shards;
        cursors[shard] += rng.next_below(10);
        batch.push((cursors[shard], cursors[shard] + rng.next_below(600)));
    }
    batch
}

/// Runs one engine over the batch; returns (horizon cycles, wallclock ms,
/// digest of results for the identity check).
fn drive<Q>(batch: &[(u64, u64)], mut push: Q) -> (u64, f64, u64)
where
    Q: FnMut(u64, u64) -> (u64, usize),
{
    let start = Instant::now();
    let mut horizon = 0u64;
    let mut digest = 0u64;
    for &(enter, exit) in batch {
        let (admitted, occ) = push(enter, exit);
        horizon = horizon.max(exit.max(admitted + 1));
        digest = digest
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(admitted ^ (occ as u64) << 48);
    }
    (horizon, start.elapsed().as_secs_f64() * 1e3, digest)
}

fn timed_queue_deep(pushes: usize) -> SpeedPoint {
    let batch = deep_queue_batch(pushes);
    let mut indexed = TimedQueue::new(64);
    let (horizon, indexed_ms, indexed_digest) = drive(&batch, |e, x| indexed.push(e, x));
    let mut naive = NaiveTimedQueue::new(64);
    let (_, naive_ms, naive_digest) = drive(&batch, |e, x| naive.push(e, x));
    assert_eq!(
        indexed_digest, naive_digest,
        "indexed and naive engines diverged on the stress batch"
    );
    assert_eq!(indexed.stall_cycles(), naive.stall_cycles());
    SpeedPoint {
        name: "timed_queue_deep",
        simulated_cycles: horizon,
        wallclock_ms: indexed_ms,
        sim_cycles_per_sec: cycles_per_sec(horizon, indexed_ms),
        naive: Some(NaiveBaseline {
            wallclock_ms: naive_ms,
            sim_cycles_per_sec: cycles_per_sec(horizon, naive_ms),
            speedup: naive_ms / indexed_ms.max(1e-6),
        }),
        events_peak: None,
        resident_bytes_peak: None,
    }
}

fn timed_queue_deep_compacted(pushes: usize) -> SpeedPoint {
    // Monotone arrivals: each batch's earliest arrival is a valid watermark
    // for everything before it.
    let mut rng = DeterministicRng::new(0x5135_C0DE);
    let mut queue = TimedQueue::new(64);
    let mut cursor = 0u64;
    let mut horizon = 0u64;
    let mut events_peak = 0usize;
    let start = Instant::now();
    for i in 0..pushes {
        if i % 512 == 0 {
            queue.compact_before(cursor);
            events_peak = events_peak.max(queue.event_count());
        }
        cursor += rng.next_below(10);
        let exit = cursor + rng.next_below(600);
        let (admitted, _) = queue.push(cursor, exit);
        horizon = horizon.max(exit.max(admitted + 1));
    }
    let wallclock_ms = start.elapsed().as_secs_f64() * 1e3;
    events_peak = events_peak.max(queue.event_count());
    SpeedPoint {
        name: "timed_queue_deep_compacted",
        simulated_cycles: horizon,
        wallclock_ms,
        sim_cycles_per_sec: cycles_per_sec(horizon, wallclock_ms),
        naive: None,
        events_peak: Some(events_peak),
        resident_bytes_peak: None,
    }
}

/// The long-window fabric batch: one early "poison pill" burst of
/// `pill_occ` cycles from device 0, then `grants` short monotone grants
/// from `devices` rotating initiators starting after the pill drains. The
/// pill stretches the naive engine's backward start-window scan to
/// `pill_occ` cycles of mostly-finished history on every later grant; the
/// end-indexed probe only ever sees the live tail.
fn fabric_window_batch(
    seed: u64,
    grants: usize,
    devices: u32,
    pill_occ: u64,
    rounds: bool,
) -> Vec<(MemPortReq, PortTiming)> {
    let mut rng = DeterministicRng::new(seed);
    let mut batch = Vec::with_capacity(grants + 1);
    batch.push((
        MemPortReq::read(
            InitiatorId::dma(0),
            PhysAddr::new(0x8000_0000),
            pill_occ * 8,
        )
        .as_burst()
        .at(Cycles::ZERO),
        PortTiming {
            latency: Cycles::new(100),
            occupancy: Cycles::new(pill_occ),
        },
    ));
    let mut cursor = pill_occ;
    for i in 0..grants {
        let dev = (i as u32) % devices;
        let occ = if rounds {
            // Round mode: every initiator arrives at the same instant with
            // identical occupancy, so each grant probes live conflicts and
            // keeps the arbitration predicate hot.
            if dev == 0 {
                cursor += 620 + rng.next_below(80);
            }
            100
        } else {
            // Stream mode: underloaded monotone traffic — almost every
            // reservation is finished history by the time the next grant
            // places.
            cursor += 20 + rng.next_below(40);
            4 + rng.next_below(12)
        };
        batch.push((
            MemPortReq::read(
                InitiatorId::dma(1 + dev),
                PhysAddr::new(0x8000_0000),
                occ * 8,
            )
            .as_burst()
            .at(Cycles::new(cursor)),
            PortTiming {
                latency: Cycles::new(100),
                occupancy: Cycles::new(occ),
            },
        ));
    }
    batch
}

/// Runs one placement engine over a grant batch; returns (horizon cycles,
/// wallclock ms, digest of the grant outcomes for the identity check).
fn drive_grants(
    batch: &[(MemPortReq, PortTiming)],
    mut admit: impl FnMut(usize, &MemPortReq, PortTiming) -> GrantOutcome,
) -> (u64, f64, u64) {
    let start = Instant::now();
    let mut horizon = 0u64;
    let mut digest = 0u64;
    for (i, (req, timing)) in batch.iter().enumerate() {
        let out = admit(i, req, *timing);
        horizon = horizon.max(req.arrival.raw() + out.total_delay().raw() + timing.occupancy.raw());
        digest = digest
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(out.queue.raw() ^ out.issue_stall.raw() << 32);
    }
    (horizon, start.elapsed().as_secs_f64() * 1e3, digest)
}

/// Both placement engines over the same batch, outcomes asserted
/// bit-identical. The indexed engine additionally runs its steady-state
/// compaction discipline every 1024 grants (arrivals are monotone, so the
/// current arrival is a valid no-earlier-arrival watermark), recording the
/// peak live reservation count.
fn fabric_engine_point(
    name: &'static str,
    config: FabricConfig,
    batch: &[(MemPortReq, PortTiming)],
) -> SpeedPoint {
    let mut indexed = Fabric::new(config.clone());
    let mut events_peak = 0usize;
    let (horizon, indexed_ms, indexed_digest) = drive_grants(batch, |i, req, timing| {
        let out = indexed.admit(req, timing);
        if i % 1024 == 1023 {
            indexed.compact_before(req.arrival);
        }
        events_peak = events_peak.max(indexed.event_count());
        out
    });
    let mut naive = NaiveFabric::new(config);
    let (_, naive_ms, naive_digest) =
        drive_grants(batch, |_, req, timing| naive.admit(req, timing));
    assert_eq!(
        indexed_digest, naive_digest,
        "{name}: indexed and naive placement engines diverged"
    );
    assert_eq!(indexed.total(), naive.total(), "{name}: totals diverged");
    SpeedPoint {
        name,
        simulated_cycles: horizon,
        wallclock_ms: indexed_ms,
        sim_cycles_per_sec: cycles_per_sec(horizon, indexed_ms),
        naive: Some(NaiveBaseline {
            wallclock_ms: naive_ms,
            sim_cycles_per_sec: cycles_per_sec(horizon, naive_ms),
            speedup: naive_ms / indexed_ms.max(1e-6),
        }),
        events_peak: Some(events_peak),
        resident_bytes_peak: None,
    }
}

fn fabric_long_window(grants: usize) -> SpeedPoint {
    let batch = fabric_window_batch(0xFAB_0BA7, grants, 3, 50_000, false);
    fabric_engine_point("fabric_long_window", FabricConfig::default(), &batch)
}

fn fabric_weighted_hot(grants: usize) -> SpeedPoint {
    let batch = fabric_window_batch(0xFAB_3077, grants, 6, 50_000, true);
    let config = FabricConfig {
        policy: ArbitrationPolicy::Weighted(vec![8, 4, 2, 1, 1, 1]),
        ..FabricConfig::default()
    };
    fabric_engine_point("fabric_weighted_hot", config, &batch)
}

/// Pages in the walk storm's mapped working set: wide enough that the
/// naive table accumulates thousands of per-level records to scan.
const PTW_STORM_PAGES: u64 = 48;

/// Builds the walk-storm batch: four conceptually concurrent shards with
/// independently advancing monotone cursors, interleaved exactly like the
/// platform's sharded offload, over a working set dense enough that walks
/// coalesce onto in-flight PTE reads. Returns `(page, arrival)` pairs.
fn ptw_storm_batch(walks: usize) -> Vec<(u64, u64)> {
    let mut rng = DeterministicRng::new(0x977A_5708);
    let shards = 4usize;
    let mut cursors = vec![0u64; shards];
    let mut batch = Vec::with_capacity(walks);
    for i in 0..walks {
        let shard = i % shards;
        cursors[shard] += rng.next_below(50);
        batch.push((rng.next_below(PTW_STORM_PAGES), cursors[shard]));
    }
    batch
}

/// A deterministic memory system + address space twin for the walk storm.
fn ptw_environment() -> (MemorySystem, AddressSpace, Iova) {
    let mut mem = MemorySystem::new(MemSysConfig {
        dram_latency: Cycles::new(400),
        ..MemSysConfig::default()
    });
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).expect("storm address space");
    let va = space
        .alloc_buffer(&mut mem, &mut frames, PTW_STORM_PAGES * PAGE_SIZE)
        .expect("storm working set");
    (mem, space, Iova::from_virt(va))
}

/// Drives one walker over the storm batch in its own environment twin.
/// With `compact`, the indexed walker folds dead windows every 512 walks
/// at the no-earlier-arrival watermark (the minimum of the four shard
/// cursors — the last four arrivals are exactly the shards' frontiers).
/// Returns (horizon, wallclock ms, outcome digest, peak live records).
fn drive_ptw<T: WalkStore>(
    walker: &mut PageTableWalker<T>,
    batch: &[(u64, u64)],
    compact: bool,
) -> (u64, f64, u64, usize) {
    let (mut mem, space, base) = ptw_environment();
    let start = Instant::now();
    let mut horizon = 0u64;
    let mut digest = 0u64;
    let mut events_peak = 0usize;
    for (i, &(page, t)) in batch.iter().enumerate() {
        let res = walker
            .walk_at(
                &mut mem,
                space.root(),
                base + page * PAGE_SIZE,
                false,
                Cycles::new(t),
            )
            .expect("storm pages are mapped");
        horizon = horizon.max(t + res.cycles.raw());
        digest = digest.wrapping_mul(0x100_0000_01b3).wrapping_add(
            res.cycles.raw() ^ u64::from(res.reads) << 40 ^ u64::from(res.coalesced) << 52,
        );
        if compact {
            if i % 512 == 511 {
                let watermark = batch[i - 3..=i].iter().map(|&(_, t)| t).min().unwrap();
                walker.compact_walk_table_before(Cycles::new(watermark));
            }
            events_peak = events_peak.max(walker.walk_table_events());
        }
    }
    (
        horizon,
        start.elapsed().as_secs_f64() * 1e3,
        digest,
        events_peak,
    )
}

fn ptw_walk_storm(walks: usize) -> SpeedPoint {
    let batch = ptw_storm_batch(walks);
    let mut indexed: PageTableWalker = PageTableWalker::with_batching(8);
    let (horizon, indexed_ms, indexed_digest, events_peak) = drive_ptw(&mut indexed, &batch, true);
    let mut naive = PageTableWalker::<NaiveWalkTable>::with_batching(8);
    let (_, naive_ms, naive_digest, _) = drive_ptw(&mut naive, &batch, false);
    assert_eq!(
        indexed_digest, naive_digest,
        "ptw_walk_storm: indexed and naive walk tables diverged"
    );
    assert_eq!(indexed.pte_reads(), naive.pte_reads());
    assert_eq!(indexed.coalesced_reads(), naive.coalesced_reads());
    assert_eq!(indexed.walk_time(), naive.walk_time());
    SpeedPoint {
        name: "ptw_walk_storm",
        simulated_cycles: horizon,
        wallclock_ms: indexed_ms,
        sim_cycles_per_sec: cycles_per_sec(horizon, indexed_ms),
        naive: Some(NaiveBaseline {
            wallclock_ms: naive_ms,
            sim_cycles_per_sec: cycles_per_sec(horizon, naive_ms),
            speedup: naive_ms / indexed_ms.max(1e-6),
        }),
        events_peak: Some(events_peak),
        resident_bytes_peak: None,
    }
}

/// IOVA pages in the page-request storm's working set per device: with two
/// devices this matches the full-mode queue depth, so the queue saturates
/// on dedup suppression (the expensive probe) rather than pure overflow.
const PRI_STORM_PAGES: u64 = 4096;

/// Drives one IOMMU through the group storm: overlapping 16-page request
/// groups from two devices against an empty IO table (every page is a
/// candidate), four host pops every eight groups. Returns (horizon,
/// wallclock ms, digest over group outcomes and the popped stream).
fn drive_pri(iommu: &mut Iommu, mem: &MemorySystem, groups: usize, scan: bool) -> (u64, f64, u64) {
    let mut rng = DeterministicRng::new(0x9B1_5708);
    let base = Iova::new(0x4000_0000);
    let start = Instant::now();
    let mut now = 0u64;
    let mut digest = 0u64;
    for g in 0..groups {
        now += 7;
        let dev = 1 + rng.next_below(2) as u32;
        let first = base + rng.next_below(PRI_STORM_PAGES) * PAGE_SIZE;
        let len = 16 * PAGE_SIZE;
        let (enqueued, dropped) = if scan {
            iommu.enqueue_page_requests_scan(mem, dev, first, len, false, Cycles::new(now))
        } else {
            iommu.enqueue_page_requests(mem, dev, first, len, false, Cycles::new(now))
        };
        digest = digest
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(enqueued ^ dropped << 32);
        if g % 8 == 7 {
            for _ in 0..4 {
                if let Some(r) = iommu.pop_page_request() {
                    digest = digest
                        .wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(r.iova.raw() ^ u64::from(r.device_id) << 48);
                }
            }
        }
    }
    digest = digest
        .wrapping_mul(0x100_0000_01b3)
        .wrapping_add(iommu.pending_page_requests() as u64);
    (now, start.elapsed().as_secs_f64() * 1e3, digest)
}

/// A fresh IOMMU twin for the page-request storm: two devices attached to
/// one empty IO page table, a `entries`-deep page-request queue.
fn pri_environment(entries: usize) -> (MemorySystem, Iommu) {
    let mut mem = MemorySystem::default();
    let mut frames = FrameAllocator::linux_pool();
    let io_root = PageTable::create(&mut frames)
        .expect("storm IO table")
        .root();
    let mut iommu = Iommu::new(IommuConfig {
        demand_paging: true,
        page_request_entries: entries,
        ..IommuConfig::default()
    });
    for dev in [1u32, 2] {
        iommu
            .attach_device(&mut mem, &mut frames, dev, 0, io_root)
            .expect("storm device");
    }
    (mem, iommu)
}

fn pri_group_storm(groups: usize, entries: usize) -> SpeedPoint {
    let (mem_a, mut indexed) = pri_environment(entries);
    let (horizon, indexed_ms, indexed_digest) = drive_pri(&mut indexed, &mem_a, groups, false);
    let (mem_b, mut scan) = pri_environment(entries);
    let (_, scan_ms, scan_digest) = drive_pri(&mut scan, &mem_b, groups, true);
    assert_eq!(
        indexed_digest, scan_digest,
        "pri_group_storm: dedup index and queue scan diverged"
    );
    assert_eq!(
        indexed.stats().page_request_pending_peak,
        scan.stats().page_request_pending_peak
    );
    SpeedPoint {
        name: "pri_group_storm",
        simulated_cycles: horizon,
        wallclock_ms: indexed_ms,
        sim_cycles_per_sec: cycles_per_sec(horizon, indexed_ms),
        naive: Some(NaiveBaseline {
            wallclock_ms: scan_ms,
            sim_cycles_per_sec: cycles_per_sec(horizon, scan_ms),
            speedup: scan_ms / indexed_ms.max(1e-6),
        }),
        events_peak: Some(indexed.stats().page_request_pending_peak),
        resident_bytes_peak: None,
    }
}

/// Local dispatch surface for the backing-store twin run: both store
/// engines expose the same methods, so the storm drivers are generic over
/// this trait instead of duplicating the loops. Offsets are in-bounds by
/// construction, so errors are unwrapped.
trait ByteStore {
    fn read_u64(&self, offset: u64) -> u64;
    fn write_u64(&mut self, offset: u64, value: u64);
    fn resident_bytes(&self) -> u64;
}

impl ByteStore for SparseMemory {
    fn read_u64(&self, offset: u64) -> u64 {
        SparseMemory::read_u64(self, offset).expect("in-bounds")
    }
    fn write_u64(&mut self, offset: u64, value: u64) {
        SparseMemory::write_u64(self, offset, value).expect("in-bounds");
    }
    fn resident_bytes(&self) -> u64 {
        SparseMemory::resident_bytes(self)
    }
}

impl ByteStore for NaiveSparseMemory {
    fn read_u64(&self, offset: u64) -> u64 {
        NaiveSparseMemory::read_u64(self, offset).expect("in-bounds")
    }
    fn write_u64(&mut self, offset: u64, value: u64) {
        NaiveSparseMemory::write_u64(self, offset, value).expect("in-bounds");
    }
    fn resident_bytes(&self) -> u64 {
        NaiveSparseMemory::resident_bytes(self)
    }
}

/// Drives the sequential copy storm at bus-beat (8-byte) granularity —
/// the granularity the platform's data plane actually issues (DMA beats,
/// PTE fetches, element reads): full write passes alternating with full
/// read passes over a `window`-byte working set, so a frame is revisited
/// `PAGE_SIZE / 8` consecutive times — the access shape the last-frame
/// memo is built for. Returns (wallclock ms, observable digest, resident
/// bytes — peak equals final since nothing is cleared).
fn drive_stream<S: ByteStore>(store: &mut S, ops: usize, window: u64) -> (f64, u64, u64) {
    let slots = window / 8;
    let passes = (ops as u64).div_ceil(slots);
    let start = Instant::now();
    let mut digest = 0u64;
    for pass in 0..passes {
        if pass % 2 == 0 {
            let salt = pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for slot in 0..slots {
                store.write_u64(slot * 8, slot ^ salt);
            }
        } else {
            for slot in 0..slots {
                // Rotate-xor fold: order-sensitive but a single-cycle
                // dependency, so the digest chain does not mask the engine
                // cost being measured (a multiply chain would put three
                // serial cycles on every read for both engines alike).
                digest = digest.rotate_left(1) ^ store.read_u64(slot * 8);
            }
        }
    }
    let wallclock_ms = start.elapsed().as_secs_f64() * 1e3;
    let resident = store.resident_bytes();
    digest = digest.wrapping_mul(0x100_0000_01b3).wrapping_add(resident);
    (wallclock_ms, digest, resident)
}

/// Only one frame in this stride of the scatter window is ever written:
/// the storm models a demand-paged page-table pool, where the live tables
/// are a small resident set inside a large, mostly-unmapped region and
/// most PTE fetches hit absent frames (unmapped entries read as zero).
const SCATTER_RESIDENT_STRIDE: u64 = 16;

/// Precomputed scatter batch: `u32` slot indexes over the window,
/// generated outside the timed loop (RNG cost inside the loop would
/// compress the engine ratio being gated). Each group of eight is a
/// page-table-walker-shaped burst — seven PTE fetches at random entries
/// of one randomly-chosen table frame (mostly absent: unmapped tables
/// read as zero) — followed by one store into the resident frame set.
fn scatter_batch(ops: usize, window: u64) -> Vec<u32> {
    let mut rng = DeterministicRng::new(0xBAC_5CA7);
    let frames = window / PAGE_SIZE;
    let slots_per_frame = PAGE_SIZE / 8;
    let mut burst_frame = 0u64;
    (0..ops)
        .map(|i| {
            match i % 8 {
                // One store per burst, confined to the resident frames.
                7 => {
                    let frame =
                        rng.next_below(frames / SCATTER_RESIDENT_STRIDE) * SCATTER_RESIDENT_STRIDE;
                    (frame * slots_per_frame + rng.next_below(slots_per_frame)) as u32
                }
                // Start of a burst: pick the table frame for this group.
                0 => {
                    burst_frame = rng.next_below(frames);
                    (burst_frame * slots_per_frame + rng.next_below(slots_per_frame)) as u32
                }
                // Rest of the burst: more entries of the same table frame.
                _ => (burst_frame * slots_per_frame + rng.next_below(slots_per_frame)) as u32,
            }
        })
        .collect()
}

/// Drives the PTE-granular scatter storm: bursts of typed 8-byte fetches,
/// each burst inside one randomly-chosen table frame (mostly absent
/// frames — the sparse-table case, and the locality shape the last-frame
/// memo exists for), with stores confined to the resident set, seven
/// fetches per store. Returns (wallclock ms, observable digest, resident
/// bytes).
fn drive_scatter<S: ByteStore>(store: &mut S, batch: &[u32]) -> (f64, u64, u64) {
    assert_eq!(batch.len() % 8, 0, "scatter batch is whole groups of eight");
    let start = Instant::now();
    // Two independent fold lanes: the fold stays order-sensitive inside
    // each lane, but a single serial rotate-xor chain would add two
    // dependent cycles to every fetch on both engines alike — shared cost
    // that compresses the engine ratio being gated.
    let (mut d0, mut d1) = (0u64, 0u64);
    for group in batch.chunks_exact(8) {
        d0 = d0.rotate_left(1) ^ store.read_u64(u64::from(group[0]) * 8);
        d1 = d1.rotate_left(1) ^ store.read_u64(u64::from(group[1]) * 8);
        d0 = d0.rotate_left(1) ^ store.read_u64(u64::from(group[2]) * 8);
        d1 = d1.rotate_left(1) ^ store.read_u64(u64::from(group[3]) * 8);
        d0 = d0.rotate_left(1) ^ store.read_u64(u64::from(group[4]) * 8);
        d1 = d1.rotate_left(1) ^ store.read_u64(u64::from(group[5]) * 8);
        d0 = d0.rotate_left(1) ^ store.read_u64(u64::from(group[6]) * 8);
        let w = u64::from(group[7]) * 8;
        store.write_u64(w, w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    let wallclock_ms = start.elapsed().as_secs_f64() * 1e3;
    let resident = store.resident_bytes();
    let digest = (d0.rotate_left(7) ^ d1)
        .wrapping_mul(0x100_0000_01b3)
        .wrapping_add(resident);
    (wallclock_ms, digest, resident)
}

/// Repetitions per engine for the backing points, best wallclock taken.
/// The backing drives are short enough (tens of ms) that scheduler
/// interference on a shared host lands inside the measurement window, and
/// that interference is one-sided — it only ever slows a run — so the
/// minimum over a few repetitions is the faithful engine-cost estimator.
/// Repetitions are *interleaved* (indexed, naive, indexed, naive, …) so
/// both engines sample the same contention landscape: back-to-back blocks
/// would let a load shift between the blocks masquerade as an engine
/// ratio change. Every repetition's digest is cross-checked.
const BACKING_REPS: usize = 5;

/// Folds one repetition's `(wallclock, digest, resident)` into the
/// best-so-far, asserting the observables never vary across repetitions.
fn fold_rep(best: &mut Option<(f64, u64, u64)>, rep: (f64, u64, u64)) {
    let (ms, digest, resident) = rep;
    if let Some((best_ms, best_digest, best_resident)) = *best {
        assert_eq!(digest, best_digest, "digest varies across repetitions");
        assert_eq!(resident, best_resident);
        *best = Some((ms.min(best_ms), digest, resident));
    } else {
        *best = Some(rep);
    }
}

/// Runs the indexed and naive drives [`BACKING_REPS`] times each,
/// interleaved, on a fresh store per repetition; returns each engine's
/// best `(wallclock, digest, resident)`.
fn best_of_paired_reps(
    mut run_indexed: impl FnMut() -> (f64, u64, u64),
    mut run_naive: impl FnMut() -> (f64, u64, u64),
) -> ((f64, u64, u64), (f64, u64, u64)) {
    let mut best_indexed = None;
    let mut best_naive = None;
    for _ in 0..BACKING_REPS {
        fold_rep(&mut best_indexed, run_indexed());
        fold_rep(&mut best_naive, run_naive());
    }
    (
        best_indexed.expect("at least one repetition"),
        best_naive.expect("at least one repetition"),
    )
}

/// The long sequential DMA copy storm: the direct-map store (memo hot —
/// `PAGE_SIZE / 8` consecutive same-frame hits per frame) against the
/// retained hash-map engine on the same pass schedule, observables
/// digest-checked identical. `simulated_cycles` is the bus-beat proxy for
/// the data moved (one 8-byte beat per op), so cycles/s is comparable
/// across backing points.
fn backing_stream(ops: usize, window: u64) -> SpeedPoint {
    let ((indexed_ms, indexed_digest, resident), (naive_ms, naive_digest, naive_resident)) =
        best_of_paired_reps(
            || drive_stream(&mut SparseMemory::new(window), ops, window),
            || drive_stream(&mut NaiveSparseMemory::new(window), ops, window),
        );
    assert_eq!(
        indexed_digest, naive_digest,
        "backing_stream: direct-map and hash-map engines diverged"
    );
    assert_eq!(resident, naive_resident);
    // Beats actually issued: whole passes over the window.
    let slots = window / 8;
    let beats = (ops as u64).div_ceil(slots) * slots;
    SpeedPoint {
        name: "backing_stream",
        simulated_cycles: beats,
        wallclock_ms: indexed_ms,
        sim_cycles_per_sec: cycles_per_sec(beats, indexed_ms),
        naive: Some(NaiveBaseline {
            wallclock_ms: naive_ms,
            sim_cycles_per_sec: cycles_per_sec(beats, naive_ms),
            speedup: naive_ms / indexed_ms.max(1e-6),
        }),
        events_peak: None,
        resident_bytes_peak: Some(resident),
    }
}

/// The random PTE-granular storm: typed 8-byte read-modify-writes
/// scattered over the window (memo mostly cold across entries — the win is
/// the direct-map probe against the hash probe plus generic chunk loop,
/// twice per entry). One beat per batch entry in the proxy.
fn backing_scatter(ops: usize, window: u64) -> SpeedPoint {
    let batch = scatter_batch(ops, window);
    let ((indexed_ms, indexed_digest, resident), (naive_ms, naive_digest, naive_resident)) =
        best_of_paired_reps(
            || drive_scatter(&mut SparseMemory::new(window), &batch),
            || drive_scatter(&mut NaiveSparseMemory::new(window), &batch),
        );
    assert_eq!(
        indexed_digest, naive_digest,
        "backing_scatter: direct-map and hash-map engines diverged"
    );
    assert_eq!(resident, naive_resident);
    let beats = ops as u64;
    SpeedPoint {
        name: "backing_scatter",
        simulated_cycles: beats,
        wallclock_ms: indexed_ms,
        sim_cycles_per_sec: cycles_per_sec(beats, indexed_ms),
        naive: Some(NaiveBaseline {
            wallclock_ms: naive_ms,
            sim_cycles_per_sec: cycles_per_sec(beats, naive_ms),
            speedup: naive_ms / indexed_ms.max(1e-6),
        }),
        events_peak: None,
        resident_bytes_peak: Some(resident),
    }
}

fn fabric_point(
    name: &'static str,
    clusters: usize,
    channels: usize,
    depths: QueueDepths,
    knobs: FabricKnobs,
    tlb: TlbKnobs,
) -> SpeedPoint {
    let start = Instant::now();
    let point = fabric::run_point(
        KernelKind::Gemm,
        false,
        clusters,
        SocVariant::IommuLlc,
        200,
        channels,
        &ArbitrationPolicy::RoundRobin,
        depths,
        knobs,
        tlb,
    )
    .expect("fabric stress point");
    let wallclock_ms = start.elapsed().as_secs_f64() * 1e3;
    SpeedPoint {
        name,
        simulated_cycles: point.total,
        wallclock_ms,
        sim_cycles_per_sec: cycles_per_sec(point.total, wallclock_ms),
        naive: None,
        events_peak: None,
        resident_bytes_peak: None,
    }
}

/// Maps the same cheap point grid at each worker count, measuring the
/// throughput curve of the `par_map` machinery itself.
fn thread_scaling(smoke: bool) -> Vec<ScalePoint> {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    // Doubling worker counts up to the hardware width, and always through 4
    // so oversubscription is measured even on narrow machines (the curve
    // should go flat there, not down — a regression in the work
    // distribution shows up as a drop).
    let top = hw.clamp(4, 8);
    let mut counts = vec![1usize];
    while let Some(&last) = counts.last() {
        if last * 2 > top {
            break;
        }
        counts.push(last * 2);
    }
    let items_per_run = if smoke {
        4
    } else {
        counts.last().copied().unwrap_or(1) * 4
    };
    let mut curve: Vec<ScalePoint> = Vec::new();
    for &workers in &counts {
        let grid: Vec<u64> = vec![200; items_per_run];
        let start = Instant::now();
        let points = par_map_with(grid, workers, |latency| {
            fabric::run_point(
                KernelKind::Gemm,
                false,
                1,
                SocVariant::IommuLlc,
                latency,
                1,
                &ArbitrationPolicy::RoundRobin,
                QueueDepths::UNBOUNDED,
                FabricKnobs::default(),
                TlbKnobs::default(),
            )
            .expect("scaling point")
            .total
        });
        let wallclock_ms = start.elapsed().as_secs_f64() * 1e3;
        let points_per_sec = points.len() as f64 / (wallclock_ms.max(1e-6) / 1e3);
        let speedup_vs_1 = curve
            .first()
            .map(|base: &ScalePoint| wallclock_ms_ratio(base.wallclock_ms, wallclock_ms))
            .unwrap_or(1.0);
        curve.push(ScalePoint {
            workers,
            points: points.len(),
            wallclock_ms,
            points_per_sec,
            speedup_vs_1,
            oversubscribed: workers > hw,
        });
    }
    curve
}

fn wallclock_ms_ratio(base: f64, now: f64) -> f64 {
    base / now.max(1e-6)
}

fn to_json(mode: &str, points: &[SpeedPoint], scaling: &[ScalePoint]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"simspeed\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    let peaks: Vec<String> = points
        .iter()
        .filter_map(|p| {
            p.resident_bytes_peak
                .map(|b| format!("\"{}\": {b}", p.name))
        })
        .collect();
    out.push_str(&format!(
        "  \"meta\": {{\"hardware_threads\": {}, \"resident_bytes_peak\": {{{}}}}},\n",
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        peaks.join(", ")
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"simulated_cycles\": {}, \"wallclock_ms\": {:.3}, \
             \"sim_cycles_per_sec\": {:.0}",
            p.name, p.simulated_cycles, p.wallclock_ms, p.sim_cycles_per_sec
        ));
        if let Some(naive) = &p.naive {
            out.push_str(&format!(
                ", \"naive_wallclock_ms\": {:.3}, \"naive_sim_cycles_per_sec\": {:.0}, \
                 \"speedup_vs_naive\": {:.2}",
                naive.wallclock_ms, naive.sim_cycles_per_sec, naive.speedup
            ));
        }
        if let Some(events) = p.events_peak {
            out.push_str(&format!(", \"events_peak\": {events}"));
        }
        out.push_str(&format!(
            "}}{}\n",
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"thread_scaling\": [\n");
    for (i, s) in scaling.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"points\": {}, \"wallclock_ms\": {:.3}, \
             \"points_per_sec\": {:.2}, \"speedup_vs_1\": {:.2}, \
             \"oversubscribed\": {}}}{}\n",
            s.workers,
            s.points,
            s.wallclock_ms,
            s.points_per_sec,
            s.speedup_vs_1,
            s.oversubscribed,
            if i + 1 == scaling.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts the unsigned integer following `"key": ` in `text`, if any.
fn field_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = text.find(&pat)? + pat.len();
    let digits: String = text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Schema check of a `BENCH_simspeed.json` (hand-rolled; the build is
/// offline and carries no serde_json). Verifies the experiment tag, the
/// required top-level sections, the required stress-point names, the
/// per-point required keys, that the engine-comparison points carry the
/// naive baseline, and that every thread-scaling point's
/// `oversubscribed` flag agrees with `workers > hardware_threads`.
/// Returns every violation found.
fn validate(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut require = |needle: &str, what: &str| {
        if !text.contains(needle) {
            errors.push(format!("missing {what}: expected `{needle}`"));
        }
    };
    require("\"experiment\": \"simspeed\"", "experiment tag");
    require("\"mode\": \"", "mode field");
    require("\"meta\": {", "meta section");
    require("\"hardware_threads\": ", "meta.hardware_threads");
    require("\"resident_bytes_peak\": {", "meta.resident_bytes_peak");
    require("\"points\": [", "points section");
    require("\"thread_scaling\": [", "thread_scaling section");
    for name in [
        "timed_queue_deep",
        "timed_queue_deep_compacted",
        "fabric_4x4_demand",
        "fabric_deep_queues",
        "fabric_long_window",
        "fabric_weighted_hot",
        "ptw_walk_storm",
        "pri_group_storm",
        "backing_stream",
        "backing_scatter",
    ] {
        require(&format!("\"name\": \"{name}\""), "stress point");
    }
    for key in ["simulated_cycles", "wallclock_ms", "sim_cycles_per_sec"] {
        require(&format!("\"{key}\": "), "per-point key");
    }
    for key in [
        "naive_wallclock_ms",
        "naive_sim_cycles_per_sec",
        "speedup_vs_naive",
    ] {
        require(&format!("\"{key}\": "), "naive-baseline key");
    }
    require("\"events_peak\": ", "compaction observable");
    for key in [
        "workers",
        "points_per_sec",
        "speedup_vs_1",
        "oversubscribed",
    ] {
        require(&format!("\"{key}\": "), "thread-scaling key");
    }
    // Oversubscription honesty: every scaling line's flag must agree with
    // workers vs the recorded hardware width.
    let hw = field_u64(text, "hardware_threads");
    for line in text.lines() {
        let Some(workers) = field_u64(line, "workers") else {
            continue;
        };
        let Some(hw) = hw else {
            continue;
        };
        let expected = format!("\"oversubscribed\": {}", workers > hw);
        if !line.contains(&expected) {
            errors.push(format!(
                "thread_scaling workers={workers}: expected `{expected}` \
                 (hardware_threads={hw})"
            ));
        }
    }
    let opens = text.matches('{').count();
    let closes = text.matches('}').count();
    if opens != closes {
        errors.push(format!("unbalanced braces: {opens} open vs {closes} close"));
    }
    errors
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args.get(i + 1).expect("--validate <path>");
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let errors = validate(&text);
        if errors.is_empty() {
            println!("{path}: schema ok");
            return;
        }
        for e in &errors {
            eprintln!("{path}: {e}");
        }
        std::process::exit(1);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_simspeed.json".to_string());

    let pushes = if smoke { 2_000 } else { 20_000 };
    let (clusters, channels) = if smoke { (2, 2) } else { (4, 4) };

    let deep = timed_queue_deep(pushes);
    let compacted = timed_queue_deep_compacted(pushes);
    let demand = fabric_point(
        "fabric_4x4_demand",
        clusters,
        channels,
        QueueDepths::UNBOUNDED,
        FabricKnobs::default(),
        TlbKnobs {
            hierarchy: Some(TlbHierarchyConfig::default()),
            demand_paging: true,
        },
    );
    let deep_queues = fabric_point(
        "fabric_deep_queues",
        clusters,
        1,
        QueueDepths::bounded(4, 4),
        FabricKnobs {
            host_traffic: true,
            ptw_batching: true,
        },
        TlbKnobs::default(),
    );
    let long_window = fabric_long_window(pushes);
    let weighted_hot = fabric_weighted_hot(pushes);
    let walk_storm = ptw_walk_storm(if smoke { 500 } else { 5_000 });
    let group_storm = if smoke {
        pri_group_storm(120, 512)
    } else {
        pri_group_storm(2_000, 8_192)
    };
    let stream = if smoke {
        backing_stream(48_000, 128 << 10)
    } else {
        backing_stream(6_000_000, 128 << 10)
    };
    let scatter = if smoke {
        backing_scatter(16_000, 4 << 20)
    } else {
        backing_scatter(4_000_000, 4 << 20)
    };
    let scaling = thread_scaling(smoke);

    let points = [
        deep,
        compacted,
        demand,
        deep_queues,
        long_window,
        weighted_hot,
        walk_storm,
        group_storm,
        stream,
        scatter,
    ];
    for p in &points {
        let extra = match (&p.naive, p.events_peak) {
            (Some(n), _) => format!(
                " (naive {:.0} c/s, speedup {:.1}x)",
                n.sim_cycles_per_sec, n.speedup
            ),
            (None, Some(events)) => format!(" (events peak {events})"),
            _ => String::new(),
        };
        println!(
            "{:>28}: {:>12} sim cycles in {:>9.3} ms = {:.0} cycles/s{extra}",
            p.name, p.simulated_cycles, p.wallclock_ms, p.sim_cycles_per_sec
        );
    }
    for s in &scaling {
        println!(
            "{:>28}: {} workers, {} points in {:.1} ms = {:.2} points/s ({:.2}x vs 1 worker)",
            "thread_scaling", s.workers, s.points, s.wallclock_ms, s.points_per_sec, s.speedup_vs_1
        );
    }

    let json = to_json(if smoke { "smoke" } else { "full" }, &points, &scaling);
    let errors = validate(&json);
    assert!(errors.is_empty(), "self-validation failed: {errors:?}");
    std::fs::write(&out, json).expect("write BENCH_simspeed.json");
    println!("wrote {out}");

    if !smoke {
        for gated in [
            "timed_queue_deep",
            "fabric_long_window",
            "ptw_walk_storm",
            "pri_group_storm",
            "backing_stream",
            "backing_scatter",
        ] {
            let speedup = points
                .iter()
                .find(|p| p.name == gated)
                .and_then(|p| p.naive.as_ref())
                .expect("gated point carries the naive baseline")
                .speedup;
            assert!(
                speedup >= GATE_SPEEDUP,
                "perf gate: {gated} speedup {speedup:.1}x < {GATE_SPEEDUP}x over linear scan"
            );
            println!(
                "perf gate ok: {gated} {speedup:.1}x >= {GATE_SPEEDUP}x over the \
                 linear-scan baseline"
            );
        }
    }
}
