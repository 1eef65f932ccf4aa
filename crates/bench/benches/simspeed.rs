//! Criterion micro-benchmarks of the event-indexed occupancy-timeline
//! engine: indexed vs linear-scan pushes on a deep bounded queue, the
//! admission query on a standing backlog, watermark compaction, the
//! fabric `admit` grant path (end-indexed placement vs the linear-scan
//! `NaiveFabric`), the page-table walker's hot fetch path (indexed
//! walk-table probe vs the `NaiveWalkTable` full-table scan, on a walker
//! carrying thousands of accumulated walk records), and the backing
//! store's hot single-frame typed accessors (direct-map + last-frame memo
//! vs the retained hash-map engine).
//!
//! The `simspeed` binary is the perf *gate* (absolute
//! simulated-cycles-per-second, written to `BENCH_simspeed.json`); these
//! benches are the engine-local view for iterating on `channel.rs` and
//! `fabric.rs` themselves.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkGroup, Criterion};

use sva_common::rng::DeterministicRng;
use sva_common::{
    Cycles, InitiatorId, Iova, MemPortReq, PhysAddr, PortTiming, TimedQueue, PAGE_SIZE,
};
use sva_iommu::{PageTableWalker, WalkStore};
use sva_mem::{Fabric, MemSysConfig, MemorySystem};
use sva_reference::{NaiveFabric, NaiveSparseMemory, NaiveTimedQueue, NaiveWalkTable};
use sva_vm::{AddressSpace, FrameAllocator};

/// The deep-queue batch the `simspeed` stress point uses, at bench size.
fn batch(pushes: usize) -> Vec<(u64, u64)> {
    let mut rng = DeterministicRng::new(0x5135_BEEF);
    let mut cursors = [0u64; 4];
    (0..pushes)
        .map(|i| {
            let shard = i % 4;
            cursors[shard] += rng.next_below(10);
            (cursors[shard], cursors[shard] + rng.next_below(600))
        })
        .collect()
}

fn bench_push(c: &mut Criterion) {
    let work = batch(2_000);
    let mut group = c.benchmark_group("timed_queue/push_2k_deep64");
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut q = TimedQueue::new(64);
            for &(enter, exit) in &work {
                black_box(q.push(enter, exit));
            }
            q.stall_cycles()
        })
    });
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut q = NaiveTimedQueue::new(64);
            for &(enter, exit) in &work {
                black_box(q.push(enter, exit));
            }
            q.stall_cycles()
        })
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let work = batch(2_000);
    let mut indexed = TimedQueue::new(64);
    let mut naive = NaiveTimedQueue::new(64);
    for &(enter, exit) in &work {
        indexed.push(enter, exit);
        naive.push(enter, exit);
    }
    let horizon = work.iter().map(|&(_, x)| x).max().unwrap_or(0);
    let mut group = c.benchmark_group("timed_queue/admission_on_backlog");
    group.bench_function("indexed", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = (t + 97) % horizon;
            black_box(indexed.admission_at(t))
        })
    });
    group.bench_function("naive", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = (t + 97) % horizon;
            black_box(naive.admission_at(t))
        })
    });
    group.finish();
}

fn bench_compaction(c: &mut Criterion) {
    c.bench_function("timed_queue/push_2k_compacted", |b| {
        let mut rng = DeterministicRng::new(0x5135_C0DE);
        b.iter(|| {
            let mut q = TimedQueue::new(64);
            let mut cursor = 0u64;
            for i in 0..2_000u64 {
                if i % 512 == 0 {
                    q.compact_before(cursor);
                }
                cursor += rng.next_below(10);
                black_box(q.push(cursor, cursor + rng.next_below(600)));
            }
            q.event_count()
        })
    });
}

/// The long-window grant batch the `fabric_long_window` simspeed point
/// uses, at bench size: one early long "poison pill" burst, then short
/// monotone grants — the shape that punishes backward history scans.
fn grant_batch(grants: usize) -> Vec<(MemPortReq, PortTiming)> {
    let mut rng = DeterministicRng::new(0xFAB_0BA7);
    let pill = 50_000u64;
    let mut batch = Vec::with_capacity(grants + 1);
    batch.push((
        MemPortReq::read(InitiatorId::dma(0), PhysAddr::new(0x8000_0000), pill * 8)
            .as_burst()
            .at(Cycles::ZERO),
        PortTiming {
            latency: Cycles::new(100),
            occupancy: Cycles::new(pill),
        },
    ));
    let mut cursor = pill;
    for i in 0..grants {
        cursor += 20 + rng.next_below(40);
        let occ = 4 + rng.next_below(12);
        batch.push((
            MemPortReq::read(
                InitiatorId::dma(1 + (i as u32 % 3)),
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

fn bench_fabric_admit(c: &mut Criterion) {
    let work = grant_batch(2_000);
    let mut group = c.benchmark_group("fabric/admit_2k_long_window");
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut fabric = Fabric::default();
            for (req, timing) in &work {
                black_box(fabric.admit(req, *timing));
            }
            fabric.grants()
        })
    });
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut fabric = NaiveFabric::default();
            for (req, timing) in &work {
                black_box(fabric.admit(req, *timing));
            }
            fabric.grants()
        })
    });
    group.finish();
}

/// The hot translation fetch: both walkers are preloaded with a ~5000-walk
/// sharded storm (the `ptw_walk_storm` simspeed shape), whose records the
/// naive table scans on every later probe, then one fresh walk plants live
/// windows on every level of the hot page. The measured walk coalesces on
/// all three levels — a pure probe, no new records, no memory reads — so
/// each iteration is identical and the two engines differ only in how they
/// find the in-flight windows.
fn bench_ptw_fetch_hot(c: &mut Criterion) {
    let storm: Vec<(u64, u64)> = {
        let mut rng = DeterministicRng::new(0x977A_5708);
        let mut cursors = [0u64; 4];
        (0..5_000)
            .map(|i| {
                let shard = i % 4;
                cursors[shard] += rng.next_below(50);
                (rng.next_below(PTW_PAGES), cursors[shard])
            })
            .collect()
    };
    let mut group = c.benchmark_group("ptw/fetch_hot");
    let indexed: PageTableWalker = PageTableWalker::with_batching(8);
    bench_walker(&mut group, "indexed", indexed, &storm);
    let naive = PageTableWalker::<NaiveWalkTable>::with_batching(8);
    bench_walker(&mut group, "naive", naive, &storm);
    group.finish();
}

/// Pages the hot-fetch storm walks.
const PTW_PAGES: u64 = 48;

/// Preloads `walker` with `storm`, plants live windows past its horizon and
/// benches a walk that coalesces on them.
fn bench_walker<T: WalkStore>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    mut walker: PageTableWalker<T>,
    storm: &[(u64, u64)],
) {
    let mut mem = MemorySystem::new(MemSysConfig {
        dram_latency: Cycles::new(400),
        ..MemSysConfig::default()
    });
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
    let base = Iova::from_virt(
        space
            .alloc_buffer(&mut mem, &mut frames, PTW_PAGES * PAGE_SIZE)
            .unwrap(),
    );
    let mut horizon = 0u64;
    for &(page, t) in storm {
        let res = walker
            .walk_at(
                &mut mem,
                space.root(),
                base + page * PAGE_SIZE,
                false,
                Cycles::new(t),
            )
            .unwrap();
        horizon = horizon.max(t + res.cycles.raw());
    }
    // Plant live windows past the storm's horizon, then probe inside
    // them: every bench iteration coalesces on all levels.
    walker
        .walk_at(
            &mut mem,
            space.root(),
            base,
            false,
            Cycles::new(horizon + 1),
        )
        .unwrap();
    let probe_t = Cycles::new(horizon + 2);
    group.bench_function(name, |b| {
        b.iter(|| {
            black_box(
                walker
                    .walk_at(&mut mem, space.root(), base, false, probe_t)
                    .unwrap()
                    .cycles,
            )
        })
    });
}

/// The hot data-plane element access: typed `u64` reads and writes cycling
/// inside one resident frame (the PTE-fetch / page-table-write shape — the
/// memo and the single-frame fast path both stay hot), direct-map store vs
/// the retained hash-map engine.
fn bench_backing_frame_hot(c: &mut Criterion) {
    let mut group = c.benchmark_group("backing/frame_hot");
    let capacity = 64 * PAGE_SIZE;
    let hot = 3 * PAGE_SIZE;
    group.bench_function("indexed", |b| {
        let mut mem = sva_mem::SparseMemory::new(capacity);
        mem.write_u64(hot, 1).unwrap();
        let mut slot = 0u64;
        b.iter(|| {
            slot = (slot + 8) % 512;
            let v = mem.read_u64(hot + slot).unwrap();
            black_box(mem.write_u64(hot + slot, v.wrapping_add(1)).unwrap())
        })
    });
    group.bench_function("naive", |b| {
        let mut mem = NaiveSparseMemory::new(capacity);
        mem.write_u64(hot, 1).unwrap();
        let mut slot = 0u64;
        b.iter(|| {
            slot = (slot + 8) % 512;
            let v = mem.read_u64(hot + slot).unwrap();
            black_box(mem.write_u64(hot + slot, v.wrapping_add(1)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_push,
    bench_queries,
    bench_compaction,
    bench_fabric_admit,
    bench_ptw_fetch_hot,
    bench_backing_frame_hot
);
criterion_main!(benches);
