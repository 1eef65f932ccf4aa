//! Cycle-identity property suite for the indexed PTW walk table.
//!
//! The indexed walk table (per-PTE-address issue-time-keyed window maps +
//! a boundary-delta in-flight counter) must be **bit-identical** to the
//! [`NaiveWalkTable`] reference (the original scan-twice-per-fetch flat
//! table) on every walk: identical
//! [`sva_iommu::PtwResult`]s — leaf, cycles, reads, coalesced levels —
//! identical faults, identical walker statistics. The suite drives twin
//! walkers against twin memory systems on `DeterministicRng` workloads
//! across
//!
//! * batched (MSHR sizes 1, 2, 8, 64) and serial walkers,
//! * unbounded and shallow request queues, with and without the
//!   global-clock engine (`timed_host_ptw`, the port-credit clamp),
//! * out-of-order shard times: per-shard monotone cursors interleaved
//!   exactly like the platform's sharded offload, plus exact-boundary
//!   arrivals landing on recorded completion instants,
//! * mapped and unmapped pages (the fault path), LLC on and off,
//!
//! and additionally proves the harness has teeth by catching a test-side
//! walk store whose windows are end-inclusive (a completion-window
//! off-by-one), and that watermark compaction is outcome-neutral under its
//! contract while bounding the live set.

use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, PAGE_SIZE};
use sva_iommu::{PageTableWalker, WalkStore, WalkTable};
use sva_mem::{FabricConfig, MemSysConfig, MemorySystem};
use sva_reference::NaiveWalkTable;
use sva_vm::{AddressSpace, FrameAllocator};

const PAGES: u64 = 6;

/// One timed walk request: which page (one slot past the mapped range is
/// the deliberately unmapped faulting page), when, read or write.
#[derive(Clone, Copy, Debug)]
struct WalkOp {
    page: u64,
    t: u64,
    is_write: bool,
}

/// A twin-able environment: a memory system and an address space with
/// `PAGES` mapped pages. Construction is fully deterministic, so two calls
/// with the same knobs yield bit-identical twins.
fn environment(
    llc: bool,
    req_queue_depth: usize,
    timed: bool,
) -> (MemorySystem, AddressSpace, Iova) {
    let mut mem = MemorySystem::new(MemSysConfig {
        dram_latency: Cycles::new(400),
        llc_enabled: llc,
        fabric: FabricConfig {
            req_queue_depth,
            timed_host_ptw: timed,
            ..FabricConfig::default()
        },
        ..MemSysConfig::default()
    });
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
    let va = space
        .alloc_buffer(&mut mem, &mut frames, PAGES * PAGE_SIZE)
        .unwrap();
    (mem, space, Iova::from_virt(va))
}

/// A randomized walk storm shaped like the platform's traffic: several
/// conceptually concurrent shards whose local cursors advance
/// independently (and occasionally restart at zero mid-run, so arrival
/// order is *not* simulation order), dense enough to coalesce, with a
/// sprinkle of faulting walks of the unmapped page.
fn workload(rng: &mut DeterministicRng, walks: usize) -> Vec<WalkOp> {
    let shards = 1 + rng.next_below(4) as usize;
    let mut cursors = vec![0u64; shards];
    let mut out = Vec::with_capacity(walks);
    for i in 0..walks {
        let shard = i % shards;
        if rng.next_below(40) == 0 {
            // A shard restart: its clock rewinds to zero, like a fresh
            // device window simulated after its siblings.
            cursors[shard] = 0;
        }
        cursors[shard] += rng.next_below(60);
        let page = if rng.next_below(12) == 0 {
            PAGES // one past the mapped range: every walk of it faults
        } else {
            rng.next_below(PAGES)
        };
        out.push(WalkOp {
            page,
            t: cursors[shard],
            is_write: rng.next_below(4) == 0,
        });
    }
    out
}

/// Runs one op on one walker/environment, returning a comparable outcome
/// string (leaf + cycles + reads + coalesced, or the fault).
fn step<T: WalkStore>(
    ptw: &mut PageTableWalker<T>,
    mem: &mut MemorySystem,
    space: &AddressSpace,
    base: Iova,
    op: WalkOp,
) -> String {
    match ptw.walk_at(
        mem,
        space.root(),
        base + op.page * PAGE_SIZE,
        op.is_write,
        Cycles::new(op.t),
    ) {
        Ok(res) => format!("{res:?}"),
        Err(e) => format!("fault: {e:?}"),
    }
}

/// Asserts both walkers agree on every walk and every statistic.
fn assert_identical<N: WalkStore>(
    mut indexed: PageTableWalker,
    mut naive: PageTableWalker<N>,
    llc: bool,
    req_queue_depth: usize,
    timed: bool,
    ops: &[WalkOp],
    label: &str,
) {
    let (mut mem_a, space_a, base_a) = environment(llc, req_queue_depth, timed);
    let (mut mem_b, space_b, base_b) = environment(llc, req_queue_depth, timed);
    assert_eq!(base_a, base_b, "twin environments must be bit-identical");
    for (i, &op) in ops.iter().enumerate() {
        let x = step(&mut indexed, &mut mem_a, &space_a, base_a, op);
        let y = step(&mut naive, &mut mem_b, &space_b, base_b, op);
        assert_eq!(x, y, "{label}: walk {i} diverged ({op:?})");
    }
    assert_eq!(indexed.walks(), naive.walks(), "{label}: walk counts");
    assert_eq!(indexed.faults(), naive.faults(), "{label}: fault counts");
    assert_eq!(indexed.pte_reads(), naive.pte_reads(), "{label}: PTE reads");
    assert_eq!(
        indexed.coalesced_reads(),
        naive.coalesced_reads(),
        "{label}: coalesced levels"
    );
    assert_eq!(
        indexed.walk_time(),
        naive.walk_time(),
        "{label}: walk-time statistics"
    );
    indexed.debug_validate_walk_table();
}

/// The core identity property: randomized walk storms across
/// MSHR sizes × {unbounded, shallow} queues × {untimed, timed} × LLC.
#[test]
fn indexed_walk_table_is_cycle_identical_to_the_naive_reference() {
    let mut rng = DeterministicRng::new(0x977A_B1E5);
    for round in 0..6u64 {
        let ops = workload(&mut rng, 150);
        for &mshr in &[1usize, 2, 8, 64] {
            for &req_depth in &[usize::MAX, 2, 1] {
                for &timed in &[false, true] {
                    let llc = round % 2 == 0;
                    let label = format!(
                        "round {round}, mshr={mshr}, req_depth={req_depth}, \
                         timed={timed}, llc={llc}"
                    );
                    assert_identical(
                        PageTableWalker::with_batching(mshr),
                        PageTableWalker::<NaiveWalkTable>::with_batching(mshr),
                        llc,
                        req_depth,
                        timed,
                        &ops,
                        &label,
                    );
                }
            }
        }
        // Serial twins degenerate to the same walker; pin that the harness
        // itself introduces no asymmetry.
        assert_identical::<WalkTable>(
            PageTableWalker::new(),
            PageTableWalker::new(),
            false,
            usize::MAX,
            false,
            &ops,
            &format!("round {round}, serial"),
        );
    }
}

/// Identity survives measurement-window boundaries: both walkers reset
/// their statistics (which purges the table), then a second storm whose
/// cursors restart at zero.
#[test]
fn identity_holds_across_measurement_windows() {
    let mut rng = DeterministicRng::new(0x977A_57AC);
    let mut indexed: PageTableWalker = PageTableWalker::with_batching(8);
    let mut naive = PageTableWalker::<NaiveWalkTable>::with_batching(8);
    for window in 0..3u64 {
        let ops = workload(&mut rng, 120);
        let (mut mem_a, space_a, base_a) = environment(false, usize::MAX, true);
        let (mut mem_b, space_b, base_b) = environment(false, usize::MAX, true);
        for (i, &op) in ops.iter().enumerate() {
            let x = step(&mut indexed, &mut mem_a, &space_a, base_a, op);
            let y = step(&mut naive, &mut mem_b, &space_b, base_b, op);
            assert_eq!(x, y, "window {window}, walk {i} diverged");
        }
        indexed.debug_validate_walk_table();
        indexed.reset_stats();
        naive.reset_stats();
    }
}

/// Watermark compaction is outcome-neutral under its contract and bounds
/// the live set: with a monotone clock (the no-earlier-arrival guarantee
/// the offload driver provides at device-window boundaries), periodically
/// folding dead windows changes no walk and keeps the live record count
/// far below the uncompacted twin's.
#[test]
fn compaction_is_outcome_neutral_and_bounds_the_live_set() {
    let mut rng = DeterministicRng::new(0x977A_C04A);
    let mut compacted: PageTableWalker = PageTableWalker::with_batching(8);
    let mut reference: PageTableWalker = PageTableWalker::with_batching(8);
    let (mut mem_a, space_a, base_a) = environment(false, usize::MAX, true);
    let (mut mem_b, space_b, base_b) = environment(false, usize::MAX, true);
    let mut t = 0u64;
    let mut peak = 0usize;
    for i in 0..800u64 {
        // Mostly strides long enough for earlier windows to die (latency
        // 400, three dependent reads), with occasional dense bursts so
        // live windows and coalescing still occur across fold points.
        t += if rng.next_below(4) == 0 {
            rng.next_below(30)
        } else {
            900 + rng.next_below(600)
        };
        let op = WalkOp {
            page: rng.next_below(PAGES),
            t,
            is_write: false,
        };
        let x = step(&mut compacted, &mut mem_a, &space_a, base_a, op);
        let y = step(&mut reference, &mut mem_b, &space_b, base_b, op);
        assert_eq!(x, y, "walk {i} diverged under compaction");
        if i % 64 == 63 {
            compacted.compact_walk_table_before(Cycles::new(t));
            compacted.debug_validate_walk_table();
        }
        peak = peak.max(compacted.walk_table_events());
    }
    assert_eq!(compacted.coalesced_reads(), reference.coalesced_reads());
    assert!(compacted.walk_table_compacted_events() > 0);
    assert!(
        compacted.walk_table_events_peak() <= reference.walk_table_events_peak(),
        "folding can only lower the peak"
    );
    assert!(
        peak < reference.walk_table_events() / 2,
        "live set must stay far below the uncompacted table \
         (peak {peak} vs {})",
        reference.walk_table_events()
    );
}

/// The indexed table with its probe made end-inclusive: a window whose
/// read completes exactly at `now` wrongly serves the walk.
#[derive(Clone, Debug, Default)]
struct EndInclusiveTable(WalkTable);

impl WalkStore for EndInclusiveTable {
    fn probe(&self, pte_addr: u64, now: u64) -> Option<(u64, u64)> {
        let ends_now = || self.0.probe(pte_addr, now.checked_sub(1)?);
        self.0.probe(pte_addr, now).or_else(ends_now)
    }
    fn in_flight_at(&self, now: u64) -> usize {
        self.0.in_flight_at(now)
    }
    fn hold(&mut self, pte_addr: u64, value: u64, issued: u64, complete: u64) {
        self.0.hold(pte_addr, value, issued, complete);
    }
    fn event_count(&self) -> usize {
        self.0.event_count()
    }
    fn events_peak(&self) -> usize {
        self.0.events_peak()
    }
    fn clear(&mut self) {
        self.0.clear();
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// The harness has teeth: an injected completion-window off-by-one
/// (the [`EndInclusiveTable`] store, turning `[issued, complete)` windows
/// end-inclusive) diverges from the reference
/// once a walk lands exactly on a recorded completion instant. The arrival
/// sweep guarantees one does: every instant up to the first walk's
/// completion is probed, and the root-level PTE read of every walk shares
/// one address, so its window's completion instant is hit exactly.
#[test]
fn identity_harness_catches_an_injected_completion_window_off_by_one() {
    let (mut mem_a, space_a, base_a) = environment(false, usize::MAX, false);
    let (mut mem_b, space_b, base_b) = environment(false, usize::MAX, false);
    let mut skewed = PageTableWalker::<EndInclusiveTable>::with_batching(8);
    let mut naive = PageTableWalker::<NaiveWalkTable>::with_batching(8);

    let first = skewed
        .walk_at(&mut mem_a, space_a.root(), base_a, false, Cycles::ZERO)
        .unwrap();
    let first_ref = naive
        .walk_at(&mut mem_b, space_b.root(), base_b, false, Cycles::ZERO)
        .unwrap();
    assert_eq!(format!("{first:?}"), format!("{first_ref:?}"));

    let mut caught = false;
    for t in 1..=first.cycles.raw() {
        let op = WalkOp {
            page: 0,
            t,
            is_write: false,
        };
        let x = step(&mut skewed, &mut mem_a, &space_a, base_a, op);
        let y = step(&mut naive, &mut mem_b, &space_b, base_b, op);
        if x != y {
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "the identity harness failed to catch a one-cycle completion-window skew"
    );
}
