//! Lockstep identity property suite for the direct-map backing store.
//!
//! The direct-map [`SparseMemory`] (frame table + generation-tagged memo +
//! typed single-frame fast paths) must be **observation-identical** to the
//! retained [`NaiveSparseMemory`] reference (the original per-frame hash-map
//! engine) on every operation: identical read-back bytes, identical typed
//! values, identical error outcomes and identical resident-frame accounting.
//! The suite drives both engines through `DeterministicRng` operation
//! sequences covering
//!
//! * generic reads/writes of random lengths, biased to land on and straddle
//!   frame boundaries,
//! * the typed `u64`/`f32` accessor pairs on aligned, unaligned and
//!   straddling offsets,
//! * `fill` with zero and non-zero values (the zero-fill-of-absent-frames
//!   no-op spec fix applies to both engines),
//! * periodic `clear` (generation bump on the indexed engine),
//! * out-of-bounds attempts, asserting both engines reject them,
//!
//! and proves the harness has teeth: the memo staleness window (read an
//! absent frame, materialise it, read it back) that [`SparseMemory`] must
//! pass catches a test-side store whose last-frame memo is left stale by
//! writes.

use std::cell::RefCell;

use sva_common::rng::DeterministicRng;
use sva_common::PAGE_SIZE;
use sva_mem::SparseMemory;
use sva_reference::NaiveSparseMemory;

const CAPACITY: u64 = 64 * PAGE_SIZE;

/// Picks an offset biased toward frame boundaries: a third of the draws land
/// within ±8 bytes of a frame edge so straddles and edge-exact accesses are
/// exercised constantly, not occasionally.
fn offset_near_boundary(rng: &mut DeterministicRng, max: u64) -> u64 {
    if rng.next_below(3) == 0 {
        let frame = 1 + rng.next_below(max / PAGE_SIZE - 1);
        let edge = frame * PAGE_SIZE;
        let skew = rng.next_below(17); // 0..=16
        (edge + skew).saturating_sub(8).min(max - 1)
    } else {
        rng.next_below(max)
    }
}

/// Runs one random operation against both engines and asserts every
/// observable agrees. Returns a digest contribution so the caller can prove
/// the sequence actually touched data.
fn lockstep_op(
    rng: &mut DeterministicRng,
    indexed: &mut SparseMemory,
    naive: &mut NaiveSparseMemory,
) -> u64 {
    let mut digest = 0u64;
    match rng.next_below(10) {
        // Generic write of a random chunk (1..=200 bytes, boundary-biased).
        0..=2 => {
            let offset = offset_near_boundary(rng, CAPACITY - 256);
            let len = 1 + rng.next_below(200) as usize;
            let seed = rng.next_below(u64::MAX);
            let buf: Vec<u8> = (0..len).map(|i| (seed as usize + i) as u8).collect();
            indexed.write(offset, &buf).unwrap();
            naive.write(offset, &buf).unwrap();
        }
        // Generic read + byte-for-byte compare.
        3..=4 => {
            let offset = offset_near_boundary(rng, CAPACITY - 256);
            let len = 1 + rng.next_below(200) as usize;
            let mut a = vec![0u8; len];
            let mut b = vec![0xFFu8; len];
            indexed.read(offset, &mut a).unwrap();
            naive.read(offset, &mut b).unwrap();
            assert_eq!(a, b, "read divergence at offset {offset} len {len}");
            digest = a
                .iter()
                .fold(digest, |d, &x| d.wrapping_mul(31).wrapping_add(x as u64));
        }
        // Typed u64 pair: write on one draw, read-compare on the next.
        5 => {
            let offset = offset_near_boundary(rng, CAPACITY - 8);
            if rng.next_below(2) == 0 {
                let v = rng.next_below(u64::MAX);
                assert_eq!(
                    indexed.write_u64(offset, v).unwrap(),
                    naive.write_u64(offset, v).unwrap()
                );
            } else {
                let a = indexed.read_u64(offset).unwrap();
                let b = naive.read_u64(offset).unwrap();
                assert_eq!(a, b, "u64 divergence at offset {offset}");
                digest = digest.wrapping_mul(31).wrapping_add(a);
            }
        }
        // Typed f32 pair (bit-compared: NaN payloads must survive).
        6 => {
            let offset = offset_near_boundary(rng, CAPACITY - 4);
            if rng.next_below(2) == 0 {
                let v = f32::from_bits(rng.next_below(u64::MAX) as u32);
                indexed.write_f32(offset, v).unwrap();
                naive.write_f32(offset, v).unwrap();
            } else {
                let a = indexed.read_f32(offset).unwrap().to_bits();
                let b = naive.read_f32(offset).unwrap().to_bits();
                assert_eq!(a, b, "f32 divergence at offset {offset}");
                digest = digest.wrapping_mul(31).wrapping_add(a as u64);
            }
        }
        // Fill — zero half the time, so the absent-frame no-op spec fix is
        // continuously cross-checked against the resident accounting below.
        7 => {
            let offset = offset_near_boundary(rng, CAPACITY - 3 * PAGE_SIZE - 1);
            let len = 1 + rng.next_below(3 * PAGE_SIZE);
            let value = if rng.next_below(2) == 0 {
                0
            } else {
                rng.next_below(256) as u8
            };
            indexed.fill(offset, len, value).unwrap();
            naive.fill(offset, len, value).unwrap();
        }
        // Out-of-bounds attempts: both engines must reject, neither may
        // mutate (resident accounting is compared after every op).
        8 => {
            let offset = CAPACITY - rng.next_below(16);
            let len = 32usize;
            let mut buf = vec![0u8; len];
            assert!(indexed.read(offset, &mut buf).is_err());
            assert!(naive.read(offset, &mut buf).is_err());
            assert!(indexed.write(offset, &buf).is_err());
            assert!(naive.write(offset, &buf).is_err());
            assert!(indexed.read_u64(CAPACITY - 4).is_err());
            assert!(naive.read_u64(CAPACITY - 4).is_err());
        }
        // Rare clear: resets contents and bumps the indexed generation, so
        // stale-memo coverage spans clears.
        _ => {
            if rng.next_below(8) == 0 {
                indexed.clear();
                naive.clear();
            }
        }
    }
    assert_eq!(
        indexed.resident_frames(),
        naive.resident_frames(),
        "resident_frames divergence"
    );
    assert_eq!(
        indexed.resident_bytes(),
        naive.resident_bytes(),
        "resident_bytes divergence"
    );
    indexed.debug_validate();
    digest
}

/// Drives `ops` lockstep operations from `seed`; returns the read digest.
fn run_lockstep(seed: u64, ops: usize) -> u64 {
    let mut rng = DeterministicRng::new(seed);
    let mut indexed = SparseMemory::new(CAPACITY);
    let mut naive = NaiveSparseMemory::new(CAPACITY);
    let mut digest = 0u64;
    for _ in 0..ops {
        digest = digest.wrapping_add(lockstep_op(&mut rng, &mut indexed, &mut naive));
    }
    // Final sweep: the *entire* store must agree byte-for-byte, including
    // frames only one engine might have materialized.
    let mut a = vec![0u8; PAGE_SIZE as usize];
    let mut b = vec![0u8; PAGE_SIZE as usize];
    for frame in 0..CAPACITY / PAGE_SIZE {
        indexed.read(frame * PAGE_SIZE, &mut a).unwrap();
        naive.read(frame * PAGE_SIZE, &mut b).unwrap();
        assert_eq!(a, b, "final sweep divergence in frame {frame}");
    }
    indexed.debug_validate();
    digest
}

#[test]
fn direct_map_store_is_identical_to_naive_reference() {
    let mut total = 0u64;
    for seed in [11, 23, 47, 8191] {
        total = total.wrapping_add(run_lockstep(seed, 4000));
    }
    // The digest must be non-zero: a sequence that never read data back
    // would vacuously pass, so prove the suite actually observed contents.
    assert_ne!(total, 0, "lockstep sequences never observed any data");
}

/// The typed accessors the staleness-window driver exercises.
trait TypedStore {
    fn read_u64(&self, offset: u64) -> u64;
    fn write_u64(&mut self, offset: u64, value: u64);
}

impl TypedStore for SparseMemory {
    fn read_u64(&self, offset: u64) -> u64 {
        SparseMemory::read_u64(self, offset).unwrap()
    }
    fn write_u64(&mut self, offset: u64, value: u64) {
        SparseMemory::write_u64(self, offset, value).unwrap();
    }
}

/// The hash-map store behind a last-frame memo that writes never refresh:
/// a read caches its frame's bytes, and a later write to that frame leaves
/// the cached copy in place, so the read-back serves the old bytes.
struct StaleMemoStore {
    inner: NaiveSparseMemory,
    memo: RefCell<Option<(u64, Vec<u8>)>>,
}

impl TypedStore for StaleMemoStore {
    fn read_u64(&self, offset: u64) -> u64 {
        let frame = offset / PAGE_SIZE;
        let mut memo = self.memo.borrow_mut();
        if memo.as_ref().is_none_or(|(f, _)| *f != frame) {
            let mut bytes = vec![0u8; PAGE_SIZE as usize];
            self.inner.read(frame * PAGE_SIZE, &mut bytes).unwrap();
            *memo = Some((frame, bytes));
        }
        let at = (offset % PAGE_SIZE) as usize;
        let bytes = &memo.as_ref().unwrap().1[at..at + 8];
        u64::from_le_bytes(bytes.try_into().unwrap())
    }
    fn write_u64(&mut self, offset: u64, value: u64) {
        self.inner.write_u64(offset, value).unwrap();
    }
}

/// Drives the memo staleness window on every frame against the reference:
/// observe the absent frame (both read zero), materialise it with a
/// nonzero value, read it back. A memo a write fails to refresh serves
/// the stale zeros.
fn assert_staleness_window_matches(store: &mut impl TypedStore) {
    let mut naive = NaiveSparseMemory::new(CAPACITY);
    for frame in 0..CAPACITY / PAGE_SIZE {
        let offset = frame * PAGE_SIZE + 8;
        assert_eq!(store.read_u64(offset), naive.read_u64(offset).unwrap());
        store.write_u64(offset, 0xDEAD_BEEF_0000 + frame);
        naive.write_u64(offset, 0xDEAD_BEEF_0000 + frame).unwrap();
        assert_eq!(
            store.read_u64(offset),
            naive.read_u64(offset).unwrap(),
            "stale-memo divergence in frame {frame}"
        );
    }
}

#[test]
fn direct_map_store_refreshes_its_memo_on_materialising_writes() {
    assert_staleness_window_matches(&mut SparseMemory::new(CAPACITY));
}

#[test]
fn lockstep_catches_injected_stale_memo() {
    // Teeth: the driver that passes on the direct-map store must fail on a
    // memo that goes stale on writes. The direct-map memo cannot (frames
    // only vanish via `clear`, which bumps the generation, and the write
    // that materialises a frame refreshes an "absent" memo).
    let caught = std::panic::catch_unwind(|| {
        let mut mutant = StaleMemoStore {
            inner: NaiveSparseMemory::new(CAPACITY),
            memo: RefCell::new(None),
        };
        assert_staleness_window_matches(&mut mutant);
    })
    .is_err();
    assert!(
        caught,
        "lockstep suite failed to catch the injected stale-memo bug"
    );
}
