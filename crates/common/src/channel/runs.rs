//! The flat ordered map under the occupancy and reservation timelines.
//!
//! [`SortedRuns`] keeps its entries in contiguous sorted runs of at most
//! [`RUN`] entries, plus a dense array of each run's first key. A lookup is
//! two binary searches — one over the first keys, one inside a run — over
//! memory that is laid out flat, and a forward walk is a slice scan. The
//! timelines hold a few thousand entries and touch a handful per query, so
//! this beats a pointer-chasing tree on constant factors alone. The engine
//! serves exactly what [`super::TimedQueue`] and [`super::ReservationIndex`]
//! ask of it: floor lookup, a walk from the first key above an instant,
//! in-place mutation over a key range, get-or-insert, and draining every
//! key below a watermark.

/// Longest run an insertion may leave; one entry more splits the run.
const RUN: usize = 32;

/// An ordered map stored as a vector of contiguous sorted runs.
#[derive(Clone, Debug)]
pub(super) struct SortedRuns<K, V> {
    /// Non-empty runs, each sorted by key; every key of a run is below
    /// every key of the next run.
    runs: Vec<Vec<(K, V)>>,
    /// `firsts[r]` is the smallest key of `runs[r]`.
    firsts: Vec<K>,
    /// Entries across all runs.
    len: usize,
}

impl<K, V> Default for SortedRuns<K, V> {
    fn default() -> Self {
        Self {
            runs: Vec::new(),
            firsts: Vec::new(),
            len: 0,
        }
    }
}

impl<K: Ord + Copy, V> SortedRuns<K, V> {
    /// Number of entries.
    pub(super) const fn len(&self) -> usize {
        self.len
    }

    /// Drops every entry.
    pub(super) fn clear(&mut self) {
        self.runs.clear();
        self.firsts.clear();
        self.len = 0;
    }

    /// Position `(run, offset)` of the first entry whose key fails the
    /// monotone predicate `below` (true on a prefix of the keys); every
    /// entry of `runs[..run]` and of `runs[run][..offset]` satisfies it.
    /// `(runs.len(), 0)` when every key does.
    fn seek(&self, below: impl Fn(&K) -> bool) -> (usize, usize) {
        let r = self.firsts.partition_point(&below);
        let Some(prev) = r.checked_sub(1) else {
            return (0, 0);
        };
        let run = &self.runs[prev];
        let i = run.partition_point(|(k, _)| below(k));
        if i < run.len() {
            (prev, i)
        } else {
            (r, 0)
        }
    }

    /// The entry with the greatest key at or below `key`.
    pub(super) fn floor(&self, key: K) -> Option<(K, &V)> {
        let (r, i) = self.seek(|k| *k <= key);
        let (k, v) = match i.checked_sub(1) {
            Some(i) => &self.runs[r][i],
            None => self.runs.get(r.checked_sub(1)?)?.last()?,
        };
        Some((*k, v))
    }

    /// Entries with keys above `key`, in ascending order.
    pub(super) fn iter_after(&self, key: K) -> impl Iterator<Item = (K, &V)> + '_ {
        let (r, i) = self.seek(|k| *k <= key);
        let mut runs = self.runs[r..].iter();
        let head = runs.next().map_or(&[][..], |run| &run[i..]);
        head.iter().chain(runs.flatten()).map(|(k, v)| (*k, v))
    }

    /// Entries with keys in `[from, to)`, in ascending order, mutably.
    pub(super) fn range_mut(&mut self, from: K, to: K) -> impl Iterator<Item = (K, &mut V)> + '_ {
        let (r, i) = self.seek(|k| *k < from);
        let mut runs = self.runs[r..].iter_mut();
        let head: &mut [(K, V)] = match runs.next() {
            Some(run) => &mut run[i..],
            None => &mut [],
        };
        head.iter_mut()
            .chain(runs.flatten())
            .map(|(k, v)| (*k, v))
            .take_while(move |(k, _)| *k < to)
    }

    /// The value under `key`, inserting `value()` first when absent.
    pub(super) fn get_or_insert_with(&mut self, key: K, value: impl FnOnce() -> V) -> &mut V {
        if self.runs.is_empty() {
            let mut run = Vec::with_capacity(RUN + 1);
            run.push((key, value()));
            self.runs.push(run);
            self.firsts.push(key);
            self.len = 1;
            return &mut self.runs[0][0].1;
        }
        // The last run starting at or below `key` holds it; a new smallest
        // key goes to the front of the first run.
        let r = self.firsts.partition_point(|k| *k <= key).saturating_sub(1);
        let (r, i) = match self.runs[r].binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => (r, i),
            Err(i) => self.insert_at(r, i, key, value()),
        };
        &mut self.runs[r][i].1
    }

    /// Inserts a new entry at offset `i` of run `r`, splitting the run when
    /// it outgrows [`RUN`]; returns where the entry ended up. New runs are
    /// allocated with room for `RUN + 1` entries, the most a run ever holds.
    fn insert_at(&mut self, r: usize, i: usize, key: K, value: V) -> (usize, usize) {
        let last_run = r + 1 == self.runs.len();
        let run = &mut self.runs[r];
        run.insert(i, (key, value));
        self.len += 1;
        if i == 0 {
            self.firsts[r] = key;
        }
        if run.len() <= RUN {
            return (r, i);
        }
        // An append past the last key (the time-ordered common case) keeps
        // this run full and opens a new one; any other insertion splits the
        // run in half.
        let at = if last_run && i == RUN {
            RUN
        } else {
            run.len() / 2
        };
        let mut tail = Vec::with_capacity(RUN + 1);
        tail.extend(run.drain(at..));
        self.firsts.insert(r + 1, tail[0].0);
        self.runs.insert(r + 1, tail);
        if i < at {
            (r, i)
        } else {
            (r + 1, i - at)
        }
    }

    /// Removes every entry keyed below `key`; returns how many went and the
    /// value of the greatest one removed.
    pub(super) fn drain_before(&mut self, key: K) -> (usize, Option<V>) {
        let (r, i) = self.seek(|k| *k < key);
        let mut removed = 0;
        let mut last = None;
        for mut run in self.runs.drain(..r) {
            removed += run.len();
            last = run.pop().map(|(_, v)| v);
        }
        self.firsts.drain(..r);
        if i > 0 {
            let run = &mut self.runs[0];
            last = run.drain(..i).next_back().map(|(_, v)| v);
            self.firsts[0] = run[0].0;
            removed += i;
        }
        self.len -= removed;
        (removed, last)
    }

    /// Every entry in ascending key order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.runs.iter().flatten().map(|(k, v)| (*k, v))
    }

    /// Checks the layout invariants: runs are non-empty and at most
    /// [`RUN`] long, keys ascend strictly across the whole index, every
    /// first key matches its run, and the length is the entry count.
    ///
    /// # Panics
    ///
    /// Panics when the layout is inconsistent.
    pub(super) fn debug_validate(&self) {
        assert_eq!(self.firsts.len(), self.runs.len(), "one first key per run");
        for (run, first) in self.runs.iter().zip(&self.firsts) {
            assert!(
                !run.is_empty() && run.len() <= RUN,
                "run length out of range"
            );
            assert!(run[0].0 == *first, "stale first key");
        }
        let keys: Vec<K> = self.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
        assert_eq!(keys.len(), self.len, "length diverged from the entries");
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::ops::Bound::{Excluded, Unbounded};

    use super::*;
    use crate::rng::DeterministicRng;

    /// The operations the lockstep driver compares, implemented by the
    /// specification (`BTreeMap`), the engine and a deliberately broken
    /// engine.
    trait OrderedIndex {
        fn floor(&self, key: u64) -> Option<(u64, u32)>;
        fn walk(&self, after: u64, n: usize) -> Vec<(u64, u32)>;
        /// Adds `by` to every value keyed in `[from, to)`; returns the keys.
        fn bump_range(&mut self, from: u64, to: u64, by: u32) -> Vec<u64>;
        /// Get-or-insert, then bump the value; returns the bumped value.
        fn touch(&mut self, key: u64, value: u32) -> u32;
        fn drain_before(&mut self, key: u64) -> (usize, Option<u32>);
        fn clear(&mut self);
        fn entries(&self) -> Vec<(u64, u32)>;
        fn validate(&self) {}
    }

    impl OrderedIndex for BTreeMap<u64, u32> {
        fn floor(&self, key: u64) -> Option<(u64, u32)> {
            self.range(..=key).next_back().map(|(&k, &v)| (k, v))
        }
        fn walk(&self, after: u64, n: usize) -> Vec<(u64, u32)> {
            self.range((Excluded(after), Unbounded))
                .take(n)
                .map(|(&k, &v)| (k, v))
                .collect()
        }
        fn bump_range(&mut self, from: u64, to: u64, by: u32) -> Vec<u64> {
            if from >= to {
                return Vec::new();
            }
            self.range_mut(from..to)
                .map(|(&k, v)| {
                    *v = v.wrapping_add(by);
                    k
                })
                .collect()
        }
        fn touch(&mut self, key: u64, value: u32) -> u32 {
            let v = self.entry(key).or_insert(value);
            *v = v.wrapping_add(1);
            *v
        }
        fn drain_before(&mut self, key: u64) -> (usize, Option<u32>) {
            let retained = self.split_off(&key);
            let drained = std::mem::replace(self, retained);
            (drained.len(), drained.values().next_back().copied())
        }
        fn clear(&mut self) {
            BTreeMap::clear(self);
        }
        fn entries(&self) -> Vec<(u64, u32)> {
            self.iter().map(|(&k, &v)| (k, v)).collect()
        }
    }

    impl OrderedIndex for SortedRuns<u64, u32> {
        fn floor(&self, key: u64) -> Option<(u64, u32)> {
            SortedRuns::floor(self, key).map(|(k, &v)| (k, v))
        }
        fn walk(&self, after: u64, n: usize) -> Vec<(u64, u32)> {
            self.iter_after(after)
                .take(n)
                .map(|(k, &v)| (k, v))
                .collect()
        }
        fn bump_range(&mut self, from: u64, to: u64, by: u32) -> Vec<u64> {
            self.range_mut(from, to)
                .map(|(k, v)| {
                    *v = v.wrapping_add(by);
                    k
                })
                .collect()
        }
        fn touch(&mut self, key: u64, value: u32) -> u32 {
            let v = self.get_or_insert_with(key, || value);
            *v = v.wrapping_add(1);
            *v
        }
        fn drain_before(&mut self, key: u64) -> (usize, Option<u32>) {
            SortedRuns::drain_before(self, key)
        }
        fn clear(&mut self) {
            SortedRuns::clear(self);
        }
        fn entries(&self) -> Vec<(u64, u32)> {
            self.iter().map(|(k, &v)| (k, v)).collect()
        }
        fn validate(&self) {
            self.debug_validate();
        }
    }

    /// An engine whose get-or-insert forgets to refresh a run's first key
    /// when the new entry lands at the front of the run.
    #[derive(Default)]
    struct StaleFirstKey(SortedRuns<u64, u32>);

    impl OrderedIndex for StaleFirstKey {
        fn floor(&self, key: u64) -> Option<(u64, u32)> {
            OrderedIndex::floor(&self.0, key)
        }
        fn walk(&self, after: u64, n: usize) -> Vec<(u64, u32)> {
            self.0.walk(after, n)
        }
        fn bump_range(&mut self, from: u64, to: u64, by: u32) -> Vec<u64> {
            self.0.bump_range(from, to, by)
        }
        fn touch(&mut self, key: u64, value: u32) -> u32 {
            let before = self.0.firsts.clone();
            let bumped = self.0.touch(key, value);
            if self.0.firsts.len() == before.len() {
                self.0.firsts = before;
            }
            bumped
        }
        fn drain_before(&mut self, key: u64) -> (usize, Option<u32>) {
            OrderedIndex::drain_before(&mut self.0, key)
        }
        fn clear(&mut self) {
            OrderedIndex::clear(&mut self.0);
        }
        fn entries(&self) -> Vec<(u64, u32)> {
            self.0.entries()
        }
    }

    /// Drives `index` and a `BTreeMap` through `ops` seeded random
    /// operations — floors, walks, range mutations, get-or-inserts over a
    /// key space that keeps hundreds of entries (dozens of runs) live, and
    /// occasional drains and clears — and returns the first divergence.
    fn lockstep(index: &mut dyn OrderedIndex, seed: u64, ops: usize) -> Result<(), String> {
        let mut spec = BTreeMap::new();
        let mut rng = DeterministicRng::new(seed);
        let mut lo = 0u64;
        for op in 0..ops {
            // A slowly rising key window, so drains fold history and new
            // keys keep landing below the current minimum.
            if rng.next_below(50) == 0 {
                lo += rng.next_below(400);
            }
            let key = lo + rng.next_below(2_000);
            let (got, want) = match rng.next_below(20) {
                0..=5 => {
                    let value = rng.next_below(1_000) as u32;
                    (
                        format!("{:?}", index.touch(key, value)),
                        format!("{:?}", spec.touch(key, value)),
                    )
                }
                6..=9 => (
                    format!("{:?}", index.floor(key)),
                    format!("{:?}", OrderedIndex::floor(&spec, key)),
                ),
                10..=13 => {
                    let n = rng.next_below(80) as usize;
                    (
                        format!("{:?}", index.walk(key, n)),
                        format!("{:?}", spec.walk(key, n)),
                    )
                }
                14..=17 => {
                    let to = key + rng.next_below(300);
                    let by = rng.next_below(5) as u32;
                    (
                        format!("{:?}", index.bump_range(key, to, by)),
                        format!("{:?}", spec.bump_range(key, to, by)),
                    )
                }
                18 => {
                    let w = lo + rng.next_below(400);
                    (
                        format!("{:?}", index.drain_before(w)),
                        format!("{:?}", OrderedIndex::drain_before(&mut spec, w)),
                    )
                }
                _ if rng.next_below(40) == 0 => {
                    index.clear();
                    OrderedIndex::clear(&mut spec);
                    (String::new(), String::new())
                }
                _ => (
                    format!("{:?}", index.entries()),
                    format!("{:?}", spec.entries()),
                ),
            };
            if got != want {
                return Err(format!("op #{op} (key {key}): engine {got} vs spec {want}"));
            }
            index.validate();
        }
        if index.entries() != spec.entries() {
            return Err("final contents diverged".to_string());
        }
        Ok(())
    }

    #[test]
    fn engine_matches_btreemap_on_seeded_mixed_operations() {
        for seed in 0..8 {
            let mut index = SortedRuns::default();
            lockstep(&mut index, 0x5EED_0000 + seed, 6_000)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn lockstep_catches_a_stale_first_key_after_a_front_of_run_insert() {
        let caught = (0..8)
            .filter(|seed| {
                let mut index = StaleFirstKey::default();
                lockstep(&mut index, 0x5EED_0000 + seed, 6_000).is_err()
            })
            .count();
        assert!(caught > 0, "the stale first key went unnoticed");
    }

    /// An index over the even keys `0, 2, …, 2 * (n - 1)` with value = key,
    /// twinned with its `BTreeMap` specification.
    fn filled(n: u64) -> (SortedRuns<u64, u32>, BTreeMap<u64, u32>) {
        let mut index = SortedRuns::default();
        let mut spec = BTreeMap::new();
        // Out of order, so runs split in the middle as well as at the end.
        for k in (0..n).rev().step_by(2).chain((0..n).step_by(2)) {
            index.get_or_insert_with(2 * k, || 2 * k as u32);
            spec.insert(2 * k, 2 * k as u32);
        }
        index.debug_validate();
        assert!(index.runs.len() > 4, "the fill must span several runs");
        (index, spec)
    }

    fn assert_drain_matches(w: u64, what: &str) {
        let (mut index, mut spec) = filled(400);
        let got = SortedRuns::drain_before(&mut index, w);
        let want = OrderedIndex::drain_before(&mut spec, w);
        assert_eq!(got, want, "{what}: drain_before({w})");
        index.debug_validate();
        assert_eq!(index.entries(), spec.entries(), "{what}");
        assert_eq!(index.len(), spec.len(), "{what}");
        // The drained index keeps working: a new minimum, then a floor
        // below and above it.
        index.get_or_insert_with(w, || 7);
        spec.entry(w).or_insert(7);
        for q in [w, w + 1, w + 3] {
            assert_eq!(
                OrderedIndex::floor(&index, q),
                OrderedIndex::floor(&spec, q)
            );
        }
        index.debug_validate();
    }

    #[test]
    fn drains_mid_run_on_a_run_edge_and_past_the_last_key() {
        let (index, _) = filled(400);
        let edge = index.firsts[3];
        let mid = index.runs[3][index.runs[3].len() / 2].0;
        assert_drain_matches(mid, "mid-run");
        assert_drain_matches(mid + 1, "mid-run, between keys");
        assert_drain_matches(edge, "on a run edge");
        assert_drain_matches(edge + 1, "just past a run edge");
        assert_drain_matches(0, "before the first key");
        assert_drain_matches(798, "on the last key");
        assert_drain_matches(10_000, "past the last key");
        let (mut index, _) = filled(400);
        assert_eq!(
            SortedRuns::drain_before(&mut index, 10_000),
            (400, Some(798))
        );
        assert_eq!(index.len(), 0);
        assert!(index.runs.is_empty() && index.firsts.is_empty());
    }

    #[test]
    fn appends_fill_runs_and_other_inserts_split_in_half() {
        let mut index = SortedRuns::default();
        for k in (0..2 * RUN as u64).map(|k| 2 * k) {
            index.get_or_insert_with(k, || k as u32);
        }
        let lens = |index: &SortedRuns<u64, u32>| -> Vec<usize> {
            index.runs.iter().map(Vec::len).collect()
        };
        assert_eq!(lens(&index), [RUN, RUN], "appends leave full runs");
        // A key between two keys of a full run splits it in half.
        index.get_or_insert_with(1, || 1);
        assert_eq!(lens(&index), [RUN / 2, RUN / 2 + 1, RUN]);
        index.debug_validate();
    }

    #[test]
    fn walks_and_floors_cross_run_edges() {
        let (mut index, spec) = filled(400);
        for r in 1..index.runs.len() {
            let edge = index.firsts[r];
            for q in [edge - 1, edge, edge + 1] {
                assert_eq!(
                    OrderedIndex::floor(&index, q),
                    OrderedIndex::floor(&spec, q)
                );
                assert_eq!(index.walk(q, 40), spec.walk(q, 40), "walk after {q}");
            }
        }
        // A range mutation spanning several runs touches each key once.
        let edge = index.firsts[2];
        let keys = index.bump_range(edge - 1, edge + 200, 1);
        assert_eq!(keys, (edge..edge + 200).step_by(2).collect::<Vec<_>>());
        assert_eq!(index.bump_range(5, 5, 1), Vec::<u64>::new());
    }
}
