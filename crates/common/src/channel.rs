//! Bounded request/response channels and issue credits.
//!
//! The memory fabric of this simulator is call-driven: initiators present
//! accesses stamped with arrival times on the global clock rather than being
//! stepped cycle by cycle. A hardware FIFO therefore cannot be modelled as a
//! mutable ring buffer — entries are recorded in *simulation* order, which is
//! not time order (the shards of a multi-cluster offload all restart their
//! cursor at zero). [`TimedQueue`] models a bounded queue as an **occupancy
//! timeline** instead: every entry occupies the interval `[enter, exit)` on
//! the shared virtual timeline, the queue is *full at time `t`* when `depth`
//! entries cover `t`, and admission of a new entry arriving at `t` is delayed
//! to the earliest instant at which occupancy drops below the depth. The
//! delay is exactly the stall a master-side handshake would observe when the
//! channel FIFO is full.
//!
//! # The event-indexed engine
//!
//! Early revisions stored the raw interval list and answered every query with
//! a full linear scan — O(entries) per push and O(n²) per measurement window,
//! which became the simulator's bottleneck at serving scale. The engine is
//! now an **event-indexed occupancy timeline**: a `BTreeMap<u64, Boundary>`
//! of boundary events (`+1` delta at an interval's enter, `−1` at its exit)
//! that eagerly maintains the **running prefix** of those deltas — each
//! boundary stores the occupancy level holding on `[boundary, next
//! boundary)`. Queries become O(log n) range walks from the query point:
//!
//! * [`TimedQueue::occupancy_at`] is one floor lookup;
//! * [`TimedQueue::admit_at`] is at most one descent: an arrival at or past
//!   the latest exit answers without touching the index, anything earlier
//!   walks boundaries forward from the arrival until the level drops below
//!   the depth (occupancy only changes at a boundary, so the admission
//!   point is the arrival itself or a boundary), reading the level at the
//!   arrival off the first boundary after it;
//! * [`TimedQueue::record_at`] splices an admitted interval in with one walk
//!   over the boundaries it covers plus at most two endpoint probes (the
//!   exit boundary, and the enter boundary when it is new) — O(log n +
//!   overlap), where the overlap is bounded by the queue's depth for
//!   bounded queues rather than by history length. [`TimedQueue::push`] is
//!   the two halves back to back.
//!
//! **Watermark compaction** ([`TimedQueue::compact_before`]) keeps memory
//! bounded inside a measurement window: when the caller can guarantee no
//! future arrival or query before an instant `w` (a monotone open-loop
//! arrival process), every boundary before `w` collapses into a single
//! base-occupancy constant. The cycle-exact linear-scan model lives in the
//! dev-only `sva_reference` crate — the reference the property suite and
//! the `simspeed` perf gate run the indexed engine against.
//!
//! [`ReservationIndex`] is the sibling engine for the fabric's
//! **bus-reservation timelines**: overlapping, payload-carrying intervals
//! that the placement loop probes for conflicts. It keys reservations by
//! their *end* so finished history is invisible to the probe, and carries
//! the same watermark-compaction discipline (see its type docs).
//!
//! [`CreditPort`] is the initiator-facing handle: a cheap, cloneable
//! reference onto one shared [`TimedQueue`]. An initiator (or the fabric
//! acting on its behalf) must **acquire** a credit for every request it
//! issues — [`CreditPort::acquire`] returns the grant time (arrival plus any
//! full-queue stall) and records the entry; the credit is implicitly
//! released at the entry's exit time. A caller that has already queried
//! the admission point ([`CreditPort::admit_at`]) records the credit there
//! with [`CreditPort::record_at`] instead of paying for the query twice.
//! Because clones share the queue, handing a port to an initiator and
//! keeping one inside the fabric gives both the same view of the channel's
//! backlog. Cloning a *simulation*
//! (a whole platform) must therefore deep-copy the underlying queues —
//! see `sva_mem::fabric`'s manual `Clone` — or two independent runs would
//! consume each other's credits.
//!
//! [`QueueDepths`] is the configuration vocabulary: a request-queue and a
//! response-queue depth, where [`QueueDepths::UNBOUNDED`] (`usize::MAX`)
//! reproduces the pure reservation model cycle-for-cycle (nothing ever
//! stalls, and the queue machinery is skipped entirely).

use core::cell::RefCell;
use core::fmt;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};
use std::rc::Rc;

use crate::cycles::Cycles;

/// Depth configuration of one channel's request and response queues.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QueueDepths {
    /// Request-queue depth (slots a grant occupies from admission until the
    /// bus starts serving it). `usize::MAX` means unbounded.
    pub req: usize,
    /// Response-queue depth (slots a completion occupies from its bus grant
    /// until the initiator retires it). `usize::MAX` means unbounded.
    pub rsp: usize,
}

impl QueueDepths {
    /// Unbounded queues: the pure reservation model, cycle-identical to the
    /// pre-split-transaction fabric.
    pub const UNBOUNDED: QueueDepths = QueueDepths {
        req: usize::MAX,
        rsp: usize::MAX,
    };

    /// Finite depths for both queues (clamped to at least one slot each).
    pub const fn bounded(req: usize, rsp: usize) -> QueueDepths {
        QueueDepths {
            req: if req == 0 { 1 } else { req },
            rsp: if rsp == 0 { 1 } else { rsp },
        }
    }

    /// Whether both queues are unbounded (the default).
    pub const fn is_unbounded(&self) -> bool {
        self.req == usize::MAX && self.rsp == usize::MAX
    }

    /// Stable label for tables and JSON output (`inf` or `req/rsp`).
    pub fn label(&self) -> String {
        if self.is_unbounded() {
            "inf".to_string()
        } else {
            let part = |d: usize| {
                if d == usize::MAX {
                    "inf".to_string()
                } else {
                    d.to_string()
                }
            };
            format!("{}/{}", part(self.req), part(self.rsp))
        }
    }
}

impl Default for QueueDepths {
    fn default() -> Self {
        Self::UNBOUNDED
    }
}

impl fmt::Display for QueueDepths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One boundary event of the indexed occupancy timeline.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct Boundary {
    /// Net interval enters minus exits at exactly this instant (the raw
    /// delta of the event index; kept so the maintained prefix below is
    /// checkable — see [`TimedQueue::debug_validate`]).
    delta: i64,
    /// The maintained running prefix: occupancy holding on
    /// `[this boundary, next boundary)`.
    occ: u32,
}

/// A bounded queue modelled as an event-indexed occupancy timeline.
///
/// Entries may be recorded in any order of `enter` times (simulation order is
/// not time order); occupancy at an instant is the number of recorded
/// intervals covering it. Admission of an arrival at `t` is the earliest
/// `a >= t` at which occupancy is below the configured depth. With
/// `depth == usize::MAX` admission is always immediate and no entries are
/// recorded, so the unbounded queue costs nothing.
///
/// See the module documentation for the engine: boundary deltas with an
/// eagerly maintained running prefix in a `BTreeMap`, plus watermark
/// compaction ([`TimedQueue::compact_before`]).
#[derive(Clone, Debug, Default)]
pub struct TimedQueue {
    depth: usize,
    /// Whether intervals are recorded at all. Bounded queues always record
    /// (admission needs the history); unbounded queues default to not
    /// recording — they can never stall, so the bookkeeping would be pure
    /// overhead — unless built with [`TimedQueue::unbounded_recording`]
    /// (an observable in-flight window like the PTW's or the PRI's).
    record: bool,
    /// The event index: boundary instant → (delta, occupancy level on the
    /// half-open span up to the next boundary).
    timeline: BTreeMap<u64, Boundary>,
    /// Occupancy holding below the earliest retained boundary: 0 until
    /// compaction folds finished history into it.
    base: u32,
    /// Everything before this instant has been compacted away; the caller
    /// guaranteed no arrival or query below it. Queries below the watermark
    /// are clamped to it (they read the folded base constant).
    watermark: u64,
    /// Latest exit among the recorded entries: queries at or past it cannot
    /// be covered by anything, which keeps the common "arrival beyond the
    /// backlog" case O(1) (arrivals are not monotone, so unsolicited pruning
    /// by time is impossible — compaction needs the caller's watermark).
    max_exit: u64,
    /// Boundary events folded away by watermark compaction.
    compacted_events: u64,
    /// Highest occupancy observed at any admission (including the admitted
    /// entry itself). Tracked for every recording queue.
    peak: usize,
    /// Total admission delay accumulated across all pushes.
    stall_cycles: u64,
    /// Entries admitted.
    admissions: u64,
}

impl TimedQueue {
    /// Creates a queue of the given depth (0 is clamped to 1;
    /// `usize::MAX` means unbounded).
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            record: depth != usize::MAX,
            ..Self::default()
        }
    }

    /// An unbounded queue that still records every interval, so in-flight
    /// occupancy is observable ([`TimedQueue::occupancy_at`]) even though
    /// nothing can ever stall. Pushes, occupancy queries and the peak
    /// statistic all ride the same O(log n) index as bounded queues.
    pub fn unbounded_recording() -> Self {
        Self {
            depth: usize::MAX,
            record: true,
            ..Self::default()
        }
    }

    /// The configured depth.
    pub const fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the queue is unbounded (depth `usize::MAX`).
    pub const fn is_unbounded(&self) -> bool {
        self.depth == usize::MAX
    }

    /// Number of recorded intervals covering `t`: one floor lookup in the
    /// event index.
    ///
    /// Queries below the compaction watermark read the folded base constant
    /// (the caller promised not to ask about compacted history).
    pub fn occupancy_at(&self, t: u64) -> usize {
        if !self.record {
            return 0;
        }
        let t = t.max(self.watermark);
        let level = self.timeline.range(..=t).next_back();
        level.map_or(self.base, |(_, b)| b.occ) as usize
    }

    /// The combined covering query: the earliest instant at or after `t` at
    /// which a new entry can be admitted **and** the occupancy already
    /// holding at that instant.
    ///
    /// Costs at most one descent of the event index. At or past the latest
    /// exit every interval has closed, so the answer is `(t, 0)` without a
    /// lookup. Otherwise one forward range walk starts at the first boundary
    /// after `t`: that boundary directly follows the one holding at `t`, so
    /// the level at `t` is its level minus its delta. When that level is
    /// full, the walk continues to the first boundary whose level is below
    /// the depth (occupancy only changes at a boundary).
    pub fn admit_at(&self, t: u64) -> (u64, usize) {
        let t = t.max(self.watermark);
        if t >= self.max_exit {
            return (t, 0);
        }
        let mut after = self.timeline.range((Excluded(t), Unbounded)).peekable();
        // `t < max_exit` and `max_exit` is a retained boundary (it is past
        // the watermark), so a boundary after `t` always exists.
        let level = after
            .peek()
            .map_or(self.base, |(_, b)| (i64::from(b.occ) - b.delta) as u32);
        if (level as usize) < self.depth {
            return (t, level as usize);
        }
        for (&at, b) in after {
            if (b.occ as usize) < self.depth {
                return (at, b.occ as usize);
            }
        }
        // Unreachable: every recorded interval is closed, so the trailing
        // boundary's level is 0 < depth.
        debug_assert!(false, "occupancy never dropped below the depth");
        (self.max_exit, 0)
    }

    /// Earliest instant at or after `t` at which a new entry can be
    /// admitted (occupancy below the depth). Pure query — nothing is
    /// recorded.
    pub fn admission_at(&self, t: u64) -> u64 {
        self.admit_at(t).0
    }

    /// Splices `[enter, exit)` into the index, given `level`, the occupancy
    /// holding at `enter` before the splice (as [`TimedQueue::admit_at`]
    /// returned it). O(log n + boundaries covered).
    fn insert(&mut self, enter: u64, exit: u64, level: u32) {
        debug_assert!(enter < exit, "intervals occupy at least one cycle");
        debug_assert!(enter >= self.watermark, "insert below the watermark");
        let mut enter_exists = false;
        let mut before_exit = level;
        for (&k, b) in self.timeline.range_mut(enter..exit) {
            if k == enter {
                enter_exists = true;
                b.delta += 1;
            }
            before_exit = b.occ;
            b.occ += 1;
        }
        if !enter_exists {
            self.timeline.insert(
                enter,
                Boundary {
                    delta: 1,
                    occ: level + 1,
                },
            );
        }
        // The interval does not cover `exit`: a new boundary there keeps the
        // pre-splice level that held just before it.
        self.timeline
            .entry(exit)
            .or_insert(Boundary {
                delta: 0,
                occ: before_exit,
            })
            .delta -= 1;
        self.max_exit = self.max_exit.max(exit);
    }

    /// Records an entry admitted at `admitted` that holds its slot until
    /// `exit` (clamped to occupy at least one cycle past admission) — the
    /// bookkeeping half of [`TimedQueue::push`]. Returns the occupancy
    /// including the new entry.
    ///
    /// `(admitted, level)` must be exactly what [`TimedQueue::admit_at`]
    /// returned, and the queue must not have changed since that query: the
    /// splice trusts `level` as the occupancy holding at `admitted`. Costs
    /// one walk of the boundaries the entry covers and at most two endpoint
    /// probes.
    pub fn record_at(&mut self, admitted: u64, level: usize, exit: u64) -> usize {
        self.admissions += 1;
        if !self.record {
            // Nothing can ever stall and nobody queries occupancy of a
            // non-recording unbounded queue: skip the bookkeeping entirely
            // so the default configuration costs nothing.
            return 0;
        }
        let exit = exit.max(admitted + 1);
        self.insert(admitted, exit, level as u32);
        let occupancy = level + 1;
        self.peak = self.peak.max(occupancy);
        occupancy
    }

    /// Admits an entry arriving at `enter` that holds its slot until `exit`
    /// (clamped to occupy at least one cycle past admission). Returns the
    /// admission time and the occupancy including the new entry.
    ///
    /// [`TimedQueue::admit_at`] followed by [`TimedQueue::record_at`].
    pub fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let (admitted, level) = self.admit_at(enter);
        self.stall_cycles += admitted - enter;
        (admitted, self.record_at(admitted, level, exit))
    }

    /// Folds every boundary event before `w` into the base-occupancy
    /// constant, bounding the index's memory inside a measurement window.
    ///
    /// The caller guarantees no future push **or** query concerns an
    /// instant before `w` — the "earliest possible future arrival" of a
    /// monotone (open-loop) arrival process. Queries below the watermark
    /// are clamped to it and read the folded constant; statistics are
    /// untouched. A no-op for non-recording queues and watermarks that do
    /// not advance.
    pub fn compact_before(&mut self, w: u64) {
        if !self.record || w <= self.watermark {
            return;
        }
        // `split_off` keeps [w, ..) and hands back the compacted prefix.
        let retained = self.timeline.split_off(&w);
        let folded = std::mem::replace(&mut self.timeline, retained);
        if let Some((_, b)) = folded.iter().next_back() {
            self.base = b.occ;
        }
        self.compacted_events += folded.len() as u64;
        self.watermark = w;
    }

    /// Boundary events currently held by the index (2 per recorded entry
    /// minus shared/compacted boundaries) — the memory-bound observable the
    /// compaction tests and the perf gate watch.
    pub fn event_count(&self) -> usize {
        self.timeline.len()
    }

    /// Boundary events folded away by [`TimedQueue::compact_before`].
    pub const fn compacted_events(&self) -> u64 {
        self.compacted_events
    }

    /// The compaction watermark (0 until the first compaction).
    pub const fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Checks the running-prefix invariant of the event index: every
    /// boundary's level equals its predecessor's level (or the folded base)
    /// plus its delta, and the trailing level is zero (every interval is
    /// closed). The property suite runs this after randomized batches.
    ///
    /// # Panics
    ///
    /// Panics when the index is inconsistent.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let mut level = i64::from(self.base);
        let mut last = 0u32;
        for (k, b) in &self.timeline {
            level += b.delta;
            assert!(level >= 0, "negative occupancy at boundary {k}");
            assert_eq!(
                i64::from(b.occ),
                level,
                "running prefix diverged from the deltas at boundary {k}"
            );
            last = b.occ;
        }
        assert_eq!(last, 0, "trailing occupancy must be zero");
    }

    /// Highest occupancy observed at any admission (0 for non-recording
    /// unbounded queues, whose occupancy is never tracked).
    pub const fn peak(&self) -> usize {
        self.peak
    }

    /// Total admission delay accumulated across all pushes.
    pub const fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Entries admitted so far.
    pub const fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Drops every recorded interval (a new measurement window opens; the
    /// peak/stall statistics survive, like every other fabric statistic).
    pub fn clear_entries(&mut self) {
        self.timeline.clear();
        self.base = 0;
        self.watermark = 0;
        self.max_exit = 0;
    }

    /// Clears entries *and* statistics.
    pub fn reset(&mut self) {
        self.clear_entries();
        self.compacted_events = 0;
        self.peak = 0;
        self.stall_cycles = 0;
        self.admissions = 0;
    }
}

/// An end-indexed interval timeline for bus-reservation conflict probes.
///
/// The memory fabric places every grant as an interval `[start, start +
/// occupancy)` on its channel's virtual timeline; a candidate placement
/// `[placed, placed + span)` conflicts with an existing reservation
/// `[start, end)` exactly when `start < placed + span && end > placed`
/// (plus an arbitration-policy predicate over the reservation's owner and
/// priority, which the caller supplies). Reservations overlap freely —
/// priority winners and weighted bypasses land on top of the traffic they
/// outrank — and carry per-entry payloads, so the boundary-delta engine of
/// [`TimedQueue`] does not fit; instead the index keys every reservation by
/// its **end**: `(end, insertion seq) → (start, owner, priority)`.
///
/// Keying by end makes finished history invisible to the hot query: a
/// reservation with `end <= placed` can never conflict with a placement at
/// or after `placed`, and the ordered probe never visits it. Only ends in
/// `(placed, placed + span + max_len)` are walked — an entry whose end lies
/// at or beyond that bound starts at or after `placed + span` (no single
/// reservation is longer than `max_len`) and cannot overlap either. The
/// probe therefore costs O(log n + live backlog) instead of the
/// O(window density) start-keyed scan it replaces, where the former scan's
/// window covered `max_len` cycles of mostly-finished history.
///
/// **Watermark compaction** ([`ReservationIndex::compact_before`]) mirrors
/// the [`TimedQueue::compact_before`] contract: when the caller guarantees
/// no future placement probe or insertion concerns an instant before `w`,
/// every reservation ending at or before `w` is dropped outright — unlike
/// the occupancy timeline there is no base constant to fold into, because a
/// wholly-past reservation can never conflict again. Entries straddling the
/// watermark (`start < w < end`) survive untouched.
#[derive(Clone, Debug, Default)]
pub struct ReservationIndex {
    /// The end-keyed interval map: `(end, seq)` → `(start, owner, prio)`.
    /// The insertion sequence disambiguates equal ends and starts at 1.
    by_end: BTreeMap<(u64, u64), (u64, usize, u8)>,
    /// Longest single reservation seen since the last clear, bounding how
    /// far beyond a placement window a conflicting end can lie.
    max_len: u64,
    /// Monotonic insertion counter.
    seq: u64,
    /// Everything ending at or before this instant has been compacted away;
    /// the caller guaranteed no placement or insertion below it.
    watermark: u64,
    /// Reservations dropped by watermark compaction.
    compacted_events: u64,
}

impl ReservationIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the reservation `[start, end)` owned by `owner` at request
    /// priority `prio`. Intervals occupy at least one cycle.
    pub fn insert(&mut self, start: u64, end: u64, owner: usize, prio: u8) {
        debug_assert!(end > start, "reservations occupy at least one cycle");
        debug_assert!(start >= self.watermark, "insert below the watermark");
        self.seq += 1;
        self.by_end.insert((end, self.seq), (start, owner, prio));
        self.max_len = self.max_len.max(end - start);
    }

    /// The latest end among reservations that overlap the candidate
    /// placement `[placed, placed + span)` **and** satisfy the caller's
    /// arbitration predicate `queues_behind(owner, prio)`; `None` when the
    /// placement is conflict-free.
    ///
    /// Jumping a blocked placement to this end is a sound joint step: every
    /// conflicting reservation overlaps *all* candidate instants in
    /// `[placed, its end)` (its start is below `placed + span`, hence below
    /// every later candidate's window too), so no conflict-free instant
    /// exists before the latest conflicting end. Iterating placement from
    /// this jump reaches the same fixpoint — the earliest conflict-free
    /// instant — as the one-conflict-at-a-time retry it replaces, which is
    /// what keeps the indexed engine cycle-identical to the linear scan.
    pub fn max_conflicting_end(
        &self,
        placed: u64,
        span: u64,
        mut queues_behind: impl FnMut(usize, u8) -> bool,
    ) -> Option<u64> {
        let window_end = placed
            .checked_add(span)
            .and_then(|x| x.checked_add(self.max_len));
        let upper = match window_end {
            Some(hi) => Excluded((hi, 0)),
            None => Unbounded,
        };
        let mut latest = None;
        for (&(end, _), &(start, owner, prio)) in
            self.by_end.range((Excluded((placed, u64::MAX)), upper))
        {
            if start < placed.saturating_add(span) && queues_behind(owner, prio) {
                // The range iterates ends in ascending order, so the last
                // match is the latest conflicting end.
                latest = Some(end);
            }
        }
        latest
    }

    /// Drops every reservation ending at or before `w`.
    ///
    /// The caller guarantees no future insertion or placement probe
    /// concerns an instant before `w` — the "earliest possible future
    /// arrival" of the window (all placements start at or after their
    /// arrival, so a reservation wholly before `w` can never conflict
    /// again). Statistics are untouched; regressing watermarks are ignored.
    pub fn compact_before(&mut self, w: u64) {
        if w <= self.watermark {
            return;
        }
        // `split_off` keeps ends strictly greater than `w` (sequence
        // numbers start at 1, so `(w + 1, 0)` sorts before every real key
        // with that end) and hands back the compacted prefix.
        let retained = self.by_end.split_off(&(w + 1, 0));
        let folded = std::mem::replace(&mut self.by_end, retained);
        self.compacted_events += folded.len() as u64;
        self.watermark = w;
    }

    /// Reservations currently held by the index — the memory-bound
    /// observable the compaction tests and the perf gate watch.
    pub fn event_count(&self) -> usize {
        self.by_end.len()
    }

    /// Reservations dropped by [`ReservationIndex::compact_before`].
    pub const fn compacted_events(&self) -> u64 {
        self.compacted_events
    }

    /// The compaction watermark (0 until the first compaction).
    pub const fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Longest single reservation seen since the last clear.
    pub const fn max_reservation_len(&self) -> u64 {
        self.max_len
    }

    /// Checks the index invariants: every retained reservation occupies at
    /// least one cycle, is no longer than the tracked maximum, and ends
    /// past the watermark.
    ///
    /// # Panics
    ///
    /// Panics when the index is inconsistent.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        for (&(end, seq), &(start, _, _)) in &self.by_end {
            assert!(end > start, "empty reservation at seq {seq}");
            assert!(end - start <= self.max_len, "max_len undercounts {seq}");
            assert!(end > self.watermark, "compacted entry survived: {seq}");
        }
    }

    /// Drops every reservation and resets the watermark/max-length state (a
    /// new measurement window opens; the compaction statistic survives,
    /// like every other fabric statistic).
    pub fn clear(&mut self) {
        self.by_end.clear();
        self.max_len = 0;
        self.seq = 0;
        self.watermark = 0;
    }

    /// Clears reservations *and* statistics.
    pub fn reset(&mut self) {
        self.clear();
        self.compacted_events = 0;
    }
}

/// A cloneable credit handle onto a shared [`TimedQueue`].
///
/// Clones share the queue: credits acquired through one handle are visible
/// through every other, which is what lets the fabric keep a port per
/// channel while handing the same port to the initiators that issue into it.
#[derive(Clone, Debug)]
pub struct CreditPort {
    queue: Rc<RefCell<TimedQueue>>,
}

impl CreditPort {
    /// Creates a port over a fresh queue of the given depth.
    pub fn new(depth: usize) -> Self {
        Self {
            queue: Rc::new(RefCell::new(TimedQueue::new(depth))),
        }
    }

    /// The configured depth of the underlying queue.
    pub fn depth(&self) -> usize {
        self.queue.borrow().depth()
    }

    /// Earliest instant at or after `t` at which a credit is available
    /// (pure query; the credit is not consumed).
    pub fn admission_at(&self, t: Cycles) -> Cycles {
        Cycles::new(self.queue.borrow().admission_at(t.raw()))
    }

    /// The earliest instant at or after `t` at which a credit is available
    /// and the number of credits in use there (see
    /// [`TimedQueue::admit_at`]). Pure query; pass the answer to
    /// [`CreditPort::record_at`] to consume the credit.
    pub fn admit_at(&self, t: Cycles) -> (Cycles, usize) {
        let (admitted, level) = self.queue.borrow().admit_at(t.raw());
        (Cycles::new(admitted), level)
    }

    /// Consumes a credit at the admission point `(admitted, level)` that
    /// [`CreditPort::admit_at`] returned, held until `exit`. No handle may
    /// touch the queue between the two calls (see
    /// [`TimedQueue::record_at`]). Returns the occupancy including the new
    /// entry.
    pub fn record_at(&self, admitted: Cycles, level: usize, exit: Cycles) -> usize {
        self.queue
            .borrow_mut()
            .record_at(admitted.raw(), level, exit.raw())
    }

    /// Acquires a credit for an entry arriving at `enter` and held until
    /// `exit` (when the credit returns to the pool). Returns the grant time
    /// — `enter` plus any full-queue stall — and the queue occupancy
    /// including the new entry.
    pub fn acquire(&self, enter: Cycles, exit: Cycles) -> (Cycles, usize) {
        let (granted, occupancy) = self.queue.borrow_mut().push(enter.raw(), exit.raw());
        (Cycles::new(granted), occupancy)
    }

    /// Number of credits in use at `t`.
    pub fn in_use_at(&self, t: Cycles) -> usize {
        self.queue.borrow().occupancy_at(t.raw())
    }

    /// Highest occupancy observed at any acquisition.
    pub fn peak(&self) -> usize {
        self.queue.borrow().peak()
    }

    /// Total full-queue stall accumulated across acquisitions.
    pub fn stall_cycles(&self) -> u64 {
        self.queue.borrow().stall_cycles()
    }

    /// Whether `other` is a handle onto the same underlying queue.
    pub fn shares_queue_with(&self, other: &CreditPort) -> bool {
        Rc::ptr_eq(&self.queue, &other.queue)
    }

    /// A port over an independent deep copy of the queue state (used when a
    /// whole simulation is cloned: the copy must not consume the original's
    /// credits).
    pub fn deep_clone(&self) -> CreditPort {
        CreditPort {
            queue: Rc::new(RefCell::new(self.queue.borrow().clone())),
        }
    }

    /// Folds history before `w` into the queue's base constant (see
    /// [`TimedQueue::compact_before`]; the caller guarantees no future
    /// acquisition or query before `w`).
    pub fn compact_before(&self, w: Cycles) {
        self.queue.borrow_mut().compact_before(w.raw());
    }

    /// Boundary events currently held by the underlying index.
    pub fn event_count(&self) -> usize {
        self.queue.borrow().event_count()
    }

    /// Drops every in-flight credit record (a new measurement window opens);
    /// statistics survive.
    pub fn clear_entries(&self) {
        self.queue.borrow_mut().clear_entries();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_labels_and_clamps() {
        assert!(QueueDepths::default().is_unbounded());
        assert_eq!(QueueDepths::UNBOUNDED.label(), "inf");
        let d = QueueDepths::bounded(4, 8);
        assert_eq!(d.label(), "4/8");
        assert_eq!(d.to_string(), "4/8");
        assert!(!d.is_unbounded());
        let clamped = QueueDepths::bounded(0, 0);
        assert_eq!((clamped.req, clamped.rsp), (1, 1));
    }

    #[test]
    fn unbounded_queue_never_stalls_and_records_nothing() {
        let mut q = TimedQueue::new(usize::MAX);
        assert!(q.is_unbounded());
        for i in 0..100u64 {
            let (admitted, occ) = q.push(i, i + 1000);
            assert_eq!(admitted, i);
            assert_eq!(occ, 0);
        }
        assert_eq!(q.stall_cycles(), 0);
        assert_eq!(q.peak(), 0);
        assert_eq!(q.admissions(), 100);
        assert_eq!(q.admission_at(50), 50);
        assert_eq!(q.event_count(), 0, "non-recording queues index nothing");
    }

    #[test]
    fn full_queue_delays_admission_to_the_earliest_exit() {
        let mut q = TimedQueue::new(2);
        q.push(0, 100);
        q.push(0, 60);
        // Both slots busy at t=10: the arrival waits for the earliest exit.
        assert_eq!(q.admission_at(10), 60);
        let (admitted, occ) = q.push(10, 200);
        assert_eq!(admitted, 60);
        assert_eq!(occ, 2, "the freed slot is immediately re-occupied");
        assert_eq!(q.stall_cycles(), 50);
        assert_eq!(q.peak(), 2);
        q.debug_validate();
    }

    #[test]
    fn admission_respects_entries_recorded_out_of_time_order() {
        let mut q = TimedQueue::new(1);
        // Simulation order: a late interval first, then an early one.
        q.push(500, 600);
        q.push(0, 100);
        // An arrival at 50 waits for the early interval, lands in the gap.
        assert_eq!(q.admission_at(50), 100);
        // An arrival at 450 fits before the late interval... but pushing it
        // with a long hold overlaps [500, 600): admission only guarantees
        // occupancy below depth *at the admission instant* (the queue is a
        // timeline, not a scheduler), exactly like a FIFO whose head drains
        // late.
        assert_eq!(q.admission_at(550), 600);
        q.debug_validate();
    }

    #[test]
    fn zero_length_holds_occupy_one_cycle() {
        let mut q = TimedQueue::new(1);
        let (admitted, _) = q.push(10, 10);
        assert_eq!(admitted, 10);
        assert_eq!(q.occupancy_at(10), 1);
        assert_eq!(q.admission_at(10), 11, "degenerate hold still occupies");
    }

    #[test]
    fn clear_entries_keeps_statistics() {
        let mut q = TimedQueue::new(1);
        q.push(0, 100);
        q.push(0, 100);
        assert_eq!(q.stall_cycles(), 100);
        q.clear_entries();
        assert_eq!(q.occupancy_at(50), 0);
        assert_eq!(q.stall_cycles(), 100, "stats survive the window boundary");
        assert_eq!(q.peak(), 1);
        q.reset();
        assert_eq!(q.stall_cycles(), 0);
        assert_eq!(q.peak(), 0);
    }

    #[test]
    fn unbounded_recording_queue_tracks_in_flight_occupancy() {
        let mut q = TimedQueue::unbounded_recording();
        q.push(0, 100);
        q.push(10, 50);
        q.push(200, 300);
        assert_eq!(q.occupancy_at(20), 2);
        assert_eq!(q.occupancy_at(75), 1);
        assert_eq!(q.occupancy_at(150), 0);
        assert_eq!(q.stall_cycles(), 0, "unbounded queues never stall");
        assert_eq!(q.admission_at(20), 20);
        assert_eq!(q.peak(), 2, "recording queues track the peak");
        q.clear_entries();
        assert_eq!(q.occupancy_at(20), 0);
    }

    #[test]
    fn admit_at_returns_admission_and_occupancy_together() {
        let mut q = TimedQueue::new(2);
        q.push(0, 100);
        q.push(0, 60);
        // Full at 10: admitted at the earliest exit, where one entry still
        // covers (occupancy *before* the new entry).
        assert_eq!(q.admit_at(10), (60, 1));
        // Free at 70: immediate admission over the surviving entry.
        assert_eq!(q.admit_at(70), (70, 1));
        // Beyond the backlog: free and empty.
        assert_eq!(q.admit_at(500), (500, 0));
    }

    #[test]
    fn compaction_folds_history_and_preserves_late_queries() {
        let mut q = TimedQueue::new(2);
        q.push(0, 100);
        q.push(50, 150);
        q.push(120, 300);
        let events_before = q.event_count();
        // Everything before 200 is history; [120, 300) straddles the
        // watermark and must survive as the base/boundary split.
        q.compact_before(200);
        assert!(q.event_count() < events_before);
        assert!(q.compacted_events() > 0);
        assert_eq!(q.watermark(), 200);
        assert_eq!(q.occupancy_at(250), 1, "the straddling entry still covers");
        assert_eq!(q.occupancy_at(350), 0);
        assert_eq!(q.admission_at(250), 250, "depth 2, one cover: free");
        // Queries below the watermark clamp onto the folded constant.
        assert_eq!(q.occupancy_at(0), q.occupancy_at(200));
        q.debug_validate();
        // New pushes at or past the watermark behave normally.
        let (admitted, occ) = q.push(250, 400);
        assert_eq!((admitted, occ), (250, 2));
        q.debug_validate();
    }

    #[test]
    fn compaction_is_idempotent_and_monotone() {
        let mut q = TimedQueue::new(1);
        q.push(0, 10);
        q.push(20, 30);
        q.compact_before(15);
        let events = q.event_count();
        q.compact_before(15);
        q.compact_before(5); // regressing watermarks are ignored
        assert_eq!(q.event_count(), events);
        assert_eq!(q.watermark(), 15);
        assert_eq!(q.occupancy_at(25), 1);
        q.debug_validate();
    }

    #[test]
    fn credit_port_clones_share_the_queue() {
        let a = CreditPort::new(1);
        let b = a.clone();
        assert!(a.shares_queue_with(&b));
        let (granted, _) = a.acquire(Cycles::ZERO, Cycles::new(100));
        assert_eq!(granted, Cycles::ZERO);
        // The clone sees the consumed credit.
        assert_eq!(b.in_use_at(Cycles::new(50)), 1);
        assert_eq!(b.admission_at(Cycles::new(50)), Cycles::new(100));
        let (granted_b, occ) = b.acquire(Cycles::new(50), Cycles::new(150));
        assert_eq!(granted_b, Cycles::new(100));
        assert_eq!(occ, 1);
        assert_eq!(a.stall_cycles(), 50);
    }

    #[test]
    fn deep_clone_does_not_share_credits() {
        let a = CreditPort::new(1);
        a.acquire(Cycles::ZERO, Cycles::new(100));
        let b = a.deep_clone();
        assert!(!a.shares_queue_with(&b));
        // The copy carries the state at the point of cloning...
        assert_eq!(b.in_use_at(Cycles::new(50)), 1);
        // ...but acquisitions no longer cross over.
        b.acquire(Cycles::new(100), Cycles::new(500));
        assert_eq!(a.admission_at(Cycles::new(200)), Cycles::new(200));
        assert_eq!(b.admission_at(Cycles::new(200)), Cycles::new(500));
    }

    #[test]
    fn reservation_index_probes_only_live_conflicts() {
        let mut idx = ReservationIndex::new();
        idx.insert(0, 100, 0, 0); // long-finished by the probe below
        idx.insert(150, 400, 1, 0); // live: covers the candidate window
        idx.insert(500, 520, 2, 0); // future but within start < placed+span? no
        assert_eq!(idx.max_reservation_len(), 250);
        // Candidate [200, 232): only the live interval conflicts.
        assert_eq!(idx.max_conflicting_end(200, 32, |_, _| true), Some(400));
        // The same probe with the predicate rejecting owner 1 is free.
        assert_eq!(idx.max_conflicting_end(200, 32, |o, _| o != 1), None);
        // A probe past every end is free without iterating history.
        assert_eq!(idx.max_conflicting_end(600, 32, |_, _| true), None);
        // Abutting intervals do not overlap: [500, 520) vs [480, 500).
        assert_eq!(idx.max_conflicting_end(480, 20, |o, _| o == 2), None);
        idx.debug_validate();
    }

    #[test]
    fn reservation_index_returns_the_latest_conflicting_end() {
        let mut idx = ReservationIndex::new();
        // Overlapping reservations (a priority winner on top of the traffic
        // it outranked): the probe must report the latest end, because no
        // conflict-free instant exists before it.
        idx.insert(100, 300, 0, 0);
        idx.insert(120, 500, 1, 1);
        idx.insert(130, 180, 2, 0);
        assert_eq!(idx.max_conflicting_end(150, 8, |_, _| true), Some(500));
        // Filtering to the short middle entry jumps only past it.
        assert_eq!(idx.max_conflicting_end(150, 8, |o, _| o == 2), Some(180));
    }

    #[test]
    fn reservation_index_compaction_drops_only_finished_history() {
        let mut idx = ReservationIndex::new();
        idx.insert(0, 100, 0, 0);
        idx.insert(50, 150, 1, 0);
        idx.insert(120, 300, 2, 0); // straddles the watermark below
        idx.compact_before(150);
        assert_eq!(idx.event_count(), 1, "straddling entries survive");
        assert_eq!(idx.compacted_events(), 2);
        assert_eq!(idx.watermark(), 150);
        // The surviving straddler still conflicts with placements past w.
        assert_eq!(idx.max_conflicting_end(200, 16, |_, _| true), Some(300));
        // Idempotent and monotone: regressing watermarks are ignored.
        idx.compact_before(150);
        idx.compact_before(10);
        assert_eq!(idx.event_count(), 1);
        assert_eq!(idx.watermark(), 150);
        idx.debug_validate();
        // A window boundary resets the watermark but keeps the statistic.
        idx.clear();
        assert_eq!(idx.watermark(), 0);
        assert_eq!(idx.event_count(), 0);
        assert_eq!(idx.compacted_events(), 2);
        idx.reset();
        assert_eq!(idx.compacted_events(), 0);
    }

    #[test]
    fn reservation_index_compaction_is_exact_for_probes_past_the_watermark() {
        // Exactness, not approximation: a compacted index must answer every
        // probe at or past the watermark identically to an uncompacted twin.
        let mut plain = ReservationIndex::new();
        let mut compacted = ReservationIndex::new();
        let spans: [(u64, u64); 6] = [
            (0, 40),
            (30, 90),
            (95, 100),
            (110, 260),
            (255, 270),
            (290, 315),
        ];
        for (i, &(s, e)) in spans.iter().enumerate() {
            plain.insert(s, e, i, (i % 3) as u8);
            compacted.insert(s, e, i, (i % 3) as u8);
        }
        compacted.compact_before(105);
        for placed in 105..350 {
            for span in [1u64, 8, 64] {
                assert_eq!(
                    plain.max_conflicting_end(placed, span, |_, p| p > 0),
                    compacted.max_conflicting_end(placed, span, |_, p| p > 0),
                    "diverged at placed={placed} span={span}"
                );
            }
        }
    }

    #[test]
    fn credit_port_exposes_compaction() {
        let a = CreditPort::new(4);
        a.acquire(Cycles::ZERO, Cycles::new(10));
        a.acquire(Cycles::new(20), Cycles::new(120));
        let before = a.event_count();
        a.compact_before(Cycles::new(50));
        assert!(a.event_count() < before);
        assert_eq!(a.in_use_at(Cycles::new(60)), 1);
    }
}
