//! Property suite: the event-indexed [`TimedQueue`] against the retained
//! linear-scan reference model [`NaiveTimedQueue`].
//!
//! Both engines are driven push-by-push on `DeterministicRng`-generated
//! out-of-order interval batches across a spread of depths; admission
//! times, returned occupancies, interleaved probe queries, stalls, peaks
//! and admission counts must all be identical. The same driver is then
//! pointed at deliberately broken indexes (an off-by-one on the exit
//! boundary delta, and a splice that seeds a new exit boundary with the
//! post-increment level) and must detect the divergence — proving the suite
//! has the power to catch exactly the class of bug the index could hide.
//!
//! A second generator aims at the splice's edge cases: endpoints snapped
//! onto boundaries that already exist, pushes exactly at the compaction
//! watermark, and stall-admitted pushes on shallow queues.
//!
//! The fused path the fabric uses — [`TimedQueue::admit_at`] for the
//! admission point and its level, then [`TimedQueue::record_at`] with that
//! same pair — runs through the same comparisons, and a wrapper that hands
//! `record_at` a stale level (one queried before the previous record) must
//! be caught.

use std::collections::BTreeSet;

use sva_common::rng::DeterministicRng;
use sva_common::TimedQueue;
use sva_reference::NaiveTimedQueue;

/// The behaviour surface the driver compares, implemented by both engines
/// (and by the deliberately broken one).
trait QueueModel {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize);
    fn occupancy_at(&self, t: u64) -> usize;
    fn admission_at(&self, t: u64) -> u64;
    fn peak(&self) -> usize;
    fn stall_cycles(&self) -> u64;
    fn admissions(&self) -> u64;
    fn validate(&self) {}
    fn compact_before(&mut self, _w: u64) {}
    fn compacted_events(&self) -> u64 {
        0
    }
}

impl QueueModel for TimedQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        TimedQueue::push(self, enter, exit)
    }
    fn occupancy_at(&self, t: u64) -> usize {
        TimedQueue::occupancy_at(self, t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        TimedQueue::admission_at(self, t)
    }
    fn peak(&self) -> usize {
        TimedQueue::peak(self)
    }
    fn stall_cycles(&self) -> u64 {
        TimedQueue::stall_cycles(self)
    }
    fn admissions(&self) -> u64 {
        TimedQueue::admissions(self)
    }
    fn validate(&self) {
        self.debug_validate();
    }
    fn compact_before(&mut self, w: u64) {
        TimedQueue::compact_before(self, w);
    }
    fn compacted_events(&self) -> u64 {
        TimedQueue::compacted_events(self)
    }
}

impl QueueModel for NaiveTimedQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        NaiveTimedQueue::push(self, enter, exit)
    }
    fn occupancy_at(&self, t: u64) -> usize {
        NaiveTimedQueue::occupancy_at(self, t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        NaiveTimedQueue::admission_at(self, t)
    }
    fn peak(&self) -> usize {
        NaiveTimedQueue::peak(self)
    }
    fn stall_cycles(&self) -> u64 {
        NaiveTimedQueue::stall_cycles(self)
    }
    fn admissions(&self) -> u64 {
        NaiveTimedQueue::admissions(self)
    }
}

/// The indexed engine driven through its split halves: every push is an
/// [`TimedQueue::admit_at`] query followed by a [`TimedQueue::record_at`]
/// at exactly the admission point and level it returned. Every admission
/// probe also checks that the level `admit_at` reports is the occupancy
/// holding at the admitted instant. `record_at` never sees the arrival, so
/// the model keeps the stall sum the reference accumulates.
struct FusedQueue {
    queue: TimedQueue,
    stall_cycles: u64,
}

impl FusedQueue {
    fn new(queue: TimedQueue) -> Self {
        Self {
            queue,
            stall_cycles: 0,
        }
    }
}

impl QueueModel for FusedQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let (admitted, level) = self.queue.admit_at(enter);
        self.stall_cycles += admitted - enter;
        (admitted, self.queue.record_at(admitted, level, exit))
    }
    fn occupancy_at(&self, t: u64) -> usize {
        self.queue.occupancy_at(t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        let (admitted, level) = self.queue.admit_at(t);
        assert_eq!(
            level,
            self.queue.occupancy_at(admitted),
            "admit_at({t}) level disagrees with occupancy_at({admitted})"
        );
        admitted
    }
    fn peak(&self) -> usize {
        self.queue.peak()
    }
    fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }
    fn admissions(&self) -> u64 {
        self.queue.admissions()
    }
    fn validate(&self) {
        self.queue.debug_validate();
    }
    fn compact_before(&mut self, w: u64) {
        self.queue.compact_before(w);
    }
    fn compacted_events(&self) -> u64 {
        self.queue.compacted_events()
    }
}

/// The fused path with a stale level: `record_at` is handed the occupancy
/// the admitted instant had *before the previous record* (read from a copy
/// of the queue taken just ahead of it) instead of the level `admit_at`
/// just found. The suite must flag this as divergent from the reference.
struct StaleLevelQueue {
    queue: TimedQueue,
    before_last_record: TimedQueue,
    stall_cycles: u64,
}

impl StaleLevelQueue {
    fn new(depth: usize) -> Self {
        Self {
            queue: TimedQueue::new(depth),
            before_last_record: TimedQueue::new(depth),
            stall_cycles: 0,
        }
    }
}

impl QueueModel for StaleLevelQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let (admitted, _) = self.queue.admit_at(enter);
        let stale = self.before_last_record.occupancy_at(admitted);
        self.before_last_record = self.queue.clone();
        self.stall_cycles += admitted - enter;
        (admitted, self.queue.record_at(admitted, stale, exit))
    }
    fn occupancy_at(&self, t: u64) -> usize {
        self.queue.occupancy_at(t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        self.queue.admission_at(t)
    }
    fn peak(&self) -> usize {
        self.queue.peak()
    }
    fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }
    fn admissions(&self) -> u64 {
        self.queue.admissions()
    }
}

/// An indexed queue with an injected off-by-one in the delta index: the
/// exit boundary lands one cycle late, so every interval appears to cover
/// one extra cycle. The suite must flag this as divergent from the naive
/// reference.
struct OffByOneQueue(TimedQueue);

impl QueueModel for OffByOneQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let exit = exit.max(enter).saturating_add(1);
        self.0.push(enter, exit)
    }
    fn occupancy_at(&self, t: u64) -> usize {
        self.0.occupancy_at(t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        self.0.admission_at(t)
    }
    fn peak(&self) -> usize {
        self.0.peak()
    }
    fn stall_cycles(&self) -> u64 {
        self.0.stall_cycles()
    }
    fn admissions(&self) -> u64 {
        self.0.admissions()
    }
}

/// An indexed queue whose splice seeds a freshly created exit boundary with
/// the level *after* the increment instead of the one before it, so one
/// phantom unit of occupancy holds from the exit to the next boundary (to
/// the end of time past the last one). Modelled from outside the engine: a
/// correct queue holds the real intervals, a second recording queue the
/// phantoms, and admission walks the union's boundaries like the engine.
struct HotExitQueue {
    real: TimedQueue,
    phantom: TimedQueue,
    boundaries: BTreeSet<u64>,
    max_exit: u64,
    peak: usize,
    stall_cycles: u64,
}

impl HotExitQueue {
    fn new(depth: usize) -> Self {
        Self {
            real: TimedQueue::new(depth),
            phantom: TimedQueue::unbounded_recording(),
            boundaries: BTreeSet::new(),
            max_exit: 0,
            peak: 0,
            stall_cycles: 0,
        }
    }
}

impl QueueModel for HotExitQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let admitted = self.admission_at(enter);
        let exit = exit.max(admitted + 1);
        let occupancy = self.occupancy_at(admitted) + 1;
        if !self.boundaries.contains(&exit) {
            let next = self.boundaries.range(exit..).next().copied();
            self.phantom.push(exit, next.unwrap_or(u64::MAX));
        }
        // The union is below the depth at `admitted`, so the real queue
        // admits there without a stall of its own.
        assert_eq!(self.real.push(admitted, exit).0, admitted);
        self.boundaries.extend([admitted, exit]);
        self.max_exit = self.max_exit.max(exit);
        self.peak = self.peak.max(occupancy);
        self.stall_cycles += admitted - enter;
        (admitted, occupancy)
    }
    fn occupancy_at(&self, t: u64) -> usize {
        self.real.occupancy_at(t) + self.phantom.occupancy_at(t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        if t >= self.max_exit {
            return t;
        }
        std::iter::once(t)
            .chain(self.boundaries.range(t + 1..).copied())
            .find(|&at| self.occupancy_at(at) < self.real.depth())
            .unwrap_or(self.max_exit)
    }
    fn peak(&self) -> usize {
        self.peak
    }
    fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }
    fn admissions(&self) -> u64 {
        self.real.admissions()
    }
}

/// One randomized out-of-order interval batch: `shards` independent streams
/// that each restart their cursor near zero (the multi-cluster shape that
/// makes simulation order diverge from time order), interleaved round-robin.
fn generate_batch(rng: &mut DeterministicRng, pushes: usize) -> Vec<(u64, u64)> {
    let shards = 1 + rng.next_below(4) as usize;
    let mut cursors = vec![0u64; shards];
    let mut batch = Vec::with_capacity(pushes);
    for i in 0..pushes {
        let shard = i % shards;
        // Mostly forward motion within a shard, occasional re-issue at the
        // same instant, occasional long leap.
        let advance = match rng.next_below(10) {
            0 => 0,
            9 => 200 + rng.next_below(800),
            _ => rng.next_below(40),
        };
        cursors[shard] += advance;
        let enter = cursors[shard];
        // Includes zero-length holds (exit == enter), which the queue
        // clamps to one occupied cycle.
        let hold = rng.next_below(120);
        batch.push((enter, enter + hold));
    }
    batch
}

/// A batch aimed at the splice's endpoint cases: most enters and exits
/// snap onto an endpoint an earlier push used, which is usually an existing
/// boundary, so the splice meets existing enter and exit boundaries and
/// back-to-back intervals.
fn generate_snapped_batch(rng: &mut DeterministicRng, pushes: usize) -> Vec<(u64, u64)> {
    let pick = |rng: &mut DeterministicRng, points: &[u64]| {
        points[rng.next_below(points.len() as u64) as usize]
    };
    let mut points: Vec<u64> = Vec::new();
    let mut cursor = 0u64;
    let mut batch = Vec::with_capacity(pushes);
    for _ in 0..pushes {
        let enter = if !points.is_empty() && rng.next_below(3) > 0 {
            pick(rng, &points)
        } else {
            cursor += rng.next_below(60);
            cursor
        };
        let exit = match rng.next_below(3) {
            0 => enter + rng.next_below(80),
            _ if !points.is_empty() => pick(rng, &points).max(enter + 1),
            _ => enter + 1,
        };
        points.extend([enter, exit]);
        batch.push((enter, exit));
    }
    batch
}

/// Drives `a` and `b` through the same batch, comparing every push result
/// and interleaved probe queries. Returns the first mismatch, if any.
fn compare_on_batch(
    a: &mut dyn QueueModel,
    b: &mut dyn QueueModel,
    batch: &[(u64, u64)],
    rng: &mut DeterministicRng,
) -> Option<String> {
    for (i, &(enter, exit)) in batch.iter().enumerate() {
        let ra = a.push(enter, exit);
        let rb = b.push(enter, exit);
        if ra != rb {
            return Some(format!(
                "push #{i} [{enter}, {exit}): indexed {ra:?} vs reference {rb:?}"
            ));
        }
        a.validate();
        // Probe around the action: the admitted instant, a nearby past
        // instant and a random future one.
        let probes = [
            ra.0,
            enter.saturating_sub(rng.next_below(50)),
            enter + rng.next_below(300),
        ];
        for t in probes {
            let (oa, ob) = (a.occupancy_at(t), b.occupancy_at(t));
            if oa != ob {
                return Some(format!(
                    "occupancy_at({t}) after push #{i}: indexed {oa} vs reference {ob}"
                ));
            }
            let (aa, ab) = (a.admission_at(t), b.admission_at(t));
            if aa != ab {
                return Some(format!(
                    "admission_at({t}) after push #{i}: indexed {aa} vs reference {ab}"
                ));
            }
        }
    }
    if a.peak() != b.peak() {
        return Some(format!("peak: {} vs {}", a.peak(), b.peak()));
    }
    if a.stall_cycles() != b.stall_cycles() {
        return Some(format!(
            "stall_cycles: {} vs {}",
            a.stall_cycles(),
            b.stall_cycles()
        ));
    }
    if a.admissions() != b.admissions() {
        return Some(format!(
            "admissions: {} vs {}",
            a.admissions(),
            b.admissions()
        ));
    }
    None
}

/// Depths the randomized comparison sweeps, including the two unbounded
/// flavours (`None` = `unbounded_recording`).
const DEPTHS: [Option<usize>; 8] = [
    Some(1),
    Some(2),
    Some(3),
    Some(4),
    Some(8),
    Some(16),
    Some(64),
    None,
];

fn build_pair(depth: Option<usize>) -> (TimedQueue, NaiveTimedQueue) {
    match depth {
        Some(d) => (TimedQueue::new(d), NaiveTimedQueue::new(d)),
        None => (
            TimedQueue::unbounded_recording(),
            NaiveTimedQueue::unbounded_recording(),
        ),
    }
}

#[test]
fn indexed_engine_matches_naive_reference_on_randomized_batches() {
    let mut rng = DeterministicRng::new(0x71ED_0001);
    for round in 0..40 {
        let pushes = 60 + rng.next_below(140) as usize;
        let batch = generate_batch(&mut rng, pushes);
        for depth in DEPTHS {
            let (mut indexed, mut naive) = build_pair(depth);
            let mut probe_rng = DeterministicRng::new(0x9000 + round);
            if let Some(err) = compare_on_batch(&mut indexed, &mut naive, &batch, &mut probe_rng) {
                panic!("round {round}, depth {depth:?}: {err}");
            }
        }
    }
}

#[test]
fn suite_catches_an_injected_off_by_one_in_the_delta_index() {
    let mut rng = DeterministicRng::new(0x71ED_0002);
    let mut caught = false;
    for round in 0..10 {
        let batch = generate_batch(&mut rng, 120);
        // Narrow depths make the extra covered cycle observable as a
        // different admission or stall.
        for depth in [1usize, 2, 3, 4] {
            let mut broken = OffByOneQueue(TimedQueue::new(depth));
            let mut naive = NaiveTimedQueue::new(depth);
            let mut probe_rng = DeterministicRng::new(0xB000 + round);
            if compare_on_batch(&mut broken, &mut naive, &batch, &mut probe_rng).is_some() {
                caught = true;
            }
        }
    }
    assert!(
        caught,
        "the off-by-one exit boundary must be observable on at least one batch"
    );
}

#[test]
fn indexed_engine_matches_naive_reference_on_snapped_batches() {
    let mut rng = DeterministicRng::new(0x71ED_0004);
    for round in 0..40 {
        let pushes = 60 + rng.next_below(140) as usize;
        let batch = generate_snapped_batch(&mut rng, pushes);
        for depth in DEPTHS {
            let (mut indexed, mut naive) = build_pair(depth);
            let mut probe_rng = DeterministicRng::new(0xA000 + round);
            if let Some(err) = compare_on_batch(&mut indexed, &mut naive, &batch, &mut probe_rng) {
                panic!("round {round}, depth {depth:?}: {err}");
            }
        }
    }
}

#[test]
fn shallow_queues_admit_late_on_both_generators() {
    // The splice must also be exercised at an admitted instant other than
    // the arrival: on depths 1-4 every generator produces stalled pushes.
    let mut rng = DeterministicRng::new(0x71ED_0005);
    for depth in 1..=4usize {
        for snapped in [false, true] {
            let batch = if snapped {
                generate_snapped_batch(&mut rng, 150)
            } else {
                generate_batch(&mut rng, 150)
            };
            let mut indexed = TimedQueue::new(depth);
            let mut naive = NaiveTimedQueue::new(depth);
            let stalled = batch
                .iter()
                .filter(|&&(enter, exit)| {
                    let admitted = indexed.push(enter, exit);
                    assert_eq!(admitted, naive.push(enter, exit));
                    admitted.0 != enter
                })
                .count();
            indexed.debug_validate();
            assert!(
                stalled > 10,
                "depth {depth}, snapped {snapped}: only {stalled} stalled pushes"
            );
        }
    }
}

/// Open-loop rounds: compact at the round's first arrival, push exactly at
/// the watermark, then pushes whose endpoints snap onto the round's earlier
/// instants. The reference never compacts; every push result and every
/// probe at or past the watermark must agree.
fn assert_watermark_rounds_match(
    indexed: &mut dyn QueueModel,
    depth: usize,
    rng: &mut DeterministicRng,
) {
    let mut naive = NaiveTimedQueue::new(depth);
    let mut watermark = 0u64;
    for round in 0..60 {
        indexed.compact_before(watermark);
        let mut points = vec![watermark];
        for i in 0..12 {
            let enter = if i == 0 {
                watermark
            } else {
                points[rng.next_below(points.len() as u64) as usize]
            };
            let exit = if rng.next_below(2) == 0 {
                points[rng.next_below(points.len() as u64) as usize].max(enter + 1)
            } else {
                enter + 1 + rng.next_below(90)
            };
            let got = indexed.push(enter, exit);
            assert_eq!(
                got,
                naive.push(enter, exit),
                "depth {depth}, round {round}: push [{enter}, {exit}) at watermark {watermark}"
            );
            points.extend([got.0, exit]);
            indexed.validate();
        }
        for t in points.iter().flat_map(|&p| [p, p + 1]) {
            assert_eq!(
                indexed.occupancy_at(t),
                naive.occupancy_at(t),
                "occupancy_at({t})"
            );
            assert_eq!(
                indexed.admission_at(t),
                naive.admission_at(t),
                "admission_at({t})"
            );
        }
        watermark += 1 + rng.next_below(60);
    }
    assert!(indexed.compacted_events() > 0, "compaction never fired");
    assert_eq!(indexed.stall_cycles(), naive.stall_cycles());
    assert_eq!(indexed.peak(), naive.peak());
}

#[test]
fn pushes_at_the_compaction_watermark_match_the_naive_reference() {
    let mut rng = DeterministicRng::new(0x71ED_0006);
    for depth in [1usize, 2, 3, 4, 8] {
        assert_watermark_rounds_match(&mut TimedQueue::new(depth), depth, &mut rng);
    }
}

#[test]
fn fused_admit_and_record_match_the_naive_reference_on_both_generators() {
    let mut rng = DeterministicRng::new(0x71ED_0008);
    for round in 0..40 {
        let pushes = 60 + rng.next_below(140) as usize;
        for snapped in [false, true] {
            let batch = if snapped {
                generate_snapped_batch(&mut rng, pushes)
            } else {
                generate_batch(&mut rng, pushes)
            };
            for depth in DEPTHS {
                let (indexed, mut naive) = build_pair(depth);
                let mut fused = FusedQueue::new(indexed);
                let mut probe_rng = DeterministicRng::new(0xD000 + round);
                if let Some(err) = compare_on_batch(&mut fused, &mut naive, &batch, &mut probe_rng)
                {
                    panic!("round {round}, snapped {snapped}, depth {depth:?}: {err}");
                }
            }
        }
    }
}

#[test]
fn fused_pushes_at_the_compaction_watermark_match_the_naive_reference() {
    let mut rng = DeterministicRng::new(0x71ED_0009);
    for depth in [1usize, 2, 3, 4, 8] {
        let mut fused = FusedQueue::new(TimedQueue::new(depth));
        assert_watermark_rounds_match(&mut fused, depth, &mut rng);
    }
}

#[test]
fn compaction_past_the_latest_exit_then_pushes_match_the_naive_reference() {
    // Each round ends with a watermark strictly past every recorded exit:
    // the whole index folds away, `admit_at` answers from its `max_exit`
    // shortcut, and the next round's pushes start from the folded state.
    let mut rng = DeterministicRng::new(0x71ED_000A);
    for depth in [1usize, 2, 4] {
        let mut plain = TimedQueue::new(depth);
        let mut fused = FusedQueue::new(TimedQueue::new(depth));
        let mut naive = NaiveTimedQueue::new(depth);
        let mut cursor = 0u64;
        for round in 0..30 {
            let mut last_exit = cursor;
            for _ in 0..10 {
                let enter = cursor + rng.next_below(50);
                let exit = enter + rng.next_below(80);
                let want = naive.push(enter, exit);
                assert_eq!(
                    plain.push(enter, exit),
                    want,
                    "depth {depth}, round {round}"
                );
                assert_eq!(
                    fused.push(enter, exit),
                    want,
                    "depth {depth}, round {round}"
                );
                last_exit = last_exit.max(exit.max(want.0 + 1));
            }
            let w = last_exit + 1 + rng.next_below(30);
            plain.compact_before(w);
            fused.compact_before(w);
            assert_eq!(
                plain.event_count(),
                0,
                "nothing straddles w past every exit"
            );
            assert_eq!(fused.queue.event_count(), 0);
            assert_eq!(plain.admit_at(w), (w, 0));
            assert_eq!(fused.queue.admit_at(w), (w, 0));
            plain.debug_validate();
            fused.validate();
            cursor = w;
        }
        assert_eq!(plain.stall_cycles(), naive.stall_cycles());
        assert_eq!(fused.stall_cycles(), naive.stall_cycles());
        assert_eq!(plain.peak(), naive.peak());
        assert_eq!(fused.peak(), naive.peak());
    }
}

#[test]
fn suite_catches_a_record_at_handed_a_stale_level() {
    let mut rng = DeterministicRng::new(0x71ED_000B);
    let mut caught = 0;
    for round in 0..10 {
        let batch = generate_batch(&mut rng, 120);
        for depth in [1usize, 2, 3, 4] {
            let mut broken = StaleLevelQueue::new(depth);
            let mut naive = NaiveTimedQueue::new(depth);
            let mut probe_rng = DeterministicRng::new(0xE000 + round);
            if compare_on_batch(&mut broken, &mut naive, &batch, &mut probe_rng).is_some() {
                caught += 1;
            }
        }
    }
    assert!(
        caught > 0,
        "a record at a stale level must be observable on at least one batch"
    );
}

#[test]
fn suite_catches_a_new_exit_boundary_seeded_with_the_post_increment_level() {
    let mut rng = DeterministicRng::new(0x71ED_0007);
    let mut caught = 0;
    for round in 0..10 {
        let batch = generate_snapped_batch(&mut rng, 120);
        for depth in [1usize, 2, 3, 4] {
            let mut broken = HotExitQueue::new(depth);
            let mut naive = NaiveTimedQueue::new(depth);
            let mut probe_rng = DeterministicRng::new(0xC000 + round);
            if compare_on_batch(&mut broken, &mut naive, &batch, &mut probe_rng).is_some() {
                caught += 1;
            }
        }
    }
    assert!(
        caught > 0,
        "a hot exit boundary must be observable on at least one batch"
    );
}

#[test]
fn compaction_preserves_results_and_bounds_the_index() {
    // Monotone (open-loop) batches: each batch's earliest arrival is a
    // valid watermark for the history before it, so the compacted queue
    // must behave identically to an uncompacted twin while holding far
    // fewer boundary events.
    let mut rng = DeterministicRng::new(0x71ED_0003);
    for depth in [2usize, 8, 64] {
        let mut compacted = TimedQueue::new(depth);
        let mut plain = TimedQueue::new(depth);
        let mut cursor = 0u64;
        let mut peak_events = 0usize;
        for _ in 0..50 {
            compacted.compact_before(cursor);
            let mut batch = Vec::new();
            for _ in 0..40 {
                cursor += rng.next_below(30);
                batch.push((cursor, cursor + rng.next_below(100)));
            }
            for &(enter, exit) in &batch {
                let rc = compacted.push(enter, exit);
                let rp = plain.push(enter, exit);
                assert_eq!(rc, rp, "compaction changed a push result");
            }
            compacted.debug_validate();
            peak_events = peak_events.max(compacted.event_count());
        }
        assert_eq!(compacted.stall_cycles(), plain.stall_cycles());
        assert_eq!(compacted.peak(), plain.peak());
        assert!(compacted.compacted_events() > 0, "compaction never fired");
        assert!(
            peak_events < plain.event_count() / 4,
            "compaction failed to bound the index: peak {peak_events} vs {} retained",
            plain.event_count()
        );
    }
}

#[test]
fn long_out_of_order_batch_with_compaction_matches_the_naive_reference() {
    // 2 400 pushes from four out-of-order shards, compacted every 500
    // pushes, keep several hundred boundaries live, so the index spans
    // dozens of runs. Each compaction folds at the slowest shard's cursor
    // (no shard arrives below it again): an arbitrary instant, so the fold
    // nearly always ends inside a run rather than on a run edge. The
    // reference never compacts.
    let mut rng = DeterministicRng::new(0x71ED_000C);
    for depth in [2usize, 4, 16] {
        let mut indexed = TimedQueue::new(depth);
        let mut naive = NaiveTimedQueue::new(depth);
        let mut cursors = [0u64; 4];
        let mut peak_events = 0;
        for i in 0..2_400 {
            let shard = i % cursors.len();
            cursors[shard] += rng.next_below(30);
            let enter = cursors[shard];
            let exit = enter + rng.next_below(200);
            assert_eq!(
                indexed.push(enter, exit),
                naive.push(enter, exit),
                "depth {depth}, push #{i} [{enter}, {exit})"
            );
            peak_events = peak_events.max(indexed.event_count());
            if i % 500 == 499 {
                let w = *cursors.iter().min().expect("four shards");
                indexed.compact_before(w);
                indexed.debug_validate();
                for t in (0..40).map(|k| w + k * 13) {
                    assert_eq!(indexed.occupancy_at(t), naive.occupancy_at(t), "at {t}");
                    assert_eq!(indexed.admit_at(t).0, naive.admission_at(t), "at {t}");
                }
            }
        }
        assert!(
            peak_events > 500,
            "depth {depth}: only {peak_events} events"
        );
        assert!(indexed.compacted_events() > 0, "compaction never fired");
        assert_eq!(indexed.stall_cycles(), naive.stall_cycles());
        assert_eq!(indexed.peak(), naive.peak());
    }
}
