//! The retained linear-scan reference of `sva_common::channel`'s occupancy
//! engine.
//!
//! [`NaiveTimedQueue`] is the original [`TimedQueue`](sva_common::TimedQueue)
//! engine verbatim: a flat interval list answering every query with a full
//! scan. The property suite (`crates/common/tests/timed_queue.rs`) and the
//! `simspeed` perf gate run the boundary-delta engine against it.

/// One occupancy interval held by a [`NaiveTimedQueue`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct QueueEntry {
    /// First cycle the entry occupies a slot.
    enter: u64,
    /// First cycle the slot is free again (`exit > enter`).
    exit: u64,
}

/// The retained linear-scan reference model of [`TimedQueue`](sva_common::TimedQueue).
///
/// This is the original engine — a flat interval list answering every query
/// with a full scan. It is kept (not test-gated) as the executable
/// specification the event-indexed engine is verified against: the property
/// suite (`crates/common/tests/timed_queue.rs`) drives both on randomized
/// out-of-order interval batches and demands identical admissions, stalls
/// and peaks, and the `simspeed` perf gate records the indexed engine's
/// throughput multiple over this baseline. Do not use it on hot paths.
#[derive(Clone, Debug, Default)]
pub struct NaiveTimedQueue {
    depth: usize,
    record: bool,
    entries: Vec<QueueEntry>,
    max_exit: u64,
    peak: usize,
    stall_cycles: u64,
    admissions: u64,
}

impl NaiveTimedQueue {
    /// Creates a queue of the given depth (0 is clamped to 1;
    /// `usize::MAX` means unbounded).
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            record: depth != usize::MAX,
            ..Self::default()
        }
    }

    /// The recording unbounded FIFO, mirroring
    /// [`TimedQueue::unbounded_recording`](sva_common::TimedQueue::unbounded_recording).
    pub fn unbounded_recording() -> Self {
        Self {
            depth: usize::MAX,
            record: true,
            ..Self::default()
        }
    }

    /// Whether the queue is unbounded (depth `usize::MAX`).
    pub const fn is_unbounded(&self) -> bool {
        self.depth == usize::MAX
    }

    /// Number of recorded intervals covering `t` — a full scan.
    pub fn occupancy_at(&self, t: u64) -> usize {
        self.entries
            .iter()
            .filter(|e| e.enter <= t && t < e.exit)
            .count()
    }

    /// Earliest admission at or after `t` — repeated covering scans, one
    /// per candidate exit.
    pub fn admission_at(&self, t: u64) -> u64 {
        if self.is_unbounded() || t >= self.max_exit {
            return t;
        }
        let mut at = t;
        loop {
            let mut covering = 0usize;
            let mut next_exit = u64::MAX;
            for e in &self.entries {
                if e.enter <= at && at < e.exit {
                    covering += 1;
                    next_exit = next_exit.min(e.exit);
                }
            }
            if covering < self.depth {
                return at;
            }
            debug_assert!(next_exit > at, "exit times strictly exceed covers");
            at = next_exit;
        }
    }

    /// Admits an entry arriving at `enter` held until `exit`; returns the
    /// admission time and the occupancy including the new entry (the same
    /// contract as [`TimedQueue::push`](sva_common::TimedQueue::push)).
    pub fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let admitted = self.admission_at(enter);
        self.stall_cycles += admitted - enter;
        self.admissions += 1;
        if !self.record {
            return (admitted, 0);
        }
        let exit = exit.max(admitted + 1);
        self.entries.push(QueueEntry {
            enter: admitted,
            exit,
        });
        self.max_exit = self.max_exit.max(exit);
        let occupancy = self.occupancy_at(admitted);
        self.peak = self.peak.max(occupancy);
        (admitted, occupancy)
    }

    /// Highest occupancy observed at any admission.
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

    /// Recorded (never pruned) interval count.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Drops every recorded interval; statistics survive.
    pub fn clear_entries(&mut self) {
        self.entries.clear();
        self.max_exit = 0;
    }

    /// Clears entries *and* statistics.
    pub fn reset(&mut self) {
        self.clear_entries();
        self.peak = 0;
        self.stall_cycles = 0;
        self.admissions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_reference_matches_on_the_documented_cases() {
        // The reference model must mirror every documented TimedQueue
        // behaviour (the property suite covers randomized batches).
        let mut q = NaiveTimedQueue::new(2);
        q.push(0, 100);
        q.push(0, 60);
        assert_eq!(q.admission_at(10), 60);
        let (admitted, occ) = q.push(10, 200);
        assert_eq!((admitted, occ), (60, 2));
        assert_eq!(q.stall_cycles(), 50);
        assert_eq!(q.peak(), 2);
        assert_eq!(q.entry_count(), 3);

        let mut u = NaiveTimedQueue::new(usize::MAX);
        let (admitted, occ) = u.push(5, 500);
        assert_eq!((admitted, occ), (5, 0));

        let mut r = NaiveTimedQueue::unbounded_recording();
        r.push(0, 100);
        r.push(10, 50);
        assert_eq!(r.occupancy_at(20), 2);
        assert_eq!(r.peak(), 2);
        r.reset();
        assert_eq!(r.occupancy_at(20), 0);
        assert_eq!(r.admissions(), 0);
    }
}
