//! The host-speed probe that steadies host-time metrics on a shared host.
//!
//! On a host whose cores are shared with other tenants, the simulator's
//! speed drifts by 10–30 % over seconds to minutes: a neighbour on the
//! sibling hardware thread takes execution ports, branch predictor and L1/L2
//! capacity. A median over a run cannot remove drift that lasts longer than
//! the run. The probe is a fixed piece of work owned by the benchmark (no
//! code of the simulator) that runs between ops and slows down with the same
//! contention. Timing it alongside the ops gives a speed factor per pass,
//! and host times are reported scaled to the probe's reference speed.
//!
//! The probe mixes the three kinds of work the simulator's hot loops do:
//! independent integer lanes (port throughput), data-dependent branches
//! (the predictor) and an ordered map (pointer chasing through a small
//! heap). On a 2-vCPU Xeon (Emerald Rapids) guest, a pass's raw time varied
//! with a coefficient of variation of 0.09–0.12 over a 40 s run, its time
//! over the probe's with 0.02–0.03.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Time of one probe sample, in ms, on an uncontended core of the reference
/// host (2-vCPU Xeon guest, release build). Host times are scaled to this
/// speed; the constant only sets the scale and never changes between runs.
pub const REFERENCE_MS: f64 = 0.25;

/// Steps of each part of a sample, sized so the three take similar times.
const LANE_STEPS: u64 = 20_000;
const BRANCH_STEPS: u64 = 10_000;
const MAP_STEPS: u64 = 3_000;
/// Keys of the ordered map part range over `0..MAP_KEYS`.
const MAP_KEYS: u64 = 5_000;

/// Runs probe samples; the state threads one sample's result into the
/// next, so no sample can be computed ahead of time.
#[derive(Debug)]
pub struct HostProbe {
    state: u64,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// A probe with a fixed start state.
    pub fn new() -> Self {
        Self {
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs one sample and returns its time in ms.
    pub fn sample(&mut self) -> f64 {
        let seed = black_box(self.state);
        let t = Instant::now();
        let out = lanes(seed) ^ branches(seed) ^ ordered_map(seed);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.state = black_box(out) | 1;
        ms
    }
}

/// Speed of the host while `samples` were taken, relative to the reference:
/// `1.0` at reference speed, below it when the host is slower. Host times
/// measured over the same span are scaled by it.
pub fn speed(samples: &[f64]) -> f64 {
    let total: f64 = samples.iter().sum();
    if samples.is_empty() || total <= 0.0 {
        return 1.0;
    }
    REFERENCE_MS * samples.len() as f64 / total
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// Eight independent multiply-rotate lanes: bound by execution throughput.
fn lanes(seed: u64) -> u64 {
    let mut lanes = [seed; 8];
    for i in 0..LANE_STEPS {
        for (j, lane) in (0u64..).zip(lanes.iter_mut()) {
            *lane = lane
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i ^ j)
                .rotate_left(7);
        }
    }
    lanes.iter().fold(0, |acc, lane| acc ^ lane)
}

/// Branches on pseudo-random bits: bound by the branch predictor.
fn branches(seed: u64) -> u64 {
    let mut x = seed;
    let mut acc = 0u64;
    for _ in 0..BRANCH_STEPS {
        x = xorshift(x);
        if x & 1 == 0 {
            acc = acc.wrapping_add(3);
        } else if x & 2 == 0 {
            acc ^= x;
        } else {
            acc = acc.rotate_left(3);
        }
    }
    acc
}

/// Inserts, finds and removes keys in a small ordered map: bound by
/// dependent loads through heap nodes.
fn ordered_map(seed: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut x = seed;
    for i in 0..MAP_STEPS {
        x = xorshift(x);
        map.insert(x % MAP_KEYS, i);
        if let Some((&key, _)) = map.range(x % MAP_KEYS..).next() {
            map.remove(&key);
        }
    }
    map.values().fold(x, |acc, v| acc.wrapping_add(*v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_mean_sample() {
        assert_eq!(speed(&[REFERENCE_MS, REFERENCE_MS]), 1.0);
        assert_eq!(speed(&[REFERENCE_MS * 2.0, REFERENCE_MS * 2.0]), 0.5);
        assert_eq!(speed(&[]), 1.0);
    }

    #[test]
    fn samples_take_time_and_change_the_state() {
        let mut probe = HostProbe::new();
        let before = probe.state;
        assert!(probe.sample() > 0.0);
        assert_ne!(probe.state, before);
    }
}
