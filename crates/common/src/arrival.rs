//! Open-loop arrival processes for the serving layer.
//!
//! A serving experiment drives the platform with *offered load*: requests
//! arrive on their own schedule whether or not the clusters keep up, unlike
//! the closed-loop experiment drivers that launch one offload at a time.
//! This module generates those arrival schedules deterministically from a
//! [`DeterministicRng`], so a trace replays bit-identically across worker
//! counts and machines.
//!
//! Three mixes cover the shapes a production front-end sees:
//!
//! * [`ArrivalMix::Poisson`] — memoryless arrivals (exponential
//!   inter-arrival gaps), the classic open-loop baseline.
//! * [`ArrivalMix::Bursty`] — arrivals clumped into bursts of
//!   [`BURST_SIZE`] with exponential gaps *between* bursts, preserving the
//!   mean rate while stressing the admission queue with head-of-line
//!   clusters.
//! * [`ArrivalMix::Diurnal`] — a Poisson process whose rate swings
//!   sinusoidally by [`DIURNAL_AMPLITUDE`] over [`DIURNAL_PERIODS`] periods
//!   of the trace (the day/night cycle compressed into one run): the same
//!   mean load, but with sustained peaks that saturate and troughs that
//!   drain.

use crate::cycles::Cycles;
use crate::rng::DeterministicRng;

/// Requests per clump in the bursty mix.
pub const BURST_SIZE: u64 = 8;

/// Peak-to-mean rate swing of the diurnal mix (0.8 → the peak rate is
/// 1.8× the mean and the trough 0.2×).
pub const DIURNAL_AMPLITUDE: f64 = 0.8;

/// Full rate cycles across one diurnal trace.
pub const DIURNAL_PERIODS: f64 = 2.0;

/// The shape of an open-loop arrival process; see the module docs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ArrivalMix {
    /// Memoryless arrivals: exponential inter-arrival gaps.
    Poisson,
    /// [`BURST_SIZE`]-request clumps with exponential gaps between clumps.
    Bursty,
    /// Sinusoidally rate-modulated Poisson arrivals.
    Diurnal,
}

impl ArrivalMix {
    /// Every mix, for sweep grids.
    pub const ALL: [ArrivalMix; 3] = [ArrivalMix::Poisson, ArrivalMix::Bursty, ArrivalMix::Diurnal];

    /// Stable label for tables and JSON output.
    pub const fn label(self) -> &'static str {
        match self {
            ArrivalMix::Poisson => "poisson",
            ArrivalMix::Bursty => "bursty",
            ArrivalMix::Diurnal => "diurnal",
        }
    }

    /// Generates `count` absolute arrival times (host cycles, ascending)
    /// with a mean inter-arrival gap of `mean_gap`.
    ///
    /// The trace is a pure function of `(self, rng state, count,
    /// mean_gap)`; callers fork a dedicated RNG stream per tenant so
    /// traces stay independent of each other and of the workload data.
    pub fn generate(
        self,
        rng: &mut DeterministicRng,
        count: usize,
        mean_gap: Cycles,
    ) -> Vec<Cycles> {
        let mean = (mean_gap.raw() as f64).max(1.0);
        let mut times = Vec::with_capacity(count);
        let mut t = 0.0f64;
        match self {
            ArrivalMix::Poisson => {
                for _ in 0..count {
                    t += exponential(rng, mean);
                    times.push(t);
                }
            }
            ArrivalMix::Bursty => {
                // Bursts of BURST_SIZE back-to-back requests (tight
                // exponential jitter) separated by gaps with mean
                // BURST_SIZE × mean_gap: the long-run rate matches the
                // Poisson mix.
                let mut burst_start = 0.0f64;
                let mut in_burst = 0u64;
                for _ in 0..count {
                    if in_burst == 0 {
                        // Next clump an exponential gap after the previous
                        // clump's *start*, but never before the previous
                        // clump's jittered tail (times must ascend).
                        burst_start =
                            (burst_start + exponential(rng, BURST_SIZE as f64 * mean)).max(t);
                        t = burst_start;
                        in_burst = BURST_SIZE;
                    } else {
                        t += exponential(rng, mean / 16.0);
                    }
                    in_burst -= 1;
                    times.push(t);
                }
            }
            ArrivalMix::Diurnal => {
                // Thin a base exponential stream by the instantaneous rate
                // factor 1 + A·sin(2π·t/period): gaps stretch in the
                // trough and compress at the peak while the mean holds.
                let period = (count as f64 * mean / DIURNAL_PERIODS).max(1.0);
                for _ in 0..count {
                    let phase = core::f64::consts::TAU * (t / period);
                    let rate = 1.0 + DIURNAL_AMPLITUDE * phase.sin();
                    t += exponential(rng, mean / rate.max(1e-3));
                    times.push(t);
                }
            }
        }
        times
            .into_iter()
            .map(|ft| Cycles::new(ft.max(0.0) as u64))
            .collect()
    }
}

/// One exponential sample with the given mean (inverse-CDF transform).
fn exponential(rng: &mut DeterministicRng, mean: f64) -> f64 {
    // next_f64 is in [0, 1); flip to (0, 1] so ln never sees zero.
    let u = 1.0 - rng.next_f64();
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap_of(times: &[Cycles]) -> f64 {
        assert!(times.len() > 1);
        (times.last().unwrap().raw() - times[0].raw()) as f64 / (times.len() - 1) as f64
    }

    #[test]
    fn traces_are_ascending_and_deterministic() {
        for mix in ArrivalMix::ALL {
            let gen = || {
                let mut rng = DeterministicRng::new(0x5E41);
                mix.generate(&mut rng, 500, Cycles::new(10_000))
            };
            let a = gen();
            let b = gen();
            assert_eq!(a, b, "{} trace must replay identically", mix.label());
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{} trace must ascend",
                mix.label()
            );
            assert_eq!(a.len(), 500);
        }
    }

    #[test]
    fn every_trace_is_nondecreasing() {
        // The serving loop merges tenant traces on this precondition. Gaps
        // down to one cycle make the integer rounding produce equal
        // instants, which must never come out of order either.
        for mix in ArrivalMix::ALL {
            for seed in 0..16u64 {
                for gap in [1u64, 3, 100, 70_000] {
                    let mut rng = DeterministicRng::new(seed);
                    let trace = mix.generate(&mut rng, 400, Cycles::new(gap));
                    assert!(
                        trace.windows(2).all(|w| w[0] <= w[1]),
                        "{} trace descends (seed {seed}, gap {gap})",
                        mix.label()
                    );
                }
            }
        }
    }

    #[test]
    fn all_mixes_hold_the_requested_mean_rate() {
        for mix in ArrivalMix::ALL {
            let mut rng = DeterministicRng::new(0xAB5);
            let times = mix.generate(&mut rng, 4_000, Cycles::new(10_000));
            let mean = mean_gap_of(&times);
            assert!(
                (mean - 10_000.0).abs() < 1_500.0,
                "{}: mean gap {mean:.0} strays from 10000",
                mix.label()
            );
        }
    }

    #[test]
    fn bursty_clumps_and_diurnal_swings() {
        let mut rng = DeterministicRng::new(0xB00);
        let bursty = ArrivalMix::Bursty.generate(&mut rng, 2_000, Cycles::new(10_000));
        // Within a burst gaps are tiny: a large fraction of gaps must sit
        // far below the mean.
        let tight = bursty
            .windows(2)
            .filter(|w| w[1].raw() - w[0].raw() < 2_500)
            .count();
        assert!(
            tight > bursty.len() / 2,
            "bursty mix must clump ({tight}/{} tight gaps)",
            bursty.len()
        );

        let mut rng = DeterministicRng::new(0xD1);
        let diurnal = ArrivalMix::Diurnal.generate(&mut rng, 4_000, Cycles::new(10_000));
        // Quarter-trace arrival counts must swing: the peak quarter sees
        // substantially more arrivals than the trough quarter.
        let horizon = diurnal.last().unwrap().raw() + 1;
        let mut quarters = [0u64; 4];
        for t in &diurnal {
            quarters[(t.raw() * 4 / horizon).min(3) as usize] += 1;
        }
        let peak = *quarters.iter().max().unwrap();
        let trough = *quarters.iter().min().unwrap();
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "diurnal quarters {quarters:?} must swing"
        );
    }
}
