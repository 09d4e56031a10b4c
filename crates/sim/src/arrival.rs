//! Open-loop arrival processes: inter-arrival samplers for simulated
//! request streams.
//!
//! A closed-loop client population couples the arrival rate to service
//! times (each client thinks, submits, waits). An *open-loop* source
//! decouples them: arrivals follow a stochastic process regardless of how
//! the server is doing — the regime where admission control actually
//! earns its keep, because offered load can exceed capacity indefinitely.
//!
//! Four process families cover the standard load shapes:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at a constant rate
//!   (the M/·/· baseline);
//! * [`ArrivalProcess::Mmpp`] — a two-state Markov-modulated Poisson
//!   process alternating calm and burst rates with exponential dwell
//!   times (flash crowds, bursty tenants);
//! * [`ArrivalProcess::BoundedPareto`] — heavy-tailed inter-arrival gaps
//!   drawn from a bounded Pareto distribution (long quiet stretches
//!   punctuated by clustered arrivals);
//! * [`ArrivalProcess::Diurnal`] — a nonhomogeneous Poisson process whose
//!   rate follows a sinusoidal day/night cycle, sampled exactly by
//!   thinning.
//!
//! Every sampler draws only from the [`SimRng`] handed to it, so a source
//! with its own forked stream produces the same arrival sequence
//! regardless of what the rest of the simulation does — the property the
//! scenario layer's replay and the sweep harness's worker-count
//! invariance both rest on.

use crate::clock::{SimDuration, SimTime};
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Declarative description of an open-loop arrival process.
///
/// The configuration is plain data (scenario files carry it); call
/// [`ArrivalProcess::sampler`] to obtain the stateful sampler that
/// generates the stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: independent exponential gaps with
    /// mean `1 / rate_per_sec`.
    Poisson {
        /// Mean arrivals per simulated second.
        rate_per_sec: f64,
    },
    /// Two-state Markov-modulated Poisson process: the rate alternates
    /// between a calm and a burst level, staying in each state for an
    /// exponentially distributed dwell time. Sampled exactly via competing
    /// exponentials (memorylessness lets the draw restart at each state
    /// switch).
    Mmpp {
        /// Arrival rate while calm (per simulated second, must be > 0).
        calm_rate_per_sec: f64,
        /// Arrival rate while bursting (per simulated second).
        burst_rate_per_sec: f64,
        /// Mean time spent calm before a burst begins (seconds).
        mean_calm_secs: f64,
        /// Mean burst length (seconds).
        mean_burst_secs: f64,
    },
    /// Heavy-tailed gaps: inter-arrival times follow a bounded Pareto
    /// distribution on `[min_secs, max_secs]` with tail index `alpha`
    /// (smaller `alpha` = heavier tail).
    BoundedPareto {
        /// Tail index (> 0; the classic heavy-tail range is 1 < α < 2).
        alpha: f64,
        /// Smallest possible gap (seconds, > 0).
        min_secs: f64,
        /// Largest possible gap (seconds, > `min_secs`).
        max_secs: f64,
    },
    /// Sinusoidally modulated Poisson arrivals: the instantaneous rate is
    /// `base * (1 + amplitude * sin(2π t / period))`, sampled exactly by
    /// thinning against the peak rate.
    Diurnal {
        /// Mean arrivals per simulated second, averaged over a full cycle.
        base_rate_per_sec: f64,
        /// Modulation depth in `[0, 1)` (0 degenerates to Poisson).
        amplitude: f64,
        /// Cycle length in simulated seconds.
        period_secs: f64,
    },
}

impl ArrivalProcess {
    /// Panics on non-finite or out-of-range parameters.
    pub fn validate(&self) {
        let pos = |v: f64, what: &str| {
            assert!(v.is_finite() && v > 0.0, "{what} must be positive, got {v}");
        };
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => pos(rate_per_sec, "Poisson rate"),
            ArrivalProcess::Mmpp {
                calm_rate_per_sec,
                burst_rate_per_sec,
                mean_calm_secs,
                mean_burst_secs,
            } => {
                pos(calm_rate_per_sec, "MMPP calm rate");
                pos(burst_rate_per_sec, "MMPP burst rate");
                pos(mean_calm_secs, "MMPP calm dwell");
                pos(mean_burst_secs, "MMPP burst dwell");
            }
            ArrivalProcess::BoundedPareto {
                alpha,
                min_secs,
                max_secs,
            } => {
                pos(alpha, "Pareto alpha");
                pos(min_secs, "Pareto minimum gap");
                assert!(
                    max_secs.is_finite() && max_secs > min_secs,
                    "Pareto maximum gap must exceed the minimum ({max_secs} vs {min_secs})"
                );
            }
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                amplitude,
                period_secs,
            } => {
                pos(base_rate_per_sec, "diurnal base rate");
                assert!(
                    (0.0..1.0).contains(&amplitude),
                    "diurnal amplitude must be in [0, 1), got {amplitude}"
                );
                pos(period_secs, "diurnal period");
            }
        }
    }

    /// The long-run mean arrival rate (arrivals per simulated second),
    /// derived analytically. The sampler tests hold empirical rates to
    /// this value; sizing a scenario starts from it (`rate × duration ≈
    /// arrivals`).
    pub fn mean_rate_per_sec(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Mmpp {
                calm_rate_per_sec,
                burst_rate_per_sec,
                mean_calm_secs,
                mean_burst_secs,
            } => {
                // Stationary time-weighting of the two rates.
                let total = mean_calm_secs + mean_burst_secs;
                (calm_rate_per_sec * mean_calm_secs + burst_rate_per_sec * mean_burst_secs) / total
            }
            ArrivalProcess::BoundedPareto {
                alpha,
                min_secs,
                max_secs,
            } => 1.0 / bounded_pareto_mean(alpha, min_secs, max_secs),
            // The sinusoid integrates to zero over a cycle.
            ArrivalProcess::Diurnal {
                base_rate_per_sec, ..
            } => base_rate_per_sec,
        }
    }

    /// Build the stateful sampler for this process.
    pub fn sampler(self) -> ArrivalSampler {
        self.validate();
        ArrivalSampler {
            process: self,
            mmpp_bursting: false,
            mmpp_next_switch: None,
        }
    }
}

/// Mean of the bounded Pareto distribution on `[lo, hi]` with tail index
/// `alpha` (the α = 1 singularity has its own closed form).
pub fn bounded_pareto_mean(alpha: f64, lo: f64, hi: f64) -> f64 {
    if (alpha - 1.0).abs() < 1e-9 {
        // E[X] = ln(hi/lo) * lo*hi / (hi - lo) at α = 1.
        (hi / lo).ln() * lo * hi / (hi - lo)
    } else {
        let k = (lo / hi).powf(alpha);
        alpha * lo.powf(alpha) * (hi.powf(1.0 - alpha) - lo.powf(1.0 - alpha))
            / ((1.0 - alpha) * (1.0 - k))
    }
}

/// A stateful inter-arrival sampler for one [`ArrivalProcess`].
///
/// The sampler carries only the process state that must persist between
/// arrivals (the MMPP modulation phase); everything else is derived from
/// the configuration and the caller's RNG. One sampler models one
/// arrival source — give each source its own forked [`SimRng`] stream and
/// the sources stay mutually independent and individually replayable.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    /// MMPP only: currently in the burst state?
    mmpp_bursting: bool,
    /// MMPP only: absolute time of the next state switch (`None` until the
    /// first draw initializes the modulation calendar).
    mmpp_next_switch: Option<SimTime>,
}

/// Arrivals closer together than the clock's microsecond resolution are
/// clamped to one tick so a very hot source still advances virtual time.
const MIN_GAP: SimDuration = SimDuration::from_micros(1);

impl ArrivalSampler {
    /// The process this sampler was built from.
    pub fn process(&self) -> ArrivalProcess {
        self.process
    }

    /// Draw the gap from `now` to the next arrival. Deterministic in
    /// (`process`, RNG stream, `now` sequence); at least one microsecond,
    /// and `SimDuration::MAX` at most (a gap past the clock's range
    /// saturates, so `now.saturating_add(gap)` lies past any run's end).
    ///
    /// The Poisson arm inlines into the caller, where the open-loop shed
    /// loop draws it once per arrival; the other families run out of line.
    #[inline]
    pub fn next_gap(&mut self, rng: &mut SimRng, now: SimTime) -> SimDuration {
        match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                SimDuration::from_secs_f64(rng.exponential(1.0 / rate_per_sec)).max(MIN_GAP)
            }
            _ => self.other_gap(rng, now),
        }
    }

    /// [`ArrivalSampler::next_gap`] for every family but Poisson.
    #[inline(never)]
    fn other_gap(&mut self, rng: &mut SimRng, now: SimTime) -> SimDuration {
        let gap = match self.process {
            ArrivalProcess::Poisson { .. } => unreachable!("next_gap samples Poisson inline"),
            ArrivalProcess::Mmpp {
                calm_rate_per_sec,
                burst_rate_per_sec,
                mean_calm_secs,
                mean_burst_secs,
            } => {
                // Competing exponentials: race the next arrival against the
                // next modulation switch; on a switch, memorylessness lets
                // the arrival draw restart at the new rate.
                let mut t = now;
                let mut switch = *self.mmpp_next_switch.get_or_insert_with(|| {
                    now.saturating_add(SimDuration::from_secs_f64(rng.exponential(mean_calm_secs)))
                });
                loop {
                    if t >= switch {
                        self.mmpp_bursting = !self.mmpp_bursting;
                        let dwell = if self.mmpp_bursting {
                            mean_burst_secs
                        } else {
                            mean_calm_secs
                        };
                        switch =
                            t.saturating_add(SimDuration::from_secs_f64(rng.exponential(dwell)));
                        self.mmpp_next_switch = Some(switch);
                    }
                    let rate = if self.mmpp_bursting {
                        burst_rate_per_sec
                    } else {
                        calm_rate_per_sec
                    };
                    let candidate =
                        t.saturating_add(SimDuration::from_secs_f64(rng.exponential(1.0 / rate)));
                    // A switch at the end of the clock never comes: the
                    // candidate (saturated too, or earlier) is the arrival.
                    if candidate < switch || switch == SimTime::MAX {
                        break candidate.saturating_since(now);
                    }
                    t = switch;
                }
            }
            ArrivalProcess::BoundedPareto {
                alpha,
                min_secs,
                max_secs,
            } => {
                // Inverse-CDF: x = lo * (1 - U(1 - (lo/hi)^α))^(-1/α).
                let k = (min_secs / max_secs).powf(alpha);
                let u = rng.unit();
                let x = min_secs * (1.0 - u * (1.0 - k)).powf(-1.0 / alpha);
                SimDuration::from_secs_f64(x.clamp(min_secs, max_secs))
            }
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                amplitude,
                period_secs,
            } => {
                // Exact thinning against the cycle's peak rate.
                let peak = base_rate_per_sec * (1.0 + amplitude);
                let mut t = now;
                loop {
                    t = t.saturating_add(SimDuration::from_secs_f64(rng.exponential(1.0 / peak)));
                    let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / period_secs;
                    let rate = base_rate_per_sec * (1.0 + amplitude * phase.sin());
                    if rng.unit() * peak <= rate {
                        break t.saturating_since(now);
                    }
                }
            }
        };
        gap.max(MIN_GAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn processes() -> Vec<ArrivalProcess> {
        vec![
            ArrivalProcess::Poisson { rate_per_sec: 50.0 },
            // Short dwells keep the modulation-cycle count high enough for
            // the empirical-rate check to converge (same 37.5/s mean as the
            // 20 s / 4 s shape used by the scenario built-ins).
            ArrivalProcess::Mmpp {
                calm_rate_per_sec: 5.0,
                burst_rate_per_sec: 200.0,
                mean_calm_secs: 2.0,
                mean_burst_secs: 0.4,
            },
            ArrivalProcess::BoundedPareto {
                alpha: 1.3,
                min_secs: 0.01,
                max_secs: 60.0,
            },
            ArrivalProcess::Diurnal {
                base_rate_per_sec: 30.0,
                amplitude: 0.8,
                period_secs: 600.0,
            },
        ]
    }

    /// Drive a sampler for `n` arrivals and return (total seconds, gaps).
    fn run(process: ArrivalProcess, seed: u64, n: usize) -> (f64, Vec<SimDuration>) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut sampler = process.sampler();
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::with_capacity(n);
        for _ in 0..n {
            let gap = sampler.next_gap(&mut rng, now);
            now += gap;
            gaps.push(gap);
        }
        (now.as_secs_f64(), gaps)
    }

    #[test]
    fn every_family_validates_and_reports_a_positive_mean_rate() {
        for p in processes() {
            p.validate();
            assert!(p.mean_rate_per_sec() > 0.0, "{p:?}");
        }
    }

    #[test]
    fn empirical_rates_match_the_analytic_means() {
        // 200k arrivals per family: the empirical rate must land within a
        // few percent of ArrivalProcess::mean_rate_per_sec. MMPP gets the
        // widest band — dwell-time variance decays slowest.
        for p in processes() {
            let n = 200_000;
            let (elapsed, _) = run(p, 0xA881, n);
            let empirical = n as f64 / elapsed;
            let analytic = p.mean_rate_per_sec();
            let err = (empirical - analytic).abs() / analytic;
            assert!(
                err < 0.05,
                "{p:?}: empirical {empirical:.3}/s vs analytic {analytic:.3}/s (err {err:.3})"
            );
        }
    }

    #[test]
    fn bounded_pareto_gaps_respect_the_bounds_and_tail() {
        let p = ArrivalProcess::BoundedPareto {
            alpha: 1.1,
            min_secs: 0.5,
            max_secs: 30.0,
        };
        let (_, gaps) = run(p, 7, 50_000);
        let lo = SimDuration::from_secs_f64(0.5);
        let hi = SimDuration::from_secs_f64(30.0);
        assert!(gaps.iter().all(|g| *g >= lo && *g <= hi));
        // Heavy tail: the biggest observed gap dwarfs the median.
        let mut sorted = gaps.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        assert!(
            sorted[sorted.len() - 1] > median * 10,
            "tail too light: max {:?} vs median {:?}",
            sorted[sorted.len() - 1],
            median
        );
    }

    #[test]
    fn mmpp_actually_modulates() {
        // Gap sizes must be bimodal: bursts produce gaps near 1/200 s,
        // calm stretches near 1/5 s. Count each regime.
        let p = ArrivalProcess::Mmpp {
            calm_rate_per_sec: 5.0,
            burst_rate_per_sec: 200.0,
            mean_calm_secs: 20.0,
            mean_burst_secs: 4.0,
        };
        let (_, gaps) = run(p, 11, 100_000);
        let burst_like = gaps.iter().filter(|g| g.as_secs_f64() < 0.02).count();
        let calm_like = gaps.iter().filter(|g| g.as_secs_f64() > 0.1).count();
        assert!(burst_like > 10_000, "no burst regime: {burst_like}");
        assert!(calm_like > 1_000, "no calm regime: {calm_like}");
    }

    #[test]
    fn diurnal_rate_tracks_the_cycle() {
        // Split a full cycle into quarters: the second quarter (peak of the
        // sine) must see more arrivals than the fourth (trough).
        let p = ArrivalProcess::Diurnal {
            base_rate_per_sec: 30.0,
            amplitude: 0.8,
            period_secs: 600.0,
        };
        let mut rng = SimRng::seed_from_u64(13);
        let mut sampler = p.sampler();
        let mut now = SimTime::ZERO;
        let mut quarters = [0u64; 4];
        while now.as_secs_f64() < 600.0 {
            now = now + sampler.next_gap(&mut rng, now);
            let q = ((now.as_secs_f64() / 150.0) as usize).min(3);
            quarters[q] += 1;
        }
        assert!(
            quarters[0] > quarters[2] * 2,
            "peak quarter should dominate the trough: {quarters:?}"
        );
    }

    #[test]
    fn mean_rate_handles_the_alpha_one_singularity() {
        let near = bounded_pareto_mean(1.0 + 1e-7, 0.5, 30.0);
        let at = bounded_pareto_mean(1.0, 0.5, 30.0);
        assert!(
            (near - at).abs() / at < 1e-3,
            "α→1 limit mismatch: {near} vs {at}"
        );
    }

    proptest! {
        /// Same seed ⇒ identical arrival sequence, for every process family.
        #[test]
        fn prop_same_seed_same_sequence(seed in 0u64..u64::MAX, pick in 0usize..4) {
            let p = processes()[pick];
            let (ta, a) = run(p, seed, 500);
            let (tb, b) = run(p, seed, 500);
            prop_assert_eq!(a, b);
            prop_assert!((ta - tb).abs() < 1e-12);
        }

        /// Gaps are always at least the one-microsecond clock resolution,
        /// so a source can never wedge virtual time.
        #[test]
        fn prop_gaps_always_advance_time(seed in 0u64..u64::MAX, pick in 0usize..4) {
            let p = processes()[pick];
            let (_, gaps) = run(p, seed, 200);
            prop_assert!(gaps.iter().all(|g| *g >= SimDuration::from_micros(1)));
        }

        /// Two sources forked from the same parent stream with different
        /// salts produce different sequences (stream independence).
        #[test]
        fn prop_forked_sources_diverge(seed in 0u64..u64::MAX) {
            let mut parent = SimRng::seed_from_u64(seed);
            let mut ra = parent.fork(1);
            let mut rb = parent.fork(2);
            let p = ArrivalProcess::Poisson { rate_per_sec: 10.0 };
            let mut sa = p.sampler();
            let mut sb = p.sampler();
            let mut now = SimTime::ZERO;
            let mut same = 0;
            for _ in 0..64 {
                let ga = sa.next_gap(&mut ra, now);
                let gb = sb.next_gap(&mut rb, now);
                if ga == gb { same += 1; }
                now += ga;
            }
            prop_assert!(same < 8, "forked streams should rarely agree ({same}/64)");
        }
    }
}
