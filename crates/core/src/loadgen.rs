//! Open-loop workload generation for experiments.
//!
//! Availability and SLA numbers are only as honest as the load behind
//! them; this module provides a deterministic Poisson-process request
//! generator (seeded, exponential inter-arrival gaps) whose rate follows
//! a schedule — flat or with flash-crowd bursts ([`RateSchedule`] +
//! [`ScheduledLoadGenerator`]) — plus the realism layers experiment E15
//! sweeps: Zipf-skewed tenant popularity ([`ZipfSampler`]) and
//! request-class mixes with per-class latency SLOs ([`ClassMix`]).
//! Everything is seeded and advances only on the simulated clock.

use dosgi_ipvs::RequestClass;
use dosgi_net::{SimDuration, SimTime};
use dosgi_testkit::TestRng;

/// Default per-tick arrival cap: a single driver tick never reports more
/// than this many arrivals; the excess carries over to later ticks (the
/// process itself is not thinned — see
/// [`ScheduledLoadGenerator::arrivals_until`]).
pub const DEFAULT_MAX_ARRIVALS_PER_TICK: u32 = 4096;

/// A Zipf(s) sampler over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1/(k+1)^s` — the empirical shape of tenant popularity
/// (a few customers dominate the traffic, a long tail idles).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    rng: TestRng,
    // cdf[k] = P(rank <= k); cdf[n-1] == 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `exponent` (1.0 is the
    /// classic web skew; larger = more skew), deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 1` and `exponent` is positive and finite.
    pub fn new(n: usize, exponent: f64, seed: u64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(
            exponent > 0.0 && exponent.is_finite(),
            "exponent must be positive"
        );
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Guard the tail against float round-off: the last slot must catch
        // every u in [0, 1).
        cdf[n - 1] = 1.0;
        ZipfSampler {
            rng: TestRng::new(seed),
            cdf,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (`n >= 1` by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The probability of drawing `rank`.
    #[cfg(test)]
    pub(crate) fn probability(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Maps one uniform draw `u` in `[0, 1)` to a rank (pure inverse-CDF
    /// lookup by binary search; the property suite pins it to a naive
    /// linear scan).
    pub fn pick(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draws one rank.
    pub fn sample(&mut self) -> usize {
        let u = self.rng.f64();
        self.pick(u)
    }
}

/// A flash-crowd burst: while active, the offered rate is multiplied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// When the burst begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// The rate multiplier while active (e.g. `8.0` for an 8× spike).
    pub multiplier: f64,
}

/// A deterministic offered-load profile: base rate and flash-crowd bursts.
/// Pure function of the simulated clock — no RNG, so two runs see exactly
/// the same instantaneous rate at every instant.
#[derive(Debug, Clone)]
pub struct RateSchedule {
    base_rate: f64,
    bursts: Vec<Burst>,
}

impl RateSchedule {
    /// A flat schedule at `rate_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_sec` is positive and finite.
    pub fn constant(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "rate must be positive"
        );
        RateSchedule {
            base_rate: rate_per_sec,
            bursts: Vec::new(),
        }
    }

    /// Adds a flash-crowd burst (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the multiplier is positive and finite.
    pub fn with_burst(mut self, burst: Burst) -> Self {
        assert!(
            burst.multiplier > 0.0 && burst.multiplier.is_finite(),
            "burst multiplier must be positive"
        );
        self.bursts.push(burst);
        self
    }

    /// The instantaneous offered rate at `t` (requests per second).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let mut rate = self.base_rate;
        for b in &self.bursts {
            if t >= b.start && t < b.start + b.duration {
                rate *= b.multiplier;
            }
        }
        rate
    }
}

/// A non-homogeneous Poisson process driven by a [`RateSchedule`]: gaps
/// are exponential at the instantaneous rate, so bursts change
/// the arrival intensity exactly when the schedule says so; over
/// [`RateSchedule::constant`] it is the plain Poisson process.
#[derive(Debug, Clone)]
pub struct ScheduledLoadGenerator {
    rng: TestRng,
    schedule: RateSchedule,
    next_arrival: SimTime,
    max_per_tick: u32,
}

impl ScheduledLoadGenerator {
    /// A generator following `schedule`, starting at `start`,
    /// deterministic in `seed`.
    pub fn new(schedule: RateSchedule, seed: u64, start: SimTime) -> Self {
        let mut gen = ScheduledLoadGenerator {
            rng: TestRng::new(seed),
            schedule,
            next_arrival: start,
            max_per_tick: DEFAULT_MAX_ARRIVALS_PER_TICK,
        };
        gen.advance_gap();
        gen
    }

    /// Overrides the per-tick arrival cap (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[cfg(test)]
    pub(crate) fn with_max_per_tick(mut self, cap: u32) -> Self {
        assert!(cap > 0, "cap must be positive");
        self.max_per_tick = cap;
        self
    }

    fn advance_gap(&mut self) {
        let rate = self.schedule.rate_at(self.next_arrival);
        let u: f64 = self.rng.f64().max(f64::MIN_POSITIVE);
        let gap_secs = -u.ln() / rate;
        // Never stall: a gap below 1µs still advances the clock.
        self.next_arrival += SimDuration::from_micros(((gap_secs * 1e6) as u64).max(1));
    }

    /// Number of arrivals with timestamps `<= now` since the last call,
    /// bounded by the per-tick cap. Call once per driver tick and issue
    /// that many requests.
    ///
    /// The cap bounds what one tick can *report*, not what the process
    /// produces: when a long sim-time gap (or a very high rate) backs up
    /// more than `max_per_tick` arrivals, the excess stays pending and is
    /// returned by subsequent calls — so no driver tick ever has to issue
    /// a pathological burst, and the long-run arrival count is unchanged.
    pub fn arrivals_until(&mut self, now: SimTime) -> u32 {
        let mut n = 0;
        while n < self.max_per_tick && self.next_arrival <= now {
            n += 1;
            self.advance_gap();
        }
        n
    }

    /// The timestamp of the next pending arrival.
    pub fn next_arrival(&self) -> SimTime {
        self.next_arrival
    }
}

/// A seeded sampler assigning each request a [`RequestClass`] according
/// to a fixed mix (weights need not sum to 1; they are normalized).
#[derive(Debug, Clone)]
pub struct ClassMix {
    rng: TestRng,
    // Cumulative normalized weights in RequestClass::ALL order.
    cdf: [f64; 3],
}

impl ClassMix {
    /// A mix drawing critical/standard/background with the given weights,
    /// deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless every weight is non-negative and their sum positive.
    pub fn new(critical: f64, standard: f64, background: f64, seed: u64) -> Self {
        let w = [critical, standard, background];
        assert!(
            w.iter().all(|x| *x >= 0.0 && x.is_finite()),
            "weights must be non-negative"
        );
        let total: f64 = w.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        let mut acc = 0.0;
        let mut cdf = [0.0; 3];
        for (i, x) in w.iter().enumerate() {
            acc += x / total;
            cdf[i] = acc;
        }
        cdf[2] = 1.0;
        ClassMix {
            rng: TestRng::new(seed),
            cdf,
        }
    }

    /// The web-ish default: 10% critical, 60% standard, 30% background.
    pub fn standard_web(seed: u64) -> Self {
        ClassMix::new(0.1, 0.6, 0.3, seed)
    }

    /// Draws one request class.
    pub fn sample(&mut self) -> RequestClass {
        let u = self.rng.f64();
        for (i, c) in RequestClass::ALL.into_iter().enumerate() {
            if u < self.cdf[i] {
                return c;
            }
        }
        RequestClass::Background
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn constant(rate_per_sec: f64, seed: u64) -> ScheduledLoadGenerator {
        ScheduledLoadGenerator::new(RateSchedule::constant(rate_per_sec), seed, SimTime::ZERO)
    }

    #[test]
    fn arrival_rate_is_approximately_right() {
        let mut gen = constant(100.0, 7);
        let mut total = 0u32;
        for s in 1..=20 {
            total += gen.arrivals_until(SimTime::from_secs(s));
        }
        // 100/s over 20s: expect ~2000, Poisson σ≈45.
        assert!((1700..=2300).contains(&total), "total={total}");
    }

    #[test]
    fn deterministic_in_seed() {
        let run = |seed| {
            let mut gen = constant(50.0, seed);
            (1..=10)
                .map(|s| gen.arrivals_until(SimTime::from_secs(s)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn arrivals_are_monotone_and_consumed() {
        let mut gen = constant(10.0, 3);
        let first = gen.arrivals_until(SimTime::from_secs(5));
        let again = gen.arrivals_until(SimTime::from_secs(5));
        assert!(first > 0);
        assert_eq!(again, 0, "same instant yields nothing new");
        assert!(gen.next_arrival() > SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = constant(0.0, 1);
    }

    // ------------------------------------------------------------------
    // Per-tick cap + carry-over (regression: a long sim-time gap used to
    // return the whole backlog as one pathological burst).
    // ------------------------------------------------------------------

    #[test]
    fn regression_long_gap_is_capped_and_carries_over() {
        // 1000/s polled after 100 simulated seconds: ~100k arrivals backed
        // up, but one tick must never report more than the cap.
        let mut capped = constant(1000.0, 9).with_max_per_tick(500);
        let mut unbounded = constant(1000.0, 9).with_max_per_tick(u32::MAX);
        let t = SimTime::from_secs(100);
        let want = unbounded.arrivals_until(t);
        assert!(want > 50_000, "the gap really backs up a burst: {want}");
        let mut total = 0u64;
        let mut ticks = 0u64;
        loop {
            let n = capped.arrivals_until(t);
            if n == 0 {
                break;
            }
            assert!(n <= 500, "tick reported {n} > cap");
            total += u64::from(n);
            ticks += 1;
        }
        // Carry-over preserves the process: same RNG stream, same count.
        assert_eq!(total, u64::from(want));
        assert!(ticks >= u64::from(want) / 500);
        assert_eq!(capped.next_arrival(), unbounded.next_arrival());
    }

    #[test]
    fn default_cap_applies() {
        let mut gen = constant(100_000.0, 4);
        let n = gen.arrivals_until(SimTime::from_secs(10));
        assert_eq!(n, DEFAULT_MAX_ARRIVALS_PER_TICK);
        assert!(gen.next_arrival() < SimTime::from_secs(10), "backlog pends");
    }

    // ------------------------------------------------------------------
    // Zipf tenant popularity.
    // ------------------------------------------------------------------

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let mut z = ZipfSampler::new(50, 1.0, 21);
        let mut counts = vec![0u32; 50];
        for _ in 0..20_000 {
            counts[z.sample()] += 1;
        }
        // Rank 0 dominates; the tail is thin but present.
        assert!(counts[0] > counts[10] && counts[10] > 0, "{counts:?}");
        assert!(
            counts[0] as f64 / 20_000.0 > 1.5 * z.probability(1),
            "head probability should dominate rank 1"
        );
        let replay: Vec<usize> = {
            let mut z2 = ZipfSampler::new(50, 1.0, 21);
            (0..100).map(|_| z2.sample()).collect()
        };
        let mut z3 = ZipfSampler::new(50, 1.0, 21);
        let again: Vec<usize> = (0..100).map(|_| z3.sample()).collect();
        assert_eq!(replay, again);
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let z = ZipfSampler::new(17, 1.3, 1);
        let total: f64 = (0..17).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        assert_eq!(z.len(), 17);
        assert_eq!(z.pick(0.0), 0);
        assert_eq!(z.pick(0.999_999_9), 16);
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn zipf_empty_rejected() {
        let _ = ZipfSampler::new(0, 1.0, 1);
    }

    // ------------------------------------------------------------------
    // Rate schedules: flash crowds.
    // ------------------------------------------------------------------

    #[test]
    fn flash_crowd_multiplies_while_active() {
        let s = RateSchedule::constant(100.0).with_burst(Burst {
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(5),
            multiplier: 8.0,
        });
        assert!((s.rate_at(SimTime::from_secs(9)) - 100.0).abs() < 1e-9);
        assert!((s.rate_at(SimTime::from_secs(10)) - 800.0).abs() < 1e-9);
        assert!((s.rate_at(SimTime::from_secs(14)) - 800.0).abs() < 1e-9);
        assert!((s.rate_at(SimTime::from_secs(15)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scheduled_generator_tracks_the_burst() {
        let schedule = RateSchedule::constant(200.0).with_burst(Burst {
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(5),
            multiplier: 10.0,
        });
        let mut gen =
            ScheduledLoadGenerator::new(schedule, 5, SimTime::ZERO).with_max_per_tick(u32::MAX);
        let mut before = 0u32;
        for s in 1..=10 {
            before += gen.arrivals_until(SimTime::from_secs(s));
        }
        let mut during = 0u32;
        for s in 11..=15 {
            during += gen.arrivals_until(SimTime::from_secs(s));
        }
        // 10s at 200/s ≈ 2000; 5s at 2000/s ≈ 10000.
        assert!((1500..=2500).contains(&before), "before={before}");
        assert!((8000..=12000).contains(&during), "during={during}");
        // Deterministic replay.
        let mut gen2 = ScheduledLoadGenerator::new(
            RateSchedule::constant(200.0).with_burst(Burst {
                start: SimTime::from_secs(10),
                duration: SimDuration::from_secs(5),
                multiplier: 10.0,
            }),
            5,
            SimTime::ZERO,
        )
        .with_max_per_tick(u32::MAX);
        let mut replay = 0u32;
        for s in 1..=10 {
            replay += gen2.arrivals_until(SimTime::from_secs(s));
        }
        assert_eq!(before, replay);
    }

    // ------------------------------------------------------------------
    // Request-class mixes.
    // ------------------------------------------------------------------

    #[test]
    fn class_mix_respects_weights() {
        let mut m = ClassMix::new(0.1, 0.6, 0.3, 31);
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[m.sample().priority()] += 1;
        }
        assert!((700..=1300).contains(&counts[0]), "critical={}", counts[0]);
        assert!((5400..=6600).contains(&counts[1]), "standard={}", counts[1]);
        assert!(
            (2400..=3600).contains(&counts[2]),
            "background={}",
            counts[2]
        );
    }

    #[test]
    fn degenerate_mix_always_draws_that_class() {
        let mut m = ClassMix::new(0.0, 0.0, 5.0, 1);
        for _ in 0..100 {
            assert_eq!(m.sample(), RequestClass::Background);
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn all_zero_mix_rejected() {
        let _ = ClassMix::new(0.0, 0.0, 0.0, 1);
    }
}

#[cfg(test)]
mod properties {
    //! 200-case statistical pins: Poisson arrival counts stay inside
    //! mean ± 6σ, and the Zipf inverse-CDF binary search matches a naive
    //! linear-scan reference exactly. Seeded and replayable via
    //! `DOSGI_PROP_SEED`.

    use super::tests::constant;
    use super::*;
    use dosgi_testkit::prop::{self, Config, Gen};
    use dosgi_testkit::{prop_verify, prop_verify_eq};

    #[test]
    fn poisson_arrival_counts_match_rate_200_cases() {
        let cases = Gen::new(|rng: &mut TestRng| {
            let rate = 5.0 + rng.f64() * 495.0; // 5..500 req/s
            let secs = rng.u64_in(5, 30);
            let seed = rng.next_u64();
            (rate, secs, seed)
        });
        prop::check_with(
            &Config::with_cases(200),
            "poisson_arrival_counts_match_rate",
            &cases,
            |&(rate, secs, seed)| {
                let mut gen = constant(rate, seed).with_max_per_tick(u32::MAX);
                let mut total = 0u64;
                for s in 1..=secs {
                    total += u64::from(gen.arrivals_until(SimTime::from_secs(s)));
                }
                let mean = rate * secs as f64;
                // Poisson: σ = sqrt(mean); 6σ keeps the false-failure rate
                // negligible over 200 cases while still pinning the rate.
                let slack = 6.0 * mean.sqrt() + 1.0;
                prop_verify!(
                    (total as f64 - mean).abs() <= slack,
                    "rate {rate:.1}/s over {secs}s: {total} arrivals vs mean {mean:.0} ± {slack:.0}"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn capped_generator_conserves_arrivals_200_cases() {
        let cases = Gen::new(|rng: &mut TestRng| {
            let rate = 100.0 + rng.f64() * 1900.0;
            let cap = rng.u64_in(1, 64) as u32;
            let seed = rng.next_u64();
            (rate, cap, seed)
        });
        prop::check_with(
            &Config::with_cases(200),
            "capped_generator_conserves_arrivals",
            &cases,
            |&(rate, cap, seed)| {
                let t = SimTime::from_secs(2);
                let mut unbounded = constant(rate, seed).with_max_per_tick(u32::MAX);
                let want = unbounded.arrivals_until(t);
                let mut capped = constant(rate, seed).with_max_per_tick(cap);
                let mut total = 0u32;
                loop {
                    let n = capped.arrivals_until(t);
                    prop_verify!(n <= cap, "tick returned {n} > cap {cap}");
                    if n == 0 {
                        break;
                    }
                    total += n;
                }
                prop_verify_eq!(total, want, "cap {cap} lost or invented arrivals");
                Ok(())
            },
        );
    }

    #[test]
    fn zipf_pick_matches_naive_reference_200_cases() {
        let cases = Gen::new(|rng: &mut TestRng| {
            let n = rng.u64_in(1, 200) as usize;
            let exponent = 0.2 + rng.f64() * 2.3;
            let draws: Vec<f64> = (0..100).map(|_| rng.f64()).collect();
            (n, exponent, draws)
        });
        prop::check_with(
            &Config::with_cases(200),
            "zipf_pick_matches_naive_reference",
            &cases,
            |(n, exponent, draws)| {
                let z = ZipfSampler::new(*n, *exponent, 1);
                // Naive reference: un-normalized weights, linear scan.
                let weights: Vec<f64> = (1..=*n).map(|k| (k as f64).powf(-exponent)).collect();
                let total: f64 = weights.iter().sum();
                for &u in draws {
                    let mut acc = 0.0;
                    let mut naive = *n - 1;
                    for (k, w) in weights.iter().enumerate() {
                        acc += w / total;
                        if u < acc {
                            naive = k;
                            break;
                        }
                    }
                    prop_verify_eq!(
                        z.pick(u),
                        naive,
                        "n {n}, s {exponent:.2}, u {u}: binary search != linear scan"
                    );
                }
                // And the per-rank probabilities tile [0, 1].
                let sum: f64 = (0..*n).map(|k| z.probability(k)).sum();
                prop_verify!((sum - 1.0).abs() < 1e-9, "probabilities sum to {sum}");
                Ok(())
            },
        );
    }

    #[test]
    fn zipf_empirical_frequencies_match_analytic_200_cases() {
        let cases = Gen::new(|rng: &mut TestRng| {
            let n = rng.u64_in(2, 40) as usize;
            let exponent = 0.5 + rng.f64() * 1.5;
            let seed = rng.next_u64();
            (n, exponent, seed)
        });
        prop::check_with(
            &Config::with_cases(200),
            "zipf_empirical_frequencies_match_analytic",
            &cases,
            |&(n, exponent, seed)| {
                let mut z = ZipfSampler::new(n, exponent, seed);
                const DRAWS: u32 = 4_000;
                let mut counts = vec![0u32; n];
                for _ in 0..DRAWS {
                    counts[z.sample()] += 1;
                }
                // Binomial 6σ bound per rank.
                for (k, &c) in counts.iter().enumerate() {
                    let p = z.probability(k);
                    let mean = f64::from(DRAWS) * p;
                    let sigma = (f64::from(DRAWS) * p * (1.0 - p)).sqrt();
                    prop_verify!(
                        (f64::from(c) - mean).abs() <= 6.0 * sigma + 1.0,
                        "rank {k}/{n} (s {exponent:.2}): {c} draws vs mean {mean:.1} σ {sigma:.1}"
                    );
                }
                Ok(())
            },
        );
    }
}
