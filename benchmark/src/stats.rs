//! How a wall-clock number is made: calibration scaling, the order
//! statistic over repetitions, percentiles. Pure functions, tested against
//! naive references.

/// The calibration reading (`cal::read`) the sizing box gives in its usual
/// state, in microseconds. A committed constant, never re-measured: it only
/// fixes the unit in which rescaled times are expressed, so two commits
/// measured with the same constant compare as their raw times would on a
/// steady machine.
pub const CAL_REF_US: f64 = 100.0;

/// Rescales a time measured while the calibration reading was `kernel_us`
/// to what it would have been at reference speed. `exponent` is the
/// workload's [`CAL_EXPONENT`](crate::workloads::Workload::CAL_EXPONENT):
/// when the kernel slows down by a factor `f`, the workload slows down by
/// `f^exponent`.
pub fn to_reference_speed(raw_ns: f64, kernel_us: f64, exponent: f64) -> f64 {
    raw_ns * (CAL_REF_US / kernel_us).powf(exponent)
}

/// Which order statistic over the repetitions stands for an op: the
/// median. The issue proposed the minimum ("interference only adds time"),
/// and that is true of a raw sample; but each sample is divided by a
/// calibration reading that is noisy itself, and a low order statistic of
/// rescaled samples picks out lucky readings and whichever machine state
/// the rescaling flatters. The noise study in `README.md` has the numbers.
pub const REP_PERCENTILE: usize = 50;

/// Element-wise [`REP_PERCENTILE`] over repetitions of the same
/// deterministic op sequence: op `i` does identical work in every
/// repetition, so its samples differ only by what the machine did.
///
/// # Panics
///
/// Panics if `reps` is empty or the repetitions differ in length.
pub fn over_reps(reps: &[&[f64]]) -> Vec<f64> {
    let first = reps.first().expect("at least one repetition");
    for rep in reps {
        assert_eq!(rep.len(), first.len(), "repetitions run the same ops");
    }
    let mut samples = vec![0.0; reps.len()];
    (0..first.len())
        .map(|i| {
            for (s, rep) in samples.iter_mut().zip(reps) {
                *s = rep[i];
            }
            sort(&mut samples);
            percentile(&samples, REP_PERCENTILE)
        })
        .collect()
}

/// Sorts a sample in place (times are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.total_cmp(b));
}

/// The `p`-th percentile of an ascending sample by the repository's
/// nearest-rank rule, `sorted[(n - 1) * p / 100]` (0 for an empty sample).
pub fn percentile<T: Copy + Default>(sorted: &[T], p: usize) -> T {
    match sorted.len() {
        0 => T::default(),
        n => sorted[(n - 1) * p / 100],
    }
}

/// Sorts a copy and takes its `p`-th percentile.
pub fn percentile_of(values: &[f64], p: usize) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, p)
}

/// Exact percentiles of a stream of integer samples without keeping the
/// stream: a count per distinct value. Modeled latencies take few distinct
/// values (they are multiples of a service time or a tick), so this stays a
/// handful of entries where a sample vector would be megabytes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ValueCounts {
    counts: std::collections::BTreeMap<u64, u64>,
    total: u64,
}

impl ValueCounts {
    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Forgets every sample.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `p`-th percentile by the same rule as [`percentile`] (0 if
    /// empty).
    pub fn percentile(&self, p: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (self.total - 1) * p / 100;
        let mut seen = 0;
        for (&value, &count) in &self.counts {
            seen += count;
            if rank < seen {
                return value;
            }
        }
        unreachable!("rank is below the total")
    }
}

/// Median of the last tenth of the ops over the median of the first
/// tenth: 1.0 when an op costs the same at the end of the window as at the
/// start, above it when the system slows down as it ages.
pub fn drift_ratio(op_times: &[f64]) -> f64 {
    if op_times.is_empty() {
        return 1.0;
    }
    let tenth = (op_times.len() / 10).max(1);
    let first = percentile_of(&op_times[..tenth], 50);
    let last = percentile_of(&op_times[op_times.len() - tenth..], 50);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::TestRng;

    fn sample(rng: &mut TestRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.u64_below(10_000) as f64 / 7.0).collect()
    }

    #[test]
    fn scaling_is_the_identity_at_reference_speed() {
        for exponent in [1.0, 1.08, 1.3] {
            for raw in [0.0, 1.0, 79_000.0, 1.5e9] {
                assert_eq!(to_reference_speed(raw, CAL_REF_US, exponent), raw);
            }
        }
    }

    #[test]
    fn scaling_divides_out_the_modeled_slowdown() {
        // A kernel reading 1.4x the reference means the workload ran
        // 1.4^exponent slow.
        for exponent in [1.0, 1.25] {
            let slow = 1.4f64;
            let raw = 79_000.0 * slow.powf(exponent);
            let scaled = to_reference_speed(raw, CAL_REF_US * slow, exponent);
            assert!((scaled - 79_000.0).abs() < 1e-6, "{scaled}");
        }
    }

    #[test]
    fn over_reps_matches_a_naive_reference() {
        let mut rng = TestRng::new(12);
        for case in 0..200 {
            let reps = 1 + case % 12;
            let ops = 1 + rng.usize_in(0, 40);
            let data: Vec<Vec<f64>> = (0..reps).map(|_| sample(&mut rng, ops)).collect();
            let slices: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
            let got = over_reps(&slices);
            assert_eq!(got.len(), ops);
            for (i, &g) in got.iter().enumerate() {
                // Naive: the sample with exactly `rank` samples before it
                // when ties are broken by repetition number.
                let rank = (reps - 1) * REP_PERCENTILE / 100;
                let naive = (0..reps)
                    .map(|r| data[r][i])
                    .enumerate()
                    .find(|&(r, x)| {
                        let before = (0..reps)
                            .filter(|&q| data[q][i] < x || (data[q][i] == x && q < r))
                            .count();
                        before == rank
                    })
                    .map(|(_, x)| x);
                assert_eq!(Some(g), naive, "case {case} op {i}");
            }
        }
        // One repetition stands for itself; ten give the lower median.
        assert_eq!(over_reps(&[&[4.0, 2.0]]), vec![4.0, 2.0]);
        let ten: Vec<[f64; 1]> = (0..10).rev().map(|i| [f64::from(i)]).collect();
        let ten: Vec<&[f64]> = ten.iter().map(|r| r.as_slice()).collect();
        assert_eq!(over_reps(&ten), vec![4.0]);
    }

    #[test]
    #[should_panic(expected = "repetitions run the same ops")]
    fn over_reps_rejects_ragged_input() {
        over_reps(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn value_counts_match_the_sorted_sample() {
        let mut rng = TestRng::new(14);
        for case in 0..200 {
            let n = rng.usize_in(0, 80);
            let mut counts = ValueCounts::default();
            let mut values: Vec<u64> = (0..n).map(|_| 125 * rng.u64_below(6)).collect();
            for &v in &values {
                counts.record(v);
            }
            values.sort_unstable();
            assert_eq!(counts.len(), n as u64);
            for p in [0, 25, 50, 90, 100] {
                assert_eq!(
                    counts.percentile(p as u64),
                    percentile(&values, p),
                    "case {case} p{p}"
                );
            }
            counts.clear();
            assert!(counts.is_empty());
            assert_eq!(counts.percentile(50), 0);
        }
    }

    #[test]
    fn percentile_matches_a_naive_reference() {
        // Naive nearest-rank: the smallest element with at least
        // floor((n-1)*p/100) elements strictly before it in sorted order,
        // found by counting instead of indexing.
        let mut rng = TestRng::new(13);
        for case in 0..200 {
            let n = 1 + rng.usize_in(0, 60);
            let values = sample(&mut rng, n);
            for p in [0, 10, 50, 90, 99, 100] {
                let rank = (n - 1) * p / 100;
                let naive = values
                    .iter()
                    .copied()
                    .filter(|&x| {
                        let below = values.iter().filter(|&&y| y < x).count();
                        let at_or_below = values.iter().filter(|&&y| y <= x).count();
                        below <= rank && rank < at_or_below
                    })
                    .fold(f64::NAN, f64::max);
                assert_eq!(percentile_of(&values, p), naive, "case {case} p{p}");
            }
        }
        assert_eq!(percentile::<f64>(&[], 50), 0.0);
        assert_eq!(percentile(&[7u64], 90), 7);
    }

    #[test]
    fn drift_ratio_reads_growth_and_flatness() {
        let flat = vec![5.0; 100];
        assert_eq!(drift_ratio(&flat), 1.0);
        let growing: Vec<f64> = (0..100).map(|i| 10.0 + i as f64).collect();
        // first tenth 10..19 -> median 14, last tenth 100..109 -> median 104
        assert_eq!(drift_ratio(&growing), 104.0 / 14.0);
        assert_eq!(drift_ratio(&[]), 1.0);
        assert_eq!(drift_ratio(&[3.0]), 1.0);
    }
}
