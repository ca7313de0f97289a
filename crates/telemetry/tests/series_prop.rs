//! Property tests for the time-series layer: the [`SeriesScraper`]'s
//! windowed rate and percentile series pinned against a naive
//! recompute-from-scratch reference that keeps every raw sample, plus a
//! ring-overflow downsampling regression asserting the `dropped_points`
//! accounting is exact.

use dosgi_telemetry::series::window_percentile;
use dosgi_telemetry::{
    bucket_bounds, bucket_index, ScrapeConfig, Series, SeriesKind, SeriesPoint, SeriesScraper,
    Telemetry, DROPPED_POINTS,
};
use dosgi_testkit::prop::{self, Config, Gen};
use dosgi_testkit::rng::TestRng;
use dosgi_testkit::{prop_verify, prop_verify_eq};

/// One sim step of recorded traffic, as raw events.
#[derive(Debug, Clone)]
struct Step {
    counter_incs: u64,
    gauge: i64,
    hist_samples: Vec<u64>,
}

/// A run: a handful of scrape windows, each made of raw steps.
#[derive(Debug, Clone)]
struct Run {
    windows: Vec<Vec<Step>>,
}

fn runs() -> Gen<Run> {
    Gen::new(|rng: &mut TestRng| {
        let windows = rng.usize_in(1, 8);
        let run = (0..windows)
            .map(|_| {
                let steps = rng.usize_in(0, 6);
                (0..steps)
                    .map(|_| Step {
                        counter_incs: rng.u64_in(0, 50),
                        gauge: rng.u64_in(0, 10_000) as i64 - 5_000,
                        hist_samples: (0..rng.usize_in(0, 12))
                            .map(|_| match rng.u64_below(3) {
                                0 => rng.u64_in(0, 16),
                                1 => 1u64 << rng.u64_below(32),
                                _ => rng.u64_in(0, 1_000_000),
                            })
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        Run { windows: run }
    })
}

/// Naive reference percentile: sort the window's raw samples, take the
/// ceil-rank `⌈n·p/100⌉`-th smallest, and return the lower bound of its
/// log bucket (what an unclamped bucket percentile must produce).
fn naive_window_percentile(samples: &[u64], p: u64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() as u64).saturating_mul(p).div_ceil(100) as usize;
    Some(bucket_bounds(bucket_index(sorted[rank - 1])).0)
}

#[test]
fn series_match_naive_recompute_200_cases() {
    prop::check_with(
        &Config::with_cases(200),
        "series_match_naive_recompute",
        &runs(),
        |run| {
            let t = Telemetry::new();
            let mut scraper = SeriesScraper::new(ScrapeConfig {
                cadence_us: 1_000_000,
                capacity: 64,
            });
            // The naive model: per window, re-derived from raw events.
            // The counter and gauge are *created* by the first step that
            // touches them (even a zero-valued add), so the scraper emits
            // points for them from the first window containing any step.
            let mut want_rates: Vec<(u64, i64)> = Vec::new();
            let mut want_gauges: Vec<(u64, i64)> = Vec::new();
            let mut want_pcts: Vec<(u64, [i64; 3])> = Vec::new();
            let mut gauge_now = 0i64;
            let mut active = false;

            for (w, steps) in run.windows.iter().enumerate() {
                let now_us = w as u64 * 1_000_000;
                let mut window_incs = 0u64;
                let mut window_samples: Vec<u64> = Vec::new();
                for s in steps {
                    t.add("ops", s.counter_incs);
                    window_incs += s.counter_incs;
                    t.gauge_set("depth", s.gauge);
                    gauge_now = s.gauge;
                    active = true;
                    for &v in &s.hist_samples {
                        t.record("lat", v);
                        window_samples.push(v);
                    }
                }
                prop_verify!(scraper.scrape(&t, now_us), "scrape due every window");
                if active {
                    want_rates.push((now_us, window_incs as i64));
                    want_gauges.push((now_us, gauge_now));
                }
                if !window_samples.is_empty() {
                    let p = [50u64, 95, 99]
                        .map(|p| naive_window_percentile(&window_samples, p).unwrap() as i64);
                    want_pcts.push((now_us, p));
                }
            }

            // Counter rates: exact per-window deltas, one point per scrape.
            let got_rates: Vec<(u64, i64)> = scraper
                .series("rate:ops")
                .map(|s| s.points().map(|p| (p.at_us, p.value)).collect())
                .unwrap_or_default();
            prop_verify_eq!(got_rates, want_rates);

            // Gauges: the last-written value sampled at each scrape.
            let got_gauges: Vec<(u64, i64)> = scraper
                .series("gauge:depth")
                .map(|s| s.points().map(|p| (p.at_us, p.value)).collect())
                .unwrap_or_default();
            prop_verify_eq!(got_gauges, want_gauges);

            // Percentiles: each point equals the naive recompute from the
            // window's raw samples; quiet windows emit no point.
            for (kind, idx) in [
                (SeriesKind::P50, 0),
                (SeriesKind::P95, 1),
                (SeriesKind::P99, 2),
            ] {
                let name = format!("{}:lat", kind.prefix());
                let got: Vec<(u64, i64)> = scraper
                    .series(&name)
                    .map(|s| s.points().map(|p| (p.at_us, p.value)).collect())
                    .unwrap_or_default();
                let want: Vec<(u64, i64)> = want_pcts.iter().map(|&(at, p)| (at, p[idx])).collect();
                prop_verify_eq!(got, want);
            }

            // p50 ≤ p95 ≤ p99 at every point, by construction.
            for &(_, [p50, p95, p99]) in &want_pcts {
                prop_verify!(p50 <= p95 && p95 <= p99, "percentile ordering");
            }
            Ok(())
        },
    );
}

#[test]
fn window_percentile_matches_naive_reference_200_cases() {
    let samples = Gen::new(|rng: &mut TestRng| {
        let n = rng.usize_in(1, 300);
        (0..n)
            .map(|_| match rng.u64_below(4) {
                0 => 0,
                1 => rng.u64_in(1, 100),
                2 => 1u64 << rng.u64_below(63),
                _ => rng.next_u64(),
            })
            .collect::<Vec<u64>>()
    });
    prop::check_with(
        &Config::with_cases(200),
        "window_percentile_matches_naive",
        &samples,
        |samples| {
            let mut buckets = [0u64; dosgi_telemetry::BUCKETS];
            for &v in samples {
                buckets[bucket_index(v)] += 1;
            }
            for p in [1u64, 50, 90, 95, 99, 100] {
                prop_verify_eq!(
                    window_percentile(&buckets, samples.len() as u64, p),
                    naive_window_percentile(samples, p)
                );
            }
            Ok(())
        },
    );
}

/// Regression: however many points flow through a ring, the accounting
/// `appended == retained + dropped` is exact — per series and in the
/// registry-wide `telemetry.series.dropped_points` counter.
#[test]
fn downsampling_drop_accounting_is_exact() {
    for (capacity, pushes) in [(10, 11), (10, 1000), (240, 10_000), (7, 7), (3, 100)] {
        let mut s = Series::new(SeriesKind::Rate, capacity);
        for i in 0..pushes {
            s.push(SeriesPoint {
                at_us: i as u64,
                value: i as i64,
            });
            assert_eq!(
                s.appended(),
                s.len() as u64 + s.dropped(),
                "capacity {capacity}, push {i}"
            );
            assert!(s.len() <= capacity, "ring exceeded capacity");
        }
        assert_eq!(s.appended(), pushes as u64);
        // Timestamps stay strictly increasing through compaction.
        let times: Vec<u64> = s.points().map(|p| p.at_us).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "unordered ring");
        // The newest point always survives a compaction.
        assert_eq!(s.last().unwrap().at_us, pushes as u64 - 1);
    }
}

/// Regression: a full ring frees at least one slot on every push, whatever
/// its capacity. (A group of one keeps its point, so compaction alone left a
/// ring of capacity 1 holding two.)
#[test]
fn every_capacity_holds_at_most_its_capacity() {
    for capacity in 1..=25 {
        let mut s = Series::new(SeriesKind::Gauge, capacity);
        for i in 0..200u64 {
            s.push(SeriesPoint {
                at_us: i,
                value: i as i64,
            });
            assert!(s.len() <= s.capacity(), "capacity {capacity}, push {i}");
            assert_eq!(
                s.appended(),
                s.len() as u64 + s.dropped(),
                "capacity {capacity}, push {i}"
            );
        }
        assert_eq!(s.last().map(|p| p.at_us), Some(199));
    }
}

/// Metric names, the ones written from the start and the ones first written
/// in a later window, in the order they sort.
const NAMES: [&str; 7] = ["a", "b", "c", "d", "e", "f", "g"];
const FROM_THE_START: [&str; 3] = ["b", "d", "f"];

/// Per window, `(name, value)` of every metric written in it: the names
/// written from the start in any window, each other one from a window of
/// its own on (or never).
fn arrivals() -> Gen<Vec<Vec<(usize, u64)>>> {
    Gen::new(|rng: &mut TestRng| {
        let windows = rng.usize_in(2, 12);
        let first: Vec<usize> = NAMES
            .iter()
            .map(|n| {
                if FROM_THE_START.contains(n) {
                    0
                } else {
                    rng.usize_in(1, windows)
                }
            })
            .collect();
        (0..windows)
            .map(|w| {
                let mut writes = Vec::new();
                for (i, &from) in first.iter().enumerate() {
                    if from <= w && rng.chance(0.7) {
                        writes.push((i, rng.u64_in(0, 5_000)));
                    }
                }
                writes
            })
            .collect()
    })
}

/// Names first written between scrapes — sorting before, between and after
/// the ones the scraper already follows — through one scraper, against a
/// scraper per name that never sees another: every series is the same,
/// point for point, with the same compaction.
#[test]
fn names_arriving_between_scrapes_match_a_scraper_per_name_200_cases() {
    prop::check_with(
        &Config::with_cases(200),
        "names_arriving_between_scrapes",
        &arrivals(),
        |windows| {
            let config = ScrapeConfig {
                cadence_us: 1_000,
                capacity: 8,
            };
            let (shared, mut scraper) = (Telemetry::new(), SeriesScraper::new(config.clone()));
            let mut per_name: Vec<(Telemetry, SeriesScraper)> = NAMES
                .iter()
                .map(|_| (Telemetry::new(), SeriesScraper::new(config.clone())))
                .collect();
            for (w, writes) in windows.iter().enumerate() {
                for &(i, v) in writes {
                    for t in [&shared, &per_name[i].0] {
                        t.add(NAMES[i], v);
                        t.gauge_set(NAMES[i], v as i64);
                        t.record(NAMES[i], v);
                    }
                }
                let now_us = w as u64 * 1_000;
                prop_verify!(scraper.scrape(&shared, now_us), "scrape due every window");
                for (t, s) in &mut per_name {
                    s.scrape(t, now_us);
                }
            }
            let mut names = Vec::new();
            for (i, name) in NAMES.iter().enumerate() {
                for kind in ["rate", "gauge", "p50", "p95", "p99"] {
                    let series = format!("{kind}:{name}");
                    let of = |s: &SeriesScraper| {
                        s.series(&series)
                            .map(|s| (s.points().copied().collect::<Vec<_>>(), s.dropped()))
                    };
                    prop_verify_eq!(of(&scraper), of(&per_name[i].1), "{series}");
                }
                names.extend(per_name[i].1.series_names());
            }
            names.sort();
            prop_verify_eq!(scraper.series_names(), names);
            Ok(())
        },
    );
}

/// Regression: the scraper mirrors every compaction into the registry
/// counter, and a long run through small rings stays bounded.
#[test]
fn scraper_drop_counter_is_exact_over_overflowing_run() {
    let t = Telemetry::new();
    let mut scraper = SeriesScraper::new(ScrapeConfig {
        cadence_us: 1_000,
        capacity: 16,
    });
    for i in 0..500u64 {
        t.add("ops", i % 7);
        t.gauge_set("depth", (i % 13) as i64);
        t.record("lat", i * 31);
        scraper.scrape(&t, i * 1_000);
    }
    assert_eq!(scraper.scrapes(), 500);
    let dropped = scraper.total_dropped();
    assert!(dropped > 0, "500 scrapes through 16-rings must compact");
    assert_eq!(t.counter(DROPPED_POINTS), dropped);
    // Points retained across all series: bounded by `series_count() *
    // capacity` forever, regardless of run length.
    let points: usize = scraper
        .series_names()
        .iter()
        .map(|name| scraper.series(name).unwrap().len())
        .sum();
    assert_eq!(scraper.total_appended(), points as u64 + dropped);
    assert!(points <= scraper.series_count() * 16);
    // 10:1 compaction: a full ring shrinks to ceil(capacity/10) points,
    // so each series holds at most capacity points forever.
    for name in scraper.series_names() {
        let s = scraper.series(&name).unwrap();
        assert!(s.len() <= s.capacity());
        assert_eq!(s.appended(), s.len() as u64 + s.dropped());
    }
}
