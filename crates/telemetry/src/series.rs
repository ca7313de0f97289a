//! Deterministic time-series: bounded ring-buffer series scraped from the
//! metric registry on a fixed sim-time cadence.
//!
//! A [`SeriesScraper`] turns the cumulative registry into time-resolved
//! points once per cadence tick:
//!
//! * **counters** become *windowed rates* — the exact delta of the
//!   cumulative counter since the previous scrape;
//! * **gauges** are *sampled* — the last-written value at scrape time;
//! * **histograms** export *per-window percentiles* — p50/p95/p99
//!   computed from the delta of the cumulative bucket counts since the
//!   previous scrape (only the samples recorded inside the window).
//!
//! Each series is a bounded ring ([`Series`]): when a ring fills, it is
//! compacted **10:1** ([`DOWNSAMPLE`]) — the buffer is scanned oldest
//! first in groups of ten and only the last point of each group is kept,
//! so old history thins out while recent points stay dense. Every point
//! lost to compaction is accounted exactly: per series in
//! [`Series::dropped`], and registry-wide in the
//! `telemetry.series.dropped_points` counter ([`DROPPED_POINTS`]). The
//! invariant `appended == retained + dropped` holds at all times.
//!
//! ## Determinism contract
//!
//! The scraper is as passive as the registry it reads: it consumes no
//! randomness, never reads the wall clock, and never influences the
//! instrumented code — in particular it must never touch the simulator's
//! fault-injector RNG stream. Timestamps are caller-supplied sim-time
//! microseconds; scraping on a fixed cadence from the sim driver's step
//! loop therefore yields byte-identical series on replay, and a chaos
//! fingerprint that is identical whether series collection is on or off.

use crate::handle::merge_entries;
use crate::{bucket_bounds, Telemetry, BUCKETS};
use std::collections::{BTreeMap, VecDeque};

/// Counter incremented (registry-wide) for every point lost to ring
/// compaction across all series held by a scraper.
pub const DROPPED_POINTS: &str = "telemetry.series.dropped_points";

/// Default ring capacity per series: one minute of history at the
/// default cadence before the first compaction.
pub const DEFAULT_SERIES_CAPACITY: usize = 240;

/// Default scrape cadence: 250 ms of sim time.
pub const DEFAULT_CADENCE_US: u64 = 250_000;

/// Compaction ratio: on overflow, each group of this many consecutive
/// points is replaced by its most recent member.
pub const DOWNSAMPLE: usize = 10;

/// One sample of a series: sim-time microseconds and a value.
///
/// Rates and percentiles are non-negative but share the gauge's `i64`
/// domain so every series has one point type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Scrape time, simulated microseconds.
    pub at_us: u64,
    /// Windowed rate, sampled gauge, or window percentile.
    pub value: i64,
}

/// What a series' points mean (and the `kind:` prefix of its name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// Counter delta per scrape window.
    Rate,
    /// Gauge value at scrape time.
    Gauge,
    /// Median of the histogram samples recorded in the window.
    P50,
    /// 95th percentile of the window's samples.
    P95,
    /// 99th percentile of the window's samples.
    P99,
}

impl SeriesKind {
    /// The series-name prefix for this kind (`rate`, `gauge`, `p50`, …).
    pub fn prefix(self) -> &'static str {
        match self {
            SeriesKind::Rate => "rate",
            SeriesKind::Gauge => "gauge",
            SeriesKind::P50 => "p50",
            SeriesKind::P95 => "p95",
            SeriesKind::P99 => "p99",
        }
    }
}

/// A bounded ring of [`SeriesPoint`]s with 10:1 overflow compaction and
/// exact drop accounting.
#[derive(Debug, Clone)]
pub struct Series {
    kind: SeriesKind,
    points: VecDeque<SeriesPoint>,
    capacity: usize,
    appended: u64,
    dropped: u64,
}

impl Series {
    /// An empty series of `kind` holding at most `capacity` points.
    pub fn new(kind: SeriesKind, capacity: usize) -> Self {
        Series {
            kind,
            points: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            appended: 0,
            dropped: 0,
        }
    }

    /// Append one point, compacting first if the ring is full. A group of
    /// one keeps its point, so a ring of capacity 1 drops its oldest.
    pub fn push(&mut self, p: SeriesPoint) {
        if self.points.len() >= self.capacity {
            self.compact();
            if self.points.len() >= self.capacity {
                self.points.pop_front();
                self.dropped += 1;
            }
        }
        self.points.push_back(p);
        self.appended += 1;
    }

    /// 10:1 in-place compaction: scan oldest-first in groups of
    /// [`DOWNSAMPLE`], keep each group's last (most recent) point, and
    /// count every discarded point into `dropped`.
    fn compact(&mut self) {
        let n = self.points.len();
        let mut kept = 0;
        let mut i = 0;
        while i < n {
            let end = (i + DOWNSAMPLE).min(n);
            self.points[kept] = self.points[end - 1];
            kept += 1;
            self.dropped += (end - 1 - i) as u64;
            i = end;
        }
        self.points.truncate(kept);
    }

    /// The series' point semantics.
    pub fn kind(&self) -> SeriesKind {
        self.kind
    }

    /// Points currently retained, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points.iter()
    }

    /// Number of points currently retained (never exceeds capacity).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has survived (or ever been pushed).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent point, if any.
    pub fn last(&self) -> Option<SeriesPoint> {
        self.points.back().copied()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total points ever pushed. Always `len() + dropped()`.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Points lost to compaction, exactly.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The unclamped `p`-th percentile of a *window* histogram given by
/// delta bucket counts: the lower bound of the bucket holding the
/// ceil-rank `⌈count·p/100⌉`-th smallest window sample.
///
/// Unlike [`Histogram::percentile`](crate::Histogram::percentile) this
/// cannot clamp into `[min, max]`
/// — a window's exact extrema are not recoverable from cumulative
/// histograms — so it is a pure function of the delta buckets, which is
/// what makes it exactly reproducible from a naive recompute.
pub fn window_percentile(buckets: &[u64; BUCKETS], count: u64, p: u64) -> Option<u64> {
    if count == 0 || p == 0 || p > 100 {
        return None;
    }
    let rank = count.saturating_mul(p).div_ceil(100);
    let mut cum = 0u64;
    for (i, c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return Some(bucket_bounds(i).0);
        }
    }
    None // unreachable when count matches the bucket sum
}

/// Scraper knobs.
#[derive(Debug, Clone)]
pub struct ScrapeConfig {
    /// Sim-time microseconds between scrapes.
    pub cadence_us: u64,
    /// Ring capacity per series.
    pub capacity: usize,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig {
            cadence_us: DEFAULT_CADENCE_US,
            capacity: DEFAULT_SERIES_CAPACITY,
        }
    }
}

/// The percentile series a histogram feeds, in [`HistCursor::series`] order.
const PERCENTILES: [(SeriesKind, u64); 3] = [
    (SeriesKind::P50, 50),
    (SeriesKind::P95, 95),
    (SeriesKind::P99, 99),
];

/// A counter's cumulative value at the previous scrape, and its rate series.
struct RateCursor {
    last: u64,
    series: Series,
}

/// A histogram's cumulative buckets at the previous scrape, and its
/// percentile series.
struct HistCursor {
    buckets: [u64; BUCKETS],
    count: u64,
    series: [Series; 3],
}

/// Scrapes a [`Telemetry`] registry into bounded time series on a fixed
/// sim-time cadence. See the module docs for the point semantics.
///
/// Series live with the per-metric cursor that feeds them, keyed by the
/// metric name. A scrape walks each kind's cursors beside the registry's
/// name-ordered read — one merge, no lookup per metric — allocates only
/// for a metric it has not seen before, and never builds a
/// `<kind>:<metric>` string.
pub struct SeriesScraper {
    config: ScrapeConfig,
    next_due_us: Option<u64>,
    rates: BTreeMap<String, RateCursor>,
    gauges: BTreeMap<String, Series>,
    hists: BTreeMap<String, HistCursor>,
    scrapes: u64,
}

impl SeriesScraper {
    /// A scraper with the given cadence and ring capacity.
    pub fn new(config: ScrapeConfig) -> Self {
        SeriesScraper {
            config,
            next_due_us: None,
            rates: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            scrapes: 0,
        }
    }

    /// True when a scrape is due at `now_us` (always, before the first).
    pub fn due(&self, now_us: u64) -> bool {
        self.next_due_us.is_none_or(|d| now_us >= d)
    }

    /// Scrape once if the cadence says a scrape is due at `now_us`.
    /// Returns `true` when a scrape happened. The first call always
    /// scrapes (establishing the baseline window from zero).
    pub fn scrape(&mut self, telemetry: &Telemetry, now_us: u64) -> bool {
        if !self.due(now_us) {
            return false;
        }
        self.next_due_us = Some(now_us + self.config.cadence_us);
        self.scrapes += 1;

        let capacity = self.config.capacity;
        let (rates, gauge_series, hists) = (&mut self.rates, &mut self.gauges, &mut self.hists);
        let mut newly_dropped = 0u64;
        let mut push = |series: &mut Series, value: i64| {
            let before = series.dropped();
            series.push(SeriesPoint {
                at_us: now_us,
                value,
            });
            newly_dropped += series.dropped() - before;
        };
        telemetry.read(|counters, gauges, histograms| {
            // The drop-accounting counter is written by the scraper itself
            // *after* this read; tracking a series of it would only echo the
            // scraper back at itself.
            let counters = counters
                .iter()
                .filter(|(name, _)| !name.starts_with("telemetry.series."));
            let new = || RateCursor {
                last: 0,
                series: Series::new(SeriesKind::Rate, capacity),
            };
            merge_entries(rates, counters, new, |cursor, cum| {
                let delta = cum.saturating_sub(cursor.last);
                cursor.last = cum;
                push(&mut cursor.series, delta as i64);
            });
            let new = || Series::new(SeriesKind::Gauge, capacity);
            merge_entries(gauge_series, gauges.iter(), new, |series, v| {
                push(series, v)
            });
            let new = || HistCursor {
                buckets: [0; BUCKETS],
                count: 0,
                series: PERCENTILES.map(|(kind, _)| Series::new(kind, capacity)),
            };
            merge_entries(hists, histograms.iter(), new, |cursor, h| {
                let mut delta = [0u64; BUCKETS];
                for (i, slot) in delta.iter_mut().enumerate() {
                    *slot = h.bucket(i).saturating_sub(cursor.buckets[i]);
                    cursor.buckets[i] = h.bucket(i);
                }
                let delta_count = h.count().saturating_sub(cursor.count);
                cursor.count = h.count();
                // No samples this window: no percentile point.
                for (series, (_, p)) in cursor.series.iter_mut().zip(PERCENTILES) {
                    if let Some(v) = window_percentile(&delta, delta_count, p) {
                        push(series, v as i64);
                    }
                }
            });
        });

        if newly_dropped > 0 {
            telemetry.add(DROPPED_POINTS, newly_dropped);
        }
        true
    }

    /// The series named `<kind>:<metric>`, if it exists.
    pub fn series(&self, name: &str) -> Option<&Series> {
        let (prefix, metric) = name.split_once(':')?;
        match prefix {
            "rate" => self.rates.get(metric).map(|c| &c.series),
            "gauge" => self.gauges.get(metric),
            _ => {
                let i = PERCENTILES.iter().position(|(k, _)| k.prefix() == prefix)?;
                Some(&self.hists.get(metric)?.series[i])
            }
        }
    }

    /// Every series with its metric name, sorted by `<kind>:<metric>`.
    fn all(&self) -> impl Iterator<Item = (&str, &Series)> {
        let gauges = self.gauges.iter().map(|(m, s)| (m.as_str(), s));
        let percentiles = (0..PERCENTILES.len()).flat_map(move |i| {
            self.hists
                .iter()
                .map(move |(m, c)| (m.as_str(), &c.series[i]))
        });
        let rates = self.rates.iter().map(|(m, c)| (m.as_str(), &c.series));
        gauges.chain(percentiles).chain(rates)
    }

    /// All series names (`<kind>:<metric>`), sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.all()
            .map(|(metric, s)| format!("{}:{metric}", s.kind().prefix()))
            .collect()
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.all().count()
    }

    /// Points lost to compaction across all series, exactly.
    pub fn total_dropped(&self) -> u64 {
        self.all().map(|(_, s)| s.dropped()).sum()
    }

    /// Points ever appended across all series.
    pub fn total_appended(&self) -> u64 {
        self.all().map(|(_, s)| s.appended()).sum()
    }

    /// Scrapes performed so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes
    }

    /// The configured cadence in sim-time microseconds.
    pub fn cadence_us(&self) -> u64 {
        self.config.cadence_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_exact_deltas_and_gauges_are_samples() {
        let t = Telemetry::new();
        let mut s = SeriesScraper::new(ScrapeConfig::default());
        t.add("ops", 5);
        t.gauge_set("depth", 3);
        assert!(s.scrape(&t, 0));
        t.add("ops", 7);
        t.gauge_set("depth", -1);
        assert!(s.scrape(&t, 250_000));
        let rate: Vec<i64> = s
            .series("rate:ops")
            .unwrap()
            .points()
            .map(|p| p.value)
            .collect();
        assert_eq!(rate, vec![5, 7]);
        let depth: Vec<i64> = s
            .series("gauge:depth")
            .unwrap()
            .points()
            .map(|p| p.value)
            .collect();
        assert_eq!(depth, vec![3, -1]);
    }

    #[test]
    fn cadence_gates_scrapes() {
        let t = Telemetry::new();
        let mut s = SeriesScraper::new(ScrapeConfig {
            cadence_us: 1000,
            capacity: 8,
        });
        assert!(s.scrape(&t, 0));
        assert!(!s.scrape(&t, 999));
        assert!(s.scrape(&t, 1000));
        assert_eq!(s.scrapes(), 2);
    }

    #[test]
    fn window_percentiles_come_from_the_window_only() {
        let t = Telemetry::new();
        let mut s = SeriesScraper::new(ScrapeConfig::default());
        for _ in 0..100 {
            t.record("lat", 10); // bucket [8,16)
        }
        assert!(s.scrape(&t, 0));
        for _ in 0..100 {
            t.record("lat", 5000); // bucket [4096,8192)
        }
        assert!(s.scrape(&t, 250_000));
        let p50: Vec<i64> = s
            .series("p50:lat")
            .unwrap()
            .points()
            .map(|p| p.value)
            .collect();
        // First window is all 10s (bucket floor 8); second window is all
        // 5000s (bucket floor 4096) — the first window's samples must not
        // bleed into the second.
        assert_eq!(p50, vec![8, 4096]);
    }

    #[test]
    fn quiet_histogram_window_emits_no_point() {
        let t = Telemetry::new();
        let mut s = SeriesScraper::new(ScrapeConfig::default());
        t.record("lat", 7);
        assert!(s.scrape(&t, 0));
        assert!(s.scrape(&t, 250_000)); // no new samples
        assert_eq!(s.series("p95:lat").unwrap().len(), 1);
    }

    #[test]
    fn overflow_compacts_ten_to_one_with_exact_accounting() {
        let mut s = Series::new(SeriesKind::Gauge, 20);
        for i in 0..21i64 {
            s.push(SeriesPoint {
                at_us: i as u64,
                value: i,
            });
        }
        // The 21st push compacted 20 points into 2 (last of each ten).
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 18);
        assert_eq!(s.appended(), 21);
        assert_eq!(s.appended(), s.len() as u64 + s.dropped());
        let vals: Vec<i64> = s.points().map(|p| p.value).collect();
        assert_eq!(vals, vec![9, 19, 20]);
    }

    #[test]
    fn scraper_reports_drops_into_the_registry() {
        let t = Telemetry::new();
        let mut s = SeriesScraper::new(ScrapeConfig {
            cadence_us: 100,
            capacity: 10,
        });
        t.incr("ops");
        for i in 0..40u64 {
            s.scrape(&t, i * 100);
        }
        let dropped = s.total_dropped();
        assert!(dropped > 0, "40 points through a 10-ring must compact");
        assert_eq!(t.counter(DROPPED_POINTS), dropped);
        let ring = s.series("rate:ops").unwrap();
        assert_eq!(ring.appended(), 40);
        assert_eq!(ring.appended(), ring.len() as u64 + ring.dropped());
    }
}
