//! # dosgi-telemetry — cluster-wide metrics, traces, and snapshots
//!
//! A zero-dependency observability layer for the dosgi stack:
//!
//! * a registry of named **counters** (`u64`, monotonic), **gauges**
//!   (`i64`, last-write-wins), and log-bucketed **histograms**
//!   ([`Histogram`]);
//! * **causal span tracing** — the per-node [`FlightRecorder`], merged
//!   into one [`TraceLog`] per run (see [`trace`]);
//! * a stable, schema-versioned **JSON snapshot** writer ([`Snapshot`])
//!   whose output is byte-deterministic: `BTreeMap` key order, integer
//!   arithmetic only, and simulated timestamps only.
//!
//! ## Determinism contract
//!
//! Telemetry is *passive*: it never reads the wall clock, never consumes
//! randomness, and never influences control flow in the instrumented
//! code. All timestamps fed to it are simulated-time microseconds
//! supplied by the caller (`SimTime::as_micros()`), so a seeded replay
//! produces a byte-identical snapshot and — because nothing observable
//! changes — a byte-identical chaos fingerprint whether telemetry is
//! enabled or disabled.
//!
//! ## Naming convention
//!
//! Metrics are named `crate.subsystem.metric`, e.g. `gcs.view.installed`,
//! `san.retry.backoff_us`, `core.registry.ops`, `ipvs.routed.n3`.
//!
//! ## Handles
//!
//! [`Telemetry`] is a cheap-clone handle on the registry.
//! [`Telemetry::disabled`] (also the `Default`) is a no-op: every
//! operation returns immediately, so library types can hold one
//! unconditionally. [`Telemetry::new`] creates an enabled registry;
//! clones share it, which is how one cluster-wide registry is threaded
//! through nodes, stores, frameworks, and directors.
//!
//! The write primitive is a per-metric handle — [`Counter`], [`Gauge`],
//! [`HistogramHandle`] — resolved by name once
//! ([`Telemetry::counter_handle`] and friends) and kept by the
//! instrumented type. A write through a handle is an atomic operation
//! (a histogram takes its own lock): no name is compared or allocated
//! and the registry lock is not taken. The by-name [`Telemetry::incr`] /
//! [`add`](Telemetry::add) / [`gauge_set`](Telemetry::gauge_set) /
//! [`record`](Telemetry::record) resolve and write the same slots in one
//! call, for cold paths and tests. A metric is visible — to snapshots,
//! by-name reads and the scraper — from its first write, never from the
//! resolution of a handle. See [`handle`].
//!
//! [`Phases`] is the one wall-clock instrument: a table of calls, time and
//! allocations per [`Phase`] of the driver loop, off unless a profiling
//! driver turns it on. See [`phase`].

pub mod handle;
mod hist;
pub mod phase;
pub mod series;
pub mod slo;
pub mod snapshot;
pub mod trace;

pub use handle::{Counter, Gauge, HistogramHandle, MetricName};
pub use hist::{bucket_bounds, bucket_index, Histogram, BUCKETS};
pub use phase::{Phase, PhaseCount, PhaseGuard, Phases};
pub use series::{
    ScrapeConfig, Series, SeriesKind, SeriesPoint, SeriesScraper, DEFAULT_CADENCE_US,
    DEFAULT_SERIES_CAPACITY, DROPPED_POINTS,
};
pub use slo::{derive_health, AlertEvent, AlertWindow, HealthState, SloEngine, SloSpec};
pub use snapshot::{Snapshot, SCHEMA_VERSION};
pub use trace::{
    FlightRecorder, TraceContext, TraceEvent, TraceLog, TraceRef, DEFAULT_EVENT_CAPACITY,
    TRACE_SCHEMA_VERSION,
};

use handle::{with_slot, CounterSlot, GaugeSlot, HistogramSlot, SlotRead, Written};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Counter name incremented when the alert timeline overflows.
pub const DROPPED_ALERTS: &str = "telemetry.dropped_alerts";

/// Capacity of the alert timeline (alert transitions are sparse; a run
/// that overflows this is itself an alerting bug worth seeing).
pub const ALERT_CAPACITY: usize = 1024;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<CounterSlot>>,
    gauges: BTreeMap<String, Arc<GaugeSlot>>,
    histograms: BTreeMap<String, Arc<HistogramSlot>>,
    alerts: VecDeque<AlertEvent>,
}

/// Cheap-clone handle onto a shared telemetry registry (or a no-op).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::default()),
        }
    }

    /// The no-op handle: every operation returns immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle points at a live registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Inner>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().expect("telemetry poisoned"))
    }

    /// The slot named `name` in the index `slots` picks, created on first
    /// use. `None` — before the name is even formatted — when disabled.
    fn resolve<S: Default>(
        &self,
        name: impl MetricName,
        slots: impl FnOnce(&mut Inner) -> &mut BTreeMap<String, Arc<S>>,
    ) -> Option<Arc<S>> {
        let mut g = self.lock()?;
        Some(name.with_name(|n| with_slot(slots(&mut g), n, Arc::clone)))
    }

    /// Resolves the counter `name` to a handle (inert when disabled).
    /// Resolving alone does not make the counter visible.
    pub fn counter_handle(&self, name: impl MetricName) -> Counter {
        Counter(self.resolve(name, |g| &mut g.counters))
    }

    /// Resolves the gauge `name` to a handle (inert when disabled).
    pub fn gauge_handle(&self, name: impl MetricName) -> Gauge {
        Gauge(self.resolve(name, |g| &mut g.gauges))
    }

    /// Resolves the histogram `name` to a handle (inert when disabled).
    pub fn histogram_handle(&self, name: impl MetricName) -> HistogramHandle {
        HistogramHandle(self.resolve(name, |g| &mut g.histograms))
    }

    /// Increment counter `name` by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `n`: resolve, then write, in one call.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(mut g) = self.lock() {
            with_slot(&mut g.counters, name, |s| s.add(n));
        }
    }

    /// Read counter `name` (0 when never written or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock()
            .and_then(|g| g.counters.get(name)?.read())
            .unwrap_or(0)
    }

    /// Set gauge `name` to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, v: i64) {
        if let Some(mut g) = self.lock() {
            with_slot(&mut g.gauges, name, |s| s.set(v));
        }
    }

    /// Read gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.lock().and_then(|g| g.gauges.get(name)?.read())
    }

    /// Record sample `v` into histogram `name`.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(mut g) = self.lock() {
            with_slot(&mut g.histograms, name, |s| handle::record(s, v));
        }
    }

    /// Copy out histogram `name`, if it has a sample.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().and_then(|g| g.histograms.get(name)?.read())
    }

    /// Read every written metric under the registry lock — counters,
    /// gauges and histograms in name order, nothing allocated. This is
    /// the [`SeriesScraper`]'s bulk read path; `f` must not call back into
    /// this handle (the lock is held). Handle writes from other threads
    /// go on meanwhile. Returns `None` on a disabled handle (the closure
    /// is not called).
    pub fn read<R>(
        &self,
        f: impl FnOnce(
            Written<'_, CounterSlot>,
            Written<'_, GaugeSlot>,
            Written<'_, HistogramSlot>,
        ) -> R,
    ) -> Option<R> {
        self.lock().map(|g| {
            f(
                Written(&g.counters),
                Written(&g.gauges),
                Written(&g.histograms),
            )
        })
    }

    /// Append an alert transition to the timeline. Overflow beyond
    /// [`ALERT_CAPACITY`] drops the oldest event and increments
    /// `telemetry.dropped_alerts`.
    pub fn record_alert(&self, event: AlertEvent) {
        if let Some(mut g) = self.lock() {
            if g.alerts.len() >= ALERT_CAPACITY {
                g.alerts.pop_front();
                with_slot(&mut g.counters, DROPPED_ALERTS, |s| s.add(1));
            }
            g.alerts.push_back(event);
        }
    }

    /// Copy out the alert timeline, oldest first.
    pub fn alerts(&self) -> Vec<AlertEvent> {
        self.lock()
            .map(|g| g.alerts.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Materialize a deterministic snapshot of everything recorded so
    /// far. The registry keeps accumulating afterwards.
    pub fn snapshot(&self, label: &str, seed: u64) -> Snapshot {
        let mut snap = Snapshot {
            schema_version: snapshot::SCHEMA_VERSION,
            label: label.to_owned(),
            seed,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            alerts: Vec::new(),
        };
        if let Some(g) = self.lock() {
            fn owned<S: SlotRead>(w: Written<'_, S>) -> BTreeMap<String, S::Value> {
                w.iter().map(|(name, v)| (name.to_owned(), v)).collect()
            }
            snap.counters = owned(Written(&g.counters));
            snap.gauges = owned(Written(&g.gauges));
            snap.histograms = owned(Written(&g.histograms));
            snap.alerts = g.alerts.iter().cloned().collect();
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.incr("a.b.c");
        t.gauge_set("g", 7);
        t.record("h", 3);
        assert_eq!(t.counter("a.b.c"), 0);
        assert_eq!(t.gauge("g"), None);
        assert!(t.histogram("h").is_none());
        let snap = t.snapshot("off", 1);
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::new();
        let u = t.clone();
        t.incr("x");
        u.incr("x");
        assert_eq!(t.counter("x"), 2);
    }

    #[test]
    fn a_resolved_handle_is_invisible_until_written() {
        let t = Telemetry::new();
        let c = t.counter_handle("c");
        let g = t.gauge_handle("g");
        let h = t.histogram_handle(format_args!("h.{}", 1));
        let mut scraper = SeriesScraper::new(ScrapeConfig::default());
        assert!(scraper.scrape(&t, 0));
        let snap = t.snapshot("s", 0);
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        assert_eq!(t.read(|c, g, h| c.len() + g.len() + h.len()), Some(0));
        assert_eq!((t.counter("c"), t.gauge("g")), (0, None));
        assert!(t.histogram("h.1").is_none());
        assert_eq!(scraper.series_count(), 0);

        c.incr();
        g.set(-3);
        h.record(9);
        assert!(scraper.scrape(&t, DEFAULT_CADENCE_US));
        let snap = t.snapshot("s", 0);
        assert_eq!(snap.counters.get("c"), Some(&1));
        assert_eq!(snap.gauges.get("g"), Some(&-3));
        assert_eq!(snap.histograms.get("h.1").map(Histogram::count), Some(1));
        assert_eq!(t.read(|c, g, h| c.len() + g.len() + h.len()), Some(3));
        assert_eq!(
            scraper.series_names(),
            ["gauge:g", "p50:h.1", "p95:h.1", "p99:h.1", "rate:c"]
        );
    }

    #[test]
    fn by_name_and_handle_writes_land_in_one_slot() {
        let t = Telemetry::new();
        t.add("c", 2);
        let c = t.counter_handle("c");
        c.add(3);
        t.incr("c");
        c.clone().incr();
        assert_eq!(t.counter("c"), 7);

        let g = t.gauge_handle("g");
        g.set(4);
        t.gauge_set("g", 5);
        assert_eq!(t.gauge("g"), Some(5));
        g.clone().set(6);
        assert_eq!(t.gauge("g"), Some(6));

        t.record("h", 1);
        let h = t.histogram_handle("h");
        h.record(2);
        h.clone().record(3);
        let got = t.histogram("h").unwrap();
        assert_eq!((got.count(), got.sum()), (3, 6));
        // A second resolution of the same name is the same slot.
        t.counter_handle(format_args!("{}", "c")).incr();
        assert_eq!(t.counter("c"), 8);
    }

    #[test]
    fn zero_valued_writes_make_a_metric_visible() {
        let t = Telemetry::new();
        t.add("by_name", 0);
        t.gauge_set("g.by_name", 0);
        t.counter_handle("by_handle").add(0);
        t.gauge_handle("g.by_handle").set(0);
        let snap = t.snapshot("s", 0);
        assert_eq!(snap.counters.get("by_name"), Some(&0));
        assert_eq!(snap.counters.get("by_handle"), Some(&0));
        assert_eq!(t.gauge("g.by_name"), Some(0));
        assert_eq!(t.gauge("g.by_handle"), Some(0));
    }

    #[test]
    fn disabled_handles_are_inert_and_never_format_their_name() {
        struct Unprintable;
        impl std::fmt::Display for Unprintable {
            fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                panic!("a disabled registry formatted a metric name");
            }
        }
        let t = Telemetry::disabled();
        t.counter_handle(format_args!("c.{Unprintable}")).incr();
        t.gauge_handle(format_args!("g.{Unprintable}")).set(1);
        t.histogram_handle(format_args!("h.{Unprintable}"))
            .record(1);
        Counter::default().incr();
        Gauge::default().set(1);
        HistogramHandle::default().record(1);
        assert_eq!(t.read(|c, g, h| c.len() + g.len() + h.len()), None);
    }

    #[test]
    fn concurrent_handle_writes_sum_exactly() {
        const THREADS: u64 = 8;
        const WRITES: u64 = 100_000;
        let t = Telemetry::new();
        let counter = t.counter_handle("c");
        let hist = t.histogram_handle("h");
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let (counter, hist, start) = (counter.clone(), hist.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..WRITES {
                        counter.incr();
                        hist.record(i % 2);
                    }
                });
            }
        });
        assert_eq!(t.counter("c"), THREADS * WRITES);
        let h = t.histogram("h").unwrap();
        assert_eq!(h.count(), THREADS * WRITES);
        assert_eq!(h.sum(), THREADS * WRITES / 2);
        assert_eq!(h.bucket(0), h.bucket(1));
    }
}
