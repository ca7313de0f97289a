//! Metric slots and the pre-resolved handles that write them.
//!
//! A *slot* is the storage of one named metric: an atomic and a
//! written-flag for a counter or a gauge, a mutex-guarded [`Histogram`]
//! for a histogram. The registry maps names to slots; a *handle*
//! ([`Counter`], [`Gauge`], [`HistogramHandle`]) is a shared pointer to
//! one slot, resolved by name once. Writing through a handle compares no
//! strings, allocates nothing and never takes the registry lock.
//!
//! A slot is **invisible until first written**: resolving a handle
//! creates the slot, but snapshots, by-name reads and the scraper see a
//! metric only once something has been written to it — exactly the set
//! of names string-keyed writes alone would have produced.

use crate::Histogram;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Storage of one counter or gauge.
#[derive(Debug, Default)]
pub struct Slot<A> {
    value: A,
    written: AtomicBool,
}

/// Storage of one counter.
pub type CounterSlot = Slot<AtomicU64>;
/// Storage of one gauge.
pub type GaugeSlot = Slot<AtomicI64>;
/// Storage of one histogram; written once its count is non-zero.
pub type HistogramSlot = Mutex<Histogram>;

impl<A> Slot<A> {
    fn mark_written(&self) {
        // Release pairs with the Acquire in `is_written`: whoever sees the
        // flag sees the value written before it was raised.
        if !self.written.load(Ordering::Relaxed) {
            self.written.store(true, Ordering::Release);
        }
    }

    fn is_written(&self) -> bool {
        self.written.load(Ordering::Acquire)
    }
}

impl CounterSlot {
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        self.mark_written();
    }
}

impl GaugeSlot {
    pub(crate) fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.mark_written();
    }
}

pub(crate) fn record(slot: &HistogramSlot, v: u64) {
    slot.lock().expect("histogram poisoned").record(v);
}

/// Reading a slot: `None` until it has been written.
pub trait SlotRead {
    /// What the slot holds.
    type Value;
    /// The current value of a written slot.
    fn read(&self) -> Option<Self::Value>;
}

impl SlotRead for CounterSlot {
    type Value = u64;
    fn read(&self) -> Option<u64> {
        self.is_written()
            .then(|| self.value.load(Ordering::Relaxed))
    }
}

impl SlotRead for GaugeSlot {
    type Value = i64;
    fn read(&self) -> Option<i64> {
        self.is_written()
            .then(|| self.value.load(Ordering::Relaxed))
    }
}

impl SlotRead for HistogramSlot {
    type Value = Histogram;
    fn read(&self) -> Option<Histogram> {
        let h = self.lock().expect("histogram poisoned");
        (h.count() > 0).then(|| h.clone())
    }
}

/// The written metrics of one kind, in name order — what
/// [`Telemetry::read`](crate::Telemetry::read) hands its closure.
#[derive(Debug)]
pub struct Written<'a, S>(pub(crate) &'a BTreeMap<String, Arc<S>>);

impl<'a, S: SlotRead> Written<'a, S> {
    /// `(name, value)` of every written metric, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, S::Value)> + 'a {
        self.0
            .iter()
            .filter_map(|(name, slot)| Some((name.as_str(), slot.read()?)))
    }

    /// Number of written metrics.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no metric of this kind has been written.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// Runs `f` on the entry of `map` under `name`, created by `new` on first
/// use; the name is allocated only then.
pub(crate) fn with_entry<T, R>(
    map: &mut BTreeMap<String, T>,
    name: &str,
    new: impl FnOnce() -> T,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    if let Some(entry) = map.get_mut(name) {
        return f(entry);
    }
    let mut entry = new();
    let r = f(&mut entry);
    map.insert(name.to_owned(), entry);
    r
}

/// [`with_entry`] for every `(name, value)` of `items`: one walk over `map`
/// beside them, so names in ascending order cost no lookup. A name the
/// walk has passed or not found is looked up, or created, after it.
pub(crate) fn merge_entries<'a, T, V>(
    map: &mut BTreeMap<String, T>,
    items: impl IntoIterator<Item = (&'a str, V)>,
    new: impl Fn() -> T,
    mut f: impl FnMut(&mut T, V),
) {
    let mut behind = Vec::new();
    let mut walk = map.iter_mut().peekable();
    for (name, value) in items {
        while walk.next_if(|(key, _)| key.as_str() < name).is_some() {}
        match walk.next_if(|(key, _)| key.as_str() == name) {
            Some((_, entry)) => f(entry, value),
            None => behind.push((name, value)),
        }
    }
    for (name, value) in behind {
        with_entry(map, name, &new, |entry| f(entry, value));
    }
}

/// [`with_entry`] on an index of slots.
pub(crate) fn with_slot<S: Default, R>(
    slots: &mut BTreeMap<String, Arc<S>>,
    name: &str,
    f: impl FnOnce(&Arc<S>) -> R,
) -> R {
    with_entry(slots, name, Arc::default, |slot| f(slot))
}

/// A metric name a handle is resolved from: a plain `&str`, or
/// `format_args!(..)` for a name with a variable part — which is only
/// formatted if the registry is enabled.
pub trait MetricName {
    /// Calls `f` with the name.
    fn with_name<R>(self, f: impl FnOnce(&str) -> R) -> R;
}

impl MetricName for &str {
    fn with_name<R>(self, f: impl FnOnce(&str) -> R) -> R {
        f(self)
    }
}

impl MetricName for fmt::Arguments<'_> {
    fn with_name<R>(self, f: impl FnOnce(&str) -> R) -> R {
        match self.as_str() {
            Some(name) => f(name),
            None => f(&self.to_string()),
        }
    }
}

/// Handle on one counter. The default handle (and every handle of a
/// disabled registry) is inert. Clones share the slot.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterSlot>>);

impl Counter {
    /// Increments the counter by 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increments the counter by `n` (`add(0)` makes it visible at 0).
    pub fn add(&self, n: u64) {
        if let Some(slot) = &self.0 {
            slot.add(n);
        }
    }
}

/// Handle on one gauge; inert by default, clones share the slot.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeSlot>>);

impl Gauge {
    /// Sets the gauge to `v` (last write wins).
    pub fn set(&self, v: i64) {
        if let Some(slot) = &self.0 {
            slot.set(v);
        }
    }
}

/// Handle on one histogram; inert by default, clones share the slot.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(pub(crate) Option<Arc<HistogramSlot>>);

impl HistogramHandle {
    /// Records sample `v`. Takes the histogram's own lock, no other.
    pub fn record(&self, v: u64) {
        if let Some(slot) = &self.0 {
            record(slot, v);
        }
    }
}

/// Declares a struct of handles and its `new(&Telemetry)`, which resolves
/// each field's metric once — the shape an instrumented type keeps in
/// place of string-keyed calls:
///
/// ```
/// dosgi_telemetry::metrics! {
///     struct Metrics {
///         counter sent = "demo.sent",
///         gauge depth = "demo.depth",
///         histogram latency_us = "demo.latency_us",
///     }
/// }
/// let t = dosgi_telemetry::Telemetry::new();
/// let m = Metrics::new(&t);
/// m.sent.incr();
/// assert_eq!(t.counter("demo.sent"), 1);
/// assert_eq!(t.gauge("demo.depth"), None); // resolved, never written
/// ```
///
/// The struct's `Default` holds inert handles.
#[macro_export]
macro_rules! metrics {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($kind:ident $field:ident = $metric:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default)]
        $vis struct $name {
            $(pub $field: $crate::metrics!(@type $kind),)*
        }

        impl $name {
            /// Resolves every metric to its slot in `telemetry`'s registry.
            $vis fn new(telemetry: &$crate::Telemetry) -> Self {
                $name {
                    $($field: $crate::metrics!(@resolve telemetry $kind $metric),)*
                }
            }
        }
    };
    (@type counter) => { $crate::Counter };
    (@type gauge) => { $crate::Gauge };
    (@type histogram) => { $crate::HistogramHandle };
    (@resolve $t:ident counter $metric:literal) => { $t.counter_handle($metric) };
    (@resolve $t:ident gauge $metric:literal) => { $t.gauge_handle($metric) };
    (@resolve $t:ident histogram $metric:literal) => { $t.histogram_handle($metric) };
}
