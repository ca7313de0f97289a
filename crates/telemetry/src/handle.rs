//! Metric slots and the pre-resolved handles that write them.
//!
//! A *slot* is the storage of one named metric: a `Cell` and a
//! written-flag for a counter or a gauge, a `RefCell`'d [`Histogram`] for
//! a histogram. The registry maps names to slots; a *handle*
//! ([`Counter`], [`Gauge`], [`HistogramHandle`]) is a shared pointer to
//! one slot, resolved by name once. Writing through a handle compares no
//! strings, allocates nothing and never borrows the registry.
//!
//! A slot is **invisible until first written**: resolving a handle
//! creates the slot, but snapshots, by-name reads and the scraper see a
//! metric only once something has been written to it — exactly the set
//! of names string-keyed writes alone would have produced.

use crate::Histogram;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Storage of one counter or gauge.
#[derive(Debug, Default)]
pub struct Slot<T: Copy> {
    value: Cell<T>,
    written: Cell<bool>,
}

/// Storage of one counter.
pub type CounterSlot = Slot<u64>;
/// Storage of one gauge.
pub type GaugeSlot = Slot<i64>;
/// Storage of one histogram; written once its count is non-zero.
pub type HistogramSlot = RefCell<Histogram>;

impl CounterSlot {
    pub(crate) fn add(&self, n: u64) {
        self.value.set(self.value.get().wrapping_add(n));
        self.written.set(true);
    }
}

impl GaugeSlot {
    pub(crate) fn set(&self, v: i64) {
        self.value.set(v);
        self.written.set(true);
    }
}

/// Reading a slot: `None` until it has been written.
pub trait SlotRead {
    /// What the slot holds.
    type Value;
    /// The current value of a written slot.
    fn read(&self) -> Option<Self::Value>;
}

impl<T: Copy> SlotRead for Slot<T> {
    type Value = T;
    fn read(&self) -> Option<T> {
        self.written.get().then(|| self.value.get())
    }
}

impl SlotRead for HistogramSlot {
    type Value = Histogram;
    fn read(&self) -> Option<Histogram> {
        let h = self.borrow();
        (h.count() > 0).then(|| h.clone())
    }
}

/// The written metrics of one kind, in name order — what
/// [`Telemetry::read`](crate::Telemetry::read) hands its closure.
#[derive(Debug)]
pub struct Written<'a, S>(pub(crate) &'a BTreeMap<String, Rc<S>>);

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
    slots: &mut BTreeMap<String, Rc<S>>,
    name: &str,
    f: impl FnOnce(&Rc<S>) -> R,
) -> R {
    with_entry(slots, name, Rc::default, |slot| f(slot))
}

/// A metric name a handle is resolved from: a plain `&str`, or
/// `format_args!(..)` for a name with a variable part — which is only
/// formatted if the registry is enabled, on the stack when it is at most
/// 128 bytes long: resolving a name that exists allocates nothing.
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
        if let Some(name) = self.as_str() {
            return f(name);
        }
        let mut name = StackName {
            bytes: [0; NAME_ON_STACK],
            len: 0,
        };
        match fmt::write(&mut name, self) {
            Ok(()) => f(name.as_str()),
            Err(_) => f(&self.to_string()),
        }
    }
}

/// The longest formatted name [`MetricName`] keeps off the heap.
const NAME_ON_STACK: usize = 128;

/// A name formatted into a fixed buffer; writing past its end fails.
struct StackName {
    bytes: [u8; NAME_ON_STACK],
    len: usize,
}

impl StackName {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("written from whole `str`s")
    }
}

impl fmt::Write for StackName {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let slot = self.bytes.get_mut(self.len..end).ok_or(fmt::Error)?;
        slot.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// Handle on one counter. The default handle (and every handle of a
/// disabled registry) is inert. Clones share the slot.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Rc<CounterSlot>>);

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
pub struct Gauge(pub(crate) Option<Rc<GaugeSlot>>);

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
pub struct HistogramHandle(pub(crate) Option<Rc<HistogramSlot>>);

impl HistogramHandle {
    /// Records sample `v`.
    pub fn record(&self, v: u64) {
        if let Some(slot) = &self.0 {
            slot.borrow_mut().record(v);
        }
    }

    /// Records every sample of `samples` under one borrow of the slot, as
    /// many [`record`](Self::record)s would.
    pub fn record_all(&self, samples: impl IntoIterator<Item = u64>) {
        if let Some(slot) = &self.0 {
            let mut h = slot.borrow_mut();
            samples.into_iter().for_each(|v| h.record(v));
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

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn a_formatted_name_resolves_alike_on_the_stack_and_past_it() {
        let t = Telemetry::new();
        for len in [1, 127, 128, 129, 300] {
            let part = "x".repeat(len - 1);
            t.gauge_handle(format_args!("g{part}")).set(len as i64);
            assert_eq!(
                t.gauge(&format!("g{part}")),
                Some(len as i64),
                "{len} bytes"
            );
        }
        t.gauge_handle(format_args!("g{}", "é".repeat(100))).set(-1);
        assert_eq!(t.gauge(&format!("g{}", "é".repeat(100))), Some(-1));
    }
}
