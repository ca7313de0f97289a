//! The watch loop's state: one record per local instance.
//!
//! §3.3's loop is watch-then-act: the Monitoring Module samples each
//! instance, the Autonomic Module applies the SLA policy to the samples. A
//! node keeps everything that loop knows of one local instance in one
//! [`Watch`] — its sampler and latest window, its three
//! `monitor.<instance>.*` gauges and its policy streaks — and all of them
//! in one [`Watched`] table, in name order. A sampling pass and a policy
//! pass each walk the table once: no name is looked up, no map is built
//! and nothing is allocated, except a record made when an instance arrives
//! and its gauges, resolved at its first window.

use dosgi_monitor::{Sampler, WindowedUsage};
use dosgi_net::SimTime;
use dosgi_osgi::UsageSnapshot;
use dosgi_policy::{MetricSource, Streaks, Subject};
use dosgi_telemetry::{Gauge, Telemetry};
use dosgi_vosgi::{InstanceDescriptor, InstanceId};
use std::rc::Rc;

/// The metrics read off an instance's latest usage window.
const USAGE_METRICS: [&str; 4] = ["cpu_share", "memory", "disk", "call_rate"];

/// One local instance as the watch loop keeps it.
#[derive(Debug)]
pub struct Watch {
    id: InstanceId,
    // The instance's own descriptor: its name and its SLA quota.
    descriptor: Rc<InstanceDescriptor>,
    sampler: Sampler,
    // Resolved at the first window; dropped when the node's registry is
    // replaced, and resolved again from the new one.
    gauges: Option<Gauges>,
    streaks: Streaks,
}

/// One instance's `monitor.<instance>.*` gauges.
#[derive(Debug)]
struct Gauges {
    cpu_share_pm: Gauge,
    memory_bytes: Gauge,
    call_rate_mcps: Gauge,
}

impl Watch {
    /// The record of instance `id`, run under `descriptor`, with no sample
    /// yet and the policy `streaks` its node's engine made for it.
    pub fn new(id: InstanceId, descriptor: Rc<InstanceDescriptor>, streaks: Streaks) -> Self {
        Watch {
            id,
            descriptor,
            sampler: Sampler::new(),
            gauges: None,
            streaks,
        }
    }

    /// The instance's name.
    pub fn name(&self) -> &str {
        &self.descriptor.name
    }

    /// The instance manager's id of the instance.
    pub(crate) fn id(&self) -> InstanceId {
        self.id
    }

    /// The latest window closed, if any.
    pub fn latest(&self) -> Option<WindowedUsage> {
        self.sampler.latest()
    }

    /// Feeds the instance's cumulative usage at `now`; returns the window
    /// it closes, if any.
    pub fn observe(&mut self, now: SimTime, usage: UsageSnapshot) -> Option<WindowedUsage> {
        self.sampler.observe(now, usage)
    }

    /// Publishes `window` as the instance's gauges in `telemetry`,
    /// resolving them the first time. Integer-scaled from the raw window
    /// counters (never through the f64 rates) so snapshot bytes stay
    /// deterministic: CPU share in per-mille of one core, call rate in
    /// milli-calls per second.
    pub fn publish(&mut self, window: &WindowedUsage, telemetry: &Telemetry) {
        let window_us = window.window.as_micros().max(1);
        let cpu_pm = window.cpu.as_micros().saturating_mul(1000) / window_us;
        let call_mcps = window.calls.saturating_mul(1_000_000_000) / window_us;
        let name = &self.descriptor.name;
        let gauges = self.gauges.get_or_insert_with(|| Gauges {
            cpu_share_pm: telemetry.gauge_handle(format_args!("monitor.{name}.cpu_share_pm")),
            memory_bytes: telemetry.gauge_handle(format_args!("monitor.{name}.memory_bytes")),
            call_rate_mcps: telemetry.gauge_handle(format_args!("monitor.{name}.call_rate_mcps")),
        });
        gauges.cpu_share_pm.set(cpu_pm as i64);
        gauges.memory_bytes.set(window.memory as i64);
        gauges.call_rate_mcps.set(call_mcps as i64);
    }

    /// Points the record at `descriptor`, the one the instance manager
    /// holds for the instance now: the record reads its quota there.
    pub(crate) fn refresh(&mut self, descriptor: &Rc<InstanceDescriptor>) {
        if !Rc::ptr_eq(&self.descriptor, descriptor) {
            self.descriptor = Rc::clone(descriptor);
        }
    }

    /// Drops the gauges: the next window resolves them from the registry
    /// attached by then.
    pub(crate) fn unpublish(&mut self) {
        self.gauges = None;
    }

    /// True when the instance has no metric `name` only because no window
    /// has closed yet: a usage metric, before the first window.
    pub(crate) fn unsampled(&self, name: &str) -> bool {
        self.latest().is_none() && USAGE_METRICS.contains(&name)
    }

    /// The instance's built-in per-instance metric `name`: its usage from
    /// the latest window (none before the first) and its quota.
    pub(crate) fn metric(&self, name: &str) -> Option<f64> {
        let quota = &self.descriptor.quota;
        let window = || self.latest();
        match name {
            "cpu_share" => window().map(|w| w.cpu_share),
            "memory" => window().map(|w| w.memory as f64),
            "disk" => window().map(|w| w.disk as f64),
            "call_rate" => window().map(|w| w.call_rate),
            "quota_cpu" => Some(quota.cpu_per_sec.as_secs_f64()),
            "quota_mem" => Some(quota.memory_bytes as f64),
            "quota_disk" => Some(quota.disk_bytes as f64),
            _ => None,
        }
    }
}

impl Subject for Watch {
    fn name(&self) -> &str {
        Watch::name(self)
    }

    fn streaks(&self) -> &Streaks {
        &self.streaks
    }

    fn metric(&self, name: &str, _: &dyn MetricSource) -> Option<f64> {
        Watch::metric(self, name)
    }

    fn unsampled(&self, name: &str, _: &dyn MetricSource) -> bool {
        Watch::unsampled(self, name)
    }
}

/// A node's watch records, one per local instance, in name order — the
/// order a policy pass decides in.
#[derive(Debug, Default)]
pub struct Watched(Vec<Watch>);

impl Watched {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `watch`, replacing the record of the same name if there is one.
    pub fn insert(&mut self, watch: Watch) {
        match self.position(watch.name()) {
            Ok(i) => self.0[i] = watch,
            Err(i) => self.0.insert(i, watch),
        }
    }

    /// Removes the record of `name`: its window, gauges and streaks go
    /// with it.
    pub(crate) fn remove(&mut self, name: &str) -> Option<Watch> {
        self.position(name).ok().map(|i| self.0.remove(i))
    }

    /// The record of `name`.
    pub fn get(&self, name: &str) -> Option<&Watch> {
        self.position(name).ok().map(|i| &self.0[i])
    }

    pub(crate) fn get_mut(&mut self, name: &str) -> Option<&mut Watch> {
        self.position(name).ok().map(|i| &mut self.0[i])
    }

    /// The records, in name order, to sample.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Watch> {
        self.0.iter_mut()
    }

    pub(crate) fn retain(&mut self, keep: impl FnMut(&Watch) -> bool) {
        self.0.retain(keep);
    }

    /// The records, in name order.
    pub fn records(&self) -> &[Watch] {
        &self.0
    }

    /// Sum of the latest CPU shares: the node-level load the Autonomic
    /// Module compares against [`NodeCapacity`](dosgi_monitor::NodeCapacity).
    pub(crate) fn total_cpu_share(&self) -> f64 {
        self.0
            .iter()
            .filter_map(|w| w.latest())
            .map(|w| w.cpu_share)
            .sum()
    }

    /// Sum of the latest memory gauges.
    pub(crate) fn total_memory(&self) -> u64 {
        self.0
            .iter()
            .filter_map(|w| w.latest())
            .map(|w| w.memory)
            .sum()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|w| w.name().cmp(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use dosgi_net::SimDuration;

    fn watch(name: &str, id: u64) -> Watch {
        let descriptor = Rc::new(workloads::web_instance(name, name));
        Watch::new(InstanceId(id), descriptor, Streaks::default())
    }

    fn usage(cpu_ms: u64, memory: u64) -> UsageSnapshot {
        UsageSnapshot {
            cpu: SimDuration::from_millis(cpu_ms),
            memory,
            disk: 0,
            calls: 0,
        }
    }

    #[test]
    fn records_are_kept_in_name_order_and_replaced_by_name() {
        let mut t = Watched::new();
        for (name, id) in [("b", 1), ("c", 2), ("a", 3), ("b", 4)] {
            t.insert(watch(name, id));
        }
        let order: Vec<_> = t.records().iter().map(|w| (w.name(), w.id().0)).collect();
        assert_eq!(order, [("a", 3), ("b", 4), ("c", 2)]);
    }

    #[test]
    fn totals_aggregate_the_latest_windows() {
        let mut t = Watched::new();
        for (name, id) in [("a", 1), ("b", 2), ("c", 3)] {
            t.insert(watch(name, id));
        }
        for w in t.iter_mut().filter(|w| w.name() != "c") {
            w.observe(SimTime::from_secs(0), usage(0, 0));
            w.observe(SimTime::from_secs(1), usage(500, 100));
        }
        assert!((t.total_cpu_share() - 1.0).abs() < 1e-9);
        assert_eq!(t.total_memory(), 200, "c has no window yet");
    }

    #[test]
    fn a_removed_record_takes_its_window_with_it() {
        let mut t = Watched::new();
        t.insert(watch("a", 1));
        let w = t.get_mut("a").unwrap();
        w.observe(SimTime::from_secs(0), usage(0, 0));
        assert!(w.observe(SimTime::from_secs(1), usage(100, 7)).is_some());
        assert!(t.remove("a").and_then(|w| w.latest()).is_some());
        assert!(t.get("a").is_none() && t.records().is_empty());
        assert_eq!(t.total_memory(), 0);
        t.insert(watch("a", 2));
        assert_eq!(
            t.get("a").and_then(Watch::latest),
            None,
            "back with no window"
        );
    }
}
