//! The Monitoring Module: per-subject samplers under one roof.

use crate::{Sampler, WindowedUsage};
use dosgi_net::SimTime;
use dosgi_osgi::UsageSnapshot;
use std::collections::BTreeMap;

/// The per-node Monitoring Module: feed it cumulative usage snapshots per
/// subject (typically once per sampling period), query the latest window.
///
/// This is the component §3.1 could not fully build on a 2008 JVM; the
/// latest window per subject is the input to the Autonomic Module's
/// policies. History is not kept here: the node publishes each window as
/// `monitor.<subject>.*` gauges, and `dosgi_telemetry`'s series scraper
/// keeps theirs.
#[derive(Debug, Clone, Default)]
pub struct MonitoringModule {
    subjects: BTreeMap<String, SubjectState>,
}

#[derive(Debug, Clone, Default)]
struct SubjectState {
    sampler: Sampler,
    latest: Option<WindowedUsage>,
}

impl MonitoringModule {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a cumulative snapshot for `subject` at `now`. Returns the
    /// windowed usage if a full window closed.
    pub fn record(
        &mut self,
        subject: &str,
        now: SimTime,
        snapshot: UsageSnapshot,
    ) -> Option<WindowedUsage> {
        let state = match self.subjects.get_mut(subject) {
            Some(state) => state,
            None => self.subjects.entry(subject.to_owned()).or_default(),
        };
        let window = state.sampler.observe(now, snapshot)?;
        state.latest = Some(window);
        Some(window)
    }

    /// The latest windowed usage for `subject`.
    pub fn latest(&self, subject: &str) -> Option<WindowedUsage> {
        self.subjects.get(subject).and_then(|s| s.latest)
    }

    /// Sum of the latest CPU shares across subjects — the node-level load
    /// the placement logic compares against [`NodeCapacity`].
    ///
    /// [`NodeCapacity`]: crate::NodeCapacity
    pub fn total_cpu_share(&self) -> f64 {
        self.subjects
            .values()
            .filter_map(|s| s.latest.map(|w| w.cpu_share))
            .sum()
    }

    /// Sum of the latest memory gauges across subjects.
    pub fn total_memory(&self) -> u64 {
        self.subjects
            .values()
            .filter_map(|s| s.latest.map(|w| w.memory))
            .sum()
    }

    /// Forgets a subject (after migration away or destruction).
    pub fn forget(&mut self, subject: &str) {
        self.subjects.remove(subject);
    }

    /// Monitored subject keys, sorted.
    pub fn subjects(&self) -> Vec<&str> {
        self.subjects.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::SimDuration;

    fn snap(cpu_ms: u64, memory: u64, calls: u64) -> UsageSnapshot {
        UsageSnapshot {
            cpu: SimDuration::from_millis(cpu_ms),
            memory,
            disk: 0,
            calls,
        }
    }

    #[test]
    fn record_keeps_the_latest_window_per_subject() {
        let mut m = MonitoringModule::new();
        assert!(m
            .record("a", SimTime::from_secs(0), snap(0, 10, 0))
            .is_none());
        m.record("b", SimTime::from_secs(0), snap(0, 0, 0));
        let w = m
            .record("a", SimTime::from_secs(1), snap(250, 20, 5))
            .unwrap();
        assert!((w.cpu_share - 0.25).abs() < 1e-9);
        assert_eq!(m.latest("a"), Some(w));
        let w = m
            .record("a", SimTime::from_secs(2), snap(750, 30, 15))
            .unwrap();
        assert!((w.cpu_share - 0.5).abs() < 1e-9, "the second window alone");
        assert_eq!(m.latest("a").unwrap().memory, 30);
        assert_eq!(m.latest("b"), None, "b has only one sample");
        assert_eq!(m.subjects(), vec!["a", "b"]);
    }

    #[test]
    fn totals_aggregate_subjects() {
        let mut m = MonitoringModule::new();
        for s in ["a", "b"] {
            m.record(s, SimTime::from_secs(0), snap(0, 0, 0));
            m.record(s, SimTime::from_secs(1), snap(500, 100, 0));
        }
        assert!((m.total_cpu_share() - 1.0).abs() < 1e-9);
        assert_eq!(m.total_memory(), 200);
    }

    #[test]
    fn forget_removes_subject() {
        let mut m = MonitoringModule::new();
        m.record("a", SimTime::from_secs(0), snap(0, 0, 0));
        m.forget("a");
        assert!(m.subjects().is_empty());
        assert_eq!(m.latest("a"), None);
    }
}
