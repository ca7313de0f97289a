//! The Monitoring Module: per-subject samplers and series under one roof.

use crate::{Sampler, TimeSeries, WindowedUsage};
use dosgi_net::SimTime;
use dosgi_osgi::UsageSnapshot;
use std::collections::BTreeMap;

/// Aggregated statistics for one monitored subject (a virtual instance,
/// keyed by name).
#[derive(Debug, Clone, PartialEq)]
pub struct SubjectReport {
    /// The subject's key.
    pub subject: String,
    /// Most recent windowed usage, if at least two samples exist.
    pub latest: Option<WindowedUsage>,
    /// Mean CPU share over the series window.
    pub cpu_share_mean: Option<f64>,
    /// EWMA CPU share.
    pub cpu_share_ewma: Option<f64>,
    /// Peak memory seen in the window.
    pub memory_max: Option<f64>,
    /// Mean call rate.
    pub call_rate_mean: Option<f64>,
}

/// The per-node Monitoring Module: feed it cumulative usage snapshots per
/// subject (typically once per sampling period), query windowed statistics.
///
/// This is the component §3.1 could not fully build on a 2008 JVM; the
/// blackboard it produces is the input to the Autonomic Module's policies.
#[derive(Debug, Clone, Default)]
pub struct MonitoringModule {
    subjects: BTreeMap<String, SubjectState>,
}

#[derive(Debug, Clone, Default)]
struct SubjectState {
    sampler: Sampler,
    cpu_share: TimeSeries,
    memory: TimeSeries,
    call_rate: TimeSeries,
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
        state.cpu_share.push(window.cpu_share);
        state.memory.push(window.memory as f64);
        state.call_rate.push(window.call_rate);
        state.latest = Some(window);
        Some(window)
    }

    /// The latest windowed usage for `subject`.
    pub fn latest(&self, subject: &str) -> Option<WindowedUsage> {
        self.subjects.get(subject).and_then(|s| s.latest)
    }

    /// Full reports for every subject, sorted by key.
    pub fn report(&self) -> Vec<SubjectReport> {
        self.subjects
            .iter()
            .map(|(k, s)| SubjectReport {
                subject: k.clone(),
                latest: s.latest,
                cpu_share_mean: s.cpu_share.mean(),
                cpu_share_ewma: s.cpu_share.ewma(),
                memory_max: s.memory.max(),
                call_rate_mean: s.call_rate.mean(),
            })
            .collect()
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
    fn record_builds_series_per_subject() {
        let mut m = MonitoringModule::new();
        assert!(m
            .record("a", SimTime::from_secs(0), snap(0, 10, 0))
            .is_none());
        let w = m
            .record("a", SimTime::from_secs(1), snap(250, 20, 5))
            .unwrap();
        assert!((w.cpu_share - 0.25).abs() < 1e-9);
        m.record("a", SimTime::from_secs(2), snap(750, 30, 15))
            .unwrap();
        let cpu_share_mean = m.report()[0].cpu_share_mean.unwrap();
        assert!((cpu_share_mean - 0.375).abs() < 1e-9, "two windows");
        assert_eq!(m.latest("a").unwrap().memory, 30);
        assert_eq!(m.subjects(), vec!["a"]);
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
    fn report_covers_all_subjects() {
        let mut m = MonitoringModule::new();
        m.record("a", SimTime::from_secs(0), snap(0, 0, 0));
        m.record("b", SimTime::from_secs(0), snap(0, 0, 0));
        m.record("a", SimTime::from_secs(1), snap(100, 5, 2));
        let report = m.report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].subject, "a");
        assert!(report[0].latest.is_some());
        assert!(report[1].latest.is_none(), "b has only one sample");
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
