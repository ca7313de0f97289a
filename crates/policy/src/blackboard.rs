//! The metrics blackboard a driver fills and policies read.

use crate::eval::MetricSource;
use std::collections::BTreeMap;

/// A two-level metric store: per-subject metrics (e.g. `cpu_share` of
/// instance `acme-prod`) and global metrics (e.g. `node_cpu`).
///
/// Any [`MetricSource`] feeds a [`PolicyEngine`]; this one holds what was
/// written to it. The E15 and E16 drivers run their overload policies on
/// one, writing SLO alert states and queue depths. The node's Autonomic
/// Module holds none: it reads the [`MonitoringModule`]'s windows, its
/// quotas and its view in place.
///
/// [`MonitoringModule`]: ../dosgi_monitor/struct.MonitoringModule.html
/// [`PolicyEngine`]: crate::PolicyEngine
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Blackboard {
    subject_metrics: BTreeMap<String, BTreeMap<String, f64>>,
    global_metrics: BTreeMap<String, f64>,
}

impl Blackboard {
    /// Creates an empty blackboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a per-subject metric.
    pub fn set_subject_metric(&mut self, subject: &str, name: &str, value: f64) {
        let metrics = match self.subject_metrics.get_mut(subject) {
            Some(metrics) => metrics,
            None => self.subject_metrics.entry(subject.to_owned()).or_default(),
        };
        set(metrics, name, value);
    }

    /// Sets a global metric.
    pub fn set_global_metric(&mut self, name: &str, value: f64) {
        set(&mut self.global_metrics, name, value);
    }

    /// Removes every metric of a subject (after migration/destruction).
    pub fn forget_subject(&mut self, subject: &str) {
        self.subject_metrics.remove(subject);
    }

    /// All subjects with at least one metric, sorted.
    pub fn subjects(&self) -> Vec<String> {
        self.subject_metrics.keys().cloned().collect()
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        self.subject_metrics.clear();
        self.global_metrics.clear();
    }
}

/// Overwrites a metric in place; only the first write of a name owns it.
fn set(metrics: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    match metrics.get_mut(name) {
        Some(slot) => *slot = value,
        None => {
            metrics.insert(name.to_owned(), value);
        }
    }
}

impl MetricSource for Blackboard {
    fn metric(&self, name: &str, subject: Option<&str>) -> Option<f64> {
        match subject {
            Some(s) => self
                .subject_metrics
                .get(s)
                .and_then(|m| m.get(name))
                .copied(),
            None => self.global_metrics.get(name).copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_lookup() {
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.5);
        bb.set_global_metric("node_cpu", 0.9);
        assert_eq!(bb.metric("cpu", Some("a")), Some(0.5));
        assert_eq!(bb.metric("cpu", Some("b")), None);
        assert_eq!(bb.metric("node_cpu", None), Some(0.9));
        assert_eq!(bb.metric("cpu", None), None);
        assert_eq!(bb.subjects(), vec!["a"]);
    }

    #[test]
    fn forget_and_clear() {
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.5);
        bb.set_global_metric("g", 1.0);
        bb.forget_subject("a");
        assert!(bb.subjects().is_empty());
        assert_eq!(bb.metric("g", None), Some(1.0));
        bb.clear();
        assert_eq!(bb.metric("g", None), None);
    }

    #[test]
    fn overwrite_updates() {
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.5);
        bb.set_subject_metric("a", "cpu", 0.7);
        assert_eq!(bb.metric("cpu", Some("a")), Some(0.7));
    }
}
