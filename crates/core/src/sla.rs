//! Service level agreements and availability tracking.

use dosgi_net::{SimDuration, SimTime};
use dosgi_vosgi::ResourceQuota;
use std::collections::BTreeMap;

/// A customer's service level agreement: resource entitlement plus an
/// availability target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaSpec {
    /// Resource entitlement.
    pub quota: ResourceQuota,
    /// Availability target in `[0, 1]` (e.g. `0.999`).
    pub availability: f64,
}

impl SlaSpec {
    /// Standard quota, three nines.
    pub fn standard() -> Self {
        SlaSpec {
            quota: ResourceQuota::standard(),
            availability: 0.999,
        }
    }
}

impl Default for SlaSpec {
    fn default() -> Self {
        SlaSpec::standard()
    }
}

/// Per-instance availability record derived from periodic probes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AvailabilityRecord {
    /// Time observed up.
    pub up: SimDuration,
    /// Time observed down.
    pub down: SimDuration,
    /// Number of distinct outages (up→down transitions).
    pub outages: u32,
    /// The longest single outage.
    pub longest_outage: SimDuration,
}

impl AvailabilityRecord {
    /// Availability fraction in `[0, 1]`; `1.0` before any observation.
    pub fn availability(&self) -> f64 {
        let total = self.up + self.down;
        if total.is_zero() {
            1.0
        } else {
            self.up.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// Tracks availability per instance from periodic boolean probes — the
/// downtime instrument behind experiments E5–E9.
#[derive(Debug, Clone, Default)]
pub struct SlaTracker {
    tracked: BTreeMap<String, Tracked>,
}

#[derive(Debug, Clone, Default)]
struct Tracked {
    record: AvailabilityRecord,
    last: Option<(SimTime, bool)>,
    // Length so far of the outage in progress (zero while up).
    current_outage: SimDuration,
}

impl Tracked {
    fn probe(&mut self, now: SimTime, available: bool) {
        let rec = &mut self.record;
        if let Some((then, was_up)) = self.last {
            let span = now.since(then);
            if was_up {
                rec.up += span;
            } else {
                rec.down += span;
                self.current_outage += span;
                rec.longest_outage = rec.longest_outage.max(self.current_outage);
            }
            if was_up && !available {
                rec.outages += 1;
            }
            if was_up != available {
                self.current_outage = SimDuration::ZERO;
            }
        }
        self.last = Some((now, available));
    }
}

impl SlaTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a probe of `instance` at `now`. The interval since the
    /// previous probe is attributed to the *previous* observed state.
    /// Called for every instance on every driver step, so the name is
    /// copied only the first time an instance is seen.
    pub fn probe(&mut self, instance: &str, now: SimTime, available: bool) {
        if let Some(t) = self.tracked.get_mut(instance) {
            t.probe(now, available);
            return;
        }
        self.tracked
            .entry(instance.to_owned())
            .or_default()
            .probe(now, available);
    }

    /// The record for `instance` (zeroes if never probed).
    pub fn record(&self, instance: &str) -> AvailabilityRecord {
        self.tracked
            .get(instance)
            .map(|t| t.record)
            .unwrap_or_default()
    }

    /// True if `instance` meets `spec`'s availability target so far.
    pub fn meets(&self, instance: &str, spec: &SlaSpec) -> bool {
        self.record(instance).availability() >= spec.availability
    }

    /// All tracked instance names, sorted.
    pub fn instances(&self) -> Vec<&str> {
        self.tracked.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_accumulates_by_previous_state() {
        let mut t = SlaTracker::new();
        t.probe("a", SimTime::from_secs(0), true);
        t.probe("a", SimTime::from_secs(8), true); // 8s up
        t.probe("a", SimTime::from_secs(10), false); // 2s up, now down
        t.probe("a", SimTime::from_secs(11), true); // 1s down
        t.probe("a", SimTime::from_secs(20), true); // 9s up
        let r = t.record("a");
        assert_eq!(r.up, SimDuration::from_secs(19));
        assert_eq!(r.down, SimDuration::from_secs(1));
        assert_eq!(r.outages, 1);
        assert_eq!(r.longest_outage, SimDuration::from_secs(1));
        assert!((r.availability() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn longest_outage_spans_multiple_probes() {
        let mut t = SlaTracker::new();
        t.probe("a", SimTime::from_secs(0), true);
        t.probe("a", SimTime::from_secs(1), false);
        t.probe("a", SimTime::from_secs(2), false);
        t.probe("a", SimTime::from_secs(4), false);
        t.probe("a", SimTime::from_secs(5), true);
        t.probe("a", SimTime::from_secs(6), false);
        t.probe("a", SimTime::from_secs(7), true);
        let r = t.record("a");
        assert_eq!(r.outages, 2);
        assert_eq!(r.longest_outage, SimDuration::from_secs(4));
    }

    #[test]
    fn meets_compares_target() {
        let mut t = SlaTracker::new();
        t.probe("a", SimTime::from_secs(0), true);
        t.probe("a", SimTime::from_secs(999), true);
        t.probe("a", SimTime::from_secs(1000), false);
        t.probe("a", SimTime::from_secs(1001), true);
        let spec = SlaSpec {
            availability: 0.999,
            ..SlaSpec::standard()
        };
        // 1000s up, 1s down: 0.999001 ≥ 0.999.
        assert!(t.meets("a", &spec));
        let strict = SlaSpec {
            availability: 0.9999,
            ..spec
        };
        assert!(!t.meets("a", &strict));
    }

    #[test]
    fn unknown_instance_is_fully_available() {
        let t = SlaTracker::new();
        assert_eq!(t.record("ghost").availability(), 1.0);
        assert!(t.instances().is_empty());
    }
}
