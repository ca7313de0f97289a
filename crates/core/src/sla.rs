//! Service level agreements and availability tracking.

use dosgi_net::{SimDuration, SimTime};
use dosgi_vosgi::ResourceQuota;
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// Tracks availability per instance from boolean probes — the downtime
/// instrument behind experiments E5–E9.
///
/// A probe attributes the interval since the previous one to the previous
/// state, so a run of probes that all see the same state adds up to one
/// probe at its end. The cluster driver leans on that: each step it
/// [`observe`](Self::observe)s — or [`retire`](Self::retire)s — only the
/// instances whose answer may have changed, and otherwise just moves the
/// horizon ([`extend_to`](Self::extend_to)); [`record`](Self::record)
/// settles the stretch in between on the fly, so every read equals what
/// probing every instance each step would have accumulated.
#[derive(Debug, Clone, Default)]
pub struct SlaTracker {
    tracked: BTreeMap<Arc<str>, Tracked>,
    // Every `live` record has been seen in its last state up to here.
    horizon: SimTime,
}

#[derive(Debug, Clone, Copy, Default)]
struct Tracked {
    record: AvailabilityRecord,
    last: Option<(SimTime, bool)>,
    // Length so far of the outage in progress (zero while up).
    current_outage: SimDuration,
    // Observed and not retired since: still accruing, up to the horizon.
    live: bool,
}

impl Tracked {
    /// Accounted up to `horizon` in the last seen state, and no longer
    /// accruing.
    fn retire(&mut self, horizon: SimTime) {
        *self = self.settled(horizon);
        self.live = false;
    }

    /// The stretch up to `at` in the last seen state, accounted for.
    fn settled(mut self, at: SimTime) -> Self {
        if let Some((then, state)) = self.last.filter(|_| self.live) {
            self.probe(at.max(then), state);
        }
        self
    }

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
    pub fn probe(&mut self, instance: &str, now: SimTime, available: bool) {
        match self.tracked.get_mut(instance) {
            Some(t) => t.probe(now, available),
            None => self
                .tracked
                .entry(instance.into())
                .or_default()
                .probe(now, available),
        }
    }

    /// Probes `instance` at `now`, after accounting it up to the horizon:
    /// from here on it keeps accruing in that state as the horizon moves,
    /// until it is observed again or retired. The name is shared, not
    /// copied, the first time an instance is seen.
    pub fn observe(&mut self, now: SimTime, instance: &Arc<str>, available: bool) {
        let horizon = self.horizon;
        let observe = |t: &mut Tracked| {
            t.retire(horizon);
            t.live = true;
            t.probe(now, available);
        };
        match self.tracked.get_mut(&**instance) {
            Some(t) => observe(t),
            None => observe(self.tracked.entry(Arc::clone(instance)).or_default()),
        }
    }

    /// `instance` is no longer there to watch: it stops accruing where the
    /// horizon left it, as if its probes had simply ceased. A name never
    /// observed is left alone.
    pub fn retire(&mut self, instance: &str) {
        if let Some(t) = self.tracked.get_mut(instance) {
            t.retire(self.horizon);
        }
    }

    /// [`retire`](Self::retire)s every instance: what a pass that observes
    /// everything there is to watch begins with, so that an instance it
    /// does not observe stops accruing.
    pub fn retire_all(&mut self) {
        let horizon = self.horizon;
        self.tracked.values_mut().for_each(|t| t.retire(horizon));
    }

    /// Every instance still accruing is in the same state at `now`: the
    /// horizon moves there.
    pub fn extend_to(&mut self, now: SimTime) {
        self.horizon = now;
    }

    /// The record for `instance` (zeroes if never probed).
    pub fn record(&self, instance: &str) -> AvailabilityRecord {
        self.tracked
            .get(instance)
            .map(|t| t.settled(self.horizon).record)
            .unwrap_or_default()
    }

    /// All tracked instance names, sorted.
    pub fn instances(&self) -> Vec<&str> {
        self.tracked.keys().map(|name| &**name).collect()
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
        let availability = t.record("a").availability();
        assert!(availability >= spec.availability);
        let strict = SlaSpec {
            availability: 0.9999,
            ..spec
        };
        assert!(availability < strict.availability);
    }

    /// Runs `ticks` — per 5 ms tick, what each of `names` shows (`None`: not
    /// in the registry) — through a tracker probed every tick and through
    /// one that observes or retires only the names whose state differs from
    /// the tick before and otherwise extends, reading every record after
    /// every tick.
    fn lazy_equals_every_tick(names: &[&str], ticks: &[&[Option<bool>]]) -> SlaTracker {
        let (mut every_tick, mut lazy) = (SlaTracker::new(), SlaTracker::new());
        let shared: Vec<Arc<str>> = names.iter().map(|&n| n.into()).collect();
        let mut previous: Option<&[Option<bool>]> = None;
        for (i, &states) in ticks.iter().enumerate() {
            let now = SimTime::from_millis(5 * (i as u64 + 1));
            for (name, state) in names.iter().zip(states) {
                if let Some(up) = state {
                    every_tick.probe(name, now, *up);
                }
            }
            for (j, (name, state)) in shared.iter().zip(states).enumerate() {
                if previous.is_some_and(|p| p[j] == *state) {
                    continue;
                }
                match state {
                    Some(up) => lazy.observe(now, name, *up),
                    None => lazy.retire(name),
                }
            }
            lazy.extend_to(now);
            previous = Some(states);
            for name in names {
                assert_eq!(
                    lazy.record(name),
                    every_tick.record(name),
                    "{name} read after tick {i}"
                );
            }
        }
        assert_eq!(lazy.instances(), every_tick.instances());
        lazy
    }

    #[test]
    fn lazy_extension_equals_probing_every_tick() {
        const UP: Option<bool> = Some(true);
        const DOWN: Option<bool> = Some(false);
        // Up, down, up again, with stretches in which nothing changes.
        let mut ticks: Vec<&[Option<bool>]> = Vec::new();
        ticks.extend([&[UP, UP][..]; 40]);
        ticks.extend([&[DOWN, UP][..]; 30]);
        ticks.extend([&[UP, UP][..]; 25]);
        let t = lazy_equals_every_tick(&["a", "b"], &ticks);
        assert_eq!(t.record("a").outages, 1);
        assert_eq!(t.record("a").down, SimDuration::from_millis(150));
        assert_eq!(t.record("b").down, SimDuration::ZERO);
        assert_eq!(t.record("b").up, SimDuration::from_millis(5 * 94));
    }

    #[test]
    fn longest_outage_spans_a_skipped_stretch() {
        const UP: Option<bool> = Some(true);
        const DOWN: Option<bool> = Some(false);
        // `a` is down across a change that only concerns `b`, then across a
        // long stretch nobody looks at, and is read in the middle of it.
        let mut ticks: Vec<&[Option<bool>]> = Vec::new();
        ticks.extend([&[UP, UP][..]; 3]);
        ticks.extend([&[DOWN, UP][..]; 10]);
        ticks.extend([&[DOWN, DOWN][..]; 200]);
        ticks.extend([&[UP, DOWN][..]; 4]);
        ticks.extend([&[DOWN, DOWN][..]; 7]);
        let t = lazy_equals_every_tick(&["a", "b"], &ticks);
        assert_eq!(t.record("a").outages, 2);
        assert_eq!(
            t.record("a").longest_outage,
            SimDuration::from_millis(5 * 210)
        );
    }

    #[test]
    fn an_instance_undeployed_mid_stretch_stops_accruing_there() {
        const UP: Option<bool> = Some(true);
        const GONE: Option<bool> = None;
        // `a` leaves the registry while `b` stays; later the name is used
        // again, and the gap goes to the state `a` was last seen in.
        let mut ticks: Vec<&[Option<bool>]> = Vec::new();
        ticks.extend([&[UP, UP][..]; 20]);
        ticks.extend([&[GONE, UP][..]; 50]);
        let t = lazy_equals_every_tick(&["a", "b"], &ticks);
        assert_eq!(t.record("a").up, SimDuration::from_millis(5 * 19));
        assert_eq!(t.record("b").up, SimDuration::from_millis(5 * 69));
        ticks.extend([&[Some(false), UP][..]; 10]);
        ticks.extend([&[GONE, GONE][..]; 10]);
        ticks.extend([&[UP, UP][..]; 10]);
        lazy_equals_every_tick(&["a", "b"], &ticks);
    }

    const NAMES: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];

    /// One step of a generated run: so many milliseconds later, each name's
    /// state (`None`: not there to watch), whether the per-name tracker
    /// passes over everything this time, and the unchanged names it probes
    /// anyway.
    type Step = (u64, [Option<bool>; 8], bool, Vec<usize>);

    /// A tracker told only of the names whose state changed — sometimes of
    /// more, sometimes of everything — reads after every step what one
    /// given a full pass each step reads: retiring every record, then
    /// observing each name there is to watch.
    #[test]
    fn a_pass_per_changed_name_equals_a_full_pass_300_cases() {
        use dosgi_testkit::prop::{self, Config, Gen};
        use dosgi_testkit::{prop_verify_eq, TestRng};

        let runs = Gen::new(|rng: &mut TestRng| {
            let mut states = [None; 8];
            (0..rng.usize_in(1, 40))
                .map(|_| {
                    for state in &mut states {
                        if rng.chance(0.2) {
                            *state = rng.chance(0.8).then(|| rng.chance(0.7));
                        }
                    }
                    let extra = (0..rng.usize_in(0, 3))
                        .map(|_| rng.usize_in(0, NAMES.len() - 1))
                        .collect();
                    (rng.u64_in(0, 20), states, rng.chance(0.1), extra)
                })
                .collect::<Vec<Step>>()
        });
        let names: Vec<Arc<str>> = NAMES.iter().map(|&n| n.into()).collect();
        prop::check_with(&Config::with_cases(300), "sla_per_name", &runs, |run| {
            let (mut per_name, mut full) = (SlaTracker::new(), SlaTracker::new());
            let mut now = SimTime::ZERO;
            let mut previous = [None; 8];
            for (i, (gap_ms, states, everything, extra)) in run.iter().enumerate() {
                now += SimDuration::from_millis(*gap_ms);
                let visit = |t: &mut SlaTracker, n: usize| match states[n] {
                    Some(up) => t.observe(now, &names[n], up),
                    None => t.retire(&names[n]),
                };
                full.retire_all();
                for n in (0..NAMES.len()).filter(|&n| states[n].is_some()) {
                    visit(&mut full, n);
                }
                full.extend_to(now);
                if *everything {
                    per_name.retire_all();
                }
                let changed = |n: &usize| *everything || states[*n] != previous[*n];
                for n in (0..NAMES.len())
                    .filter(changed)
                    .chain(extra.iter().copied())
                {
                    visit(&mut per_name, n);
                }
                per_name.extend_to(now);
                previous = *states;
                for name in NAMES {
                    prop_verify_eq!(per_name.record(name), full.record(name), "{name}, step {i}");
                }
                prop_verify_eq!(per_name.instances(), full.instances());
            }
            Ok(())
        });
    }

    #[test]
    fn unknown_instance_is_fully_available() {
        let t = SlaTracker::new();
        assert_eq!(t.record("ghost").availability(), 1.0);
        assert!(t.instances().is_empty());
    }
}
