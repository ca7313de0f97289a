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

/// Tracks availability per instance from boolean probes — the downtime
/// instrument behind experiments E5–E9.
///
/// A probe attributes the interval since the previous one to the previous
/// state, so a run of probes that all see the same state adds up to one
/// probe at its end. The cluster driver leans on that: it probes every
/// instance only when a placement may have changed
/// ([`observe`](Self::observe)) and otherwise just moves the horizon
/// ([`extend_to`](Self::extend_to)); [`record`](Self::record) settles the
/// stretch in between on the fly, so every read equals what probing each
/// step would have accumulated.
#[derive(Debug, Clone, Default)]
pub struct SlaTracker {
    tracked: BTreeMap<String, Tracked>,
    // Every `live` record has been seen in its last state up to here.
    horizon: SimTime,
}

#[derive(Debug, Clone, Copy, Default)]
struct Tracked {
    record: AvailabilityRecord,
    last: Option<(SimTime, bool)>,
    // Length so far of the outage in progress (zero while up).
    current_outage: SimDuration,
    // Part of the latest `observe` pass: still accruing, up to the horizon.
    live: bool,
}

impl Tracked {
    fn observe(&mut self, now: SimTime, available: bool) {
        self.probe(now, available);
        self.live = true;
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
        if let Some(t) = self.tracked.get_mut(instance) {
            t.probe(now, available);
            return;
        }
        self.tracked
            .entry(instance.to_owned())
            .or_default()
            .probe(now, available);
    }

    /// One pass over everything there is to watch at `now`: each `(instance,
    /// available)` is probed and keeps accruing in that state as the
    /// horizon moves; an instance watched so far and absent from this pass
    /// stops accruing where the previous pass or extension left it, as if
    /// its probes had simply ceased. The name is copied only the first time
    /// an instance is seen.
    ///
    /// One walk over the tracked instances beside the probes settles,
    /// probes and retires each of them, so probes in name order cost no
    /// lookup. A probe of a name the walk has already passed, or has never
    /// seen, is looked up after it: any order gives the same records.
    pub fn observe<'a>(&mut self, now: SimTime, probes: impl IntoIterator<Item = (&'a str, bool)>) {
        let horizon = self.horizon;
        let retire = |t: &mut Tracked| {
            *t = t.settled(horizon);
            t.live = false;
        };
        let mut behind = Vec::new();
        let mut walk = self.tracked.iter_mut().peekable();
        for (instance, available) in probes {
            while let Some((_, t)) = walk.next_if(|(name, _)| name.as_str() < instance) {
                retire(t);
            }
            match walk.next_if(|(name, _)| name.as_str() == instance) {
                Some((_, t)) => {
                    retire(t);
                    t.observe(now, available);
                }
                None => behind.push((instance, available)),
            }
        }
        walk.for_each(|(_, t)| retire(t));
        for (instance, available) in behind {
            match self.tracked.get_mut(instance) {
                Some(t) => t.observe(now, available),
                None => self
                    .tracked
                    .entry(instance.to_owned())
                    .or_default()
                    .observe(now, available),
            }
        }
        self.horizon = now;
    }

    /// Nothing [`observe`](Self::observe) looks at has changed since the
    /// last pass: the instances it saw are in the same state at `now`.
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

    /// True if `instance` meets `spec`'s availability target so far.
    #[cfg(test)]
    pub(crate) fn meets(&self, instance: &str, spec: &SlaSpec) -> bool {
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

    /// Runs `ticks` — per 5 ms tick, what each of `names` shows (`None`: not
    /// in the registry) — through a tracker probed every tick and through
    /// one that passes over the instances only when a tick differs from the
    /// one before, reading every record after every tick.
    fn lazy_equals_every_tick(names: &[&str], ticks: &[&[Option<bool>]]) -> SlaTracker {
        let (mut every_tick, mut lazy) = (SlaTracker::new(), SlaTracker::new());
        let mut previous: Option<&[Option<bool>]> = None;
        for (i, &states) in ticks.iter().enumerate() {
            let now = SimTime::from_millis(5 * (i as u64 + 1));
            let seen = || {
                names
                    .iter()
                    .zip(states)
                    .filter_map(|(n, s)| s.map(|up| (*n, up)))
            };
            for (name, up) in seen() {
                every_tick.probe(name, now, up);
            }
            if previous == Some(states) {
                lazy.extend_to(now);
            } else {
                lazy.observe(now, seen());
            }
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

    /// The pass the walk replaced: settle every live record, then look each
    /// probe up.
    fn observe_by_lookup<'a>(
        t: &mut SlaTracker,
        now: SimTime,
        probes: impl IntoIterator<Item = (&'a str, bool)>,
    ) {
        for r in t.tracked.values_mut().filter(|r| r.live) {
            *r = r.settled(t.horizon);
            r.live = false;
        }
        for (instance, available) in probes {
            t.tracked
                .entry(instance.to_owned())
                .or_default()
                .observe(now, available);
        }
        t.horizon = now;
    }

    /// One step of a generated run: so many milliseconds later, a pass over
    /// `(name, up)` probes, or an extension.
    #[derive(Debug, Clone)]
    enum Step {
        Observe(Vec<(usize, bool)>),
        Extend,
    }

    const NAMES: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];

    /// Passes in name order, in any order, with duplicates, with names
    /// never seen before and without names seen so far, interleaved with
    /// extensions: every record reads the same as through a lookup per probe.
    #[test]
    fn the_walk_equals_a_lookup_per_probe_300_cases() {
        use dosgi_testkit::prop::{self, Config, Gen};
        use dosgi_testkit::{prop_verify_eq, TestRng};

        let runs = Gen::new(|rng: &mut TestRng| {
            let steps = rng.usize_in(1, 40);
            (0..steps)
                .map(|_| {
                    let gap_ms = rng.u64_in(0, 20);
                    if rng.chance(0.3) {
                        return (gap_ms, Step::Extend);
                    }
                    let n = rng.usize_in(0, 10);
                    let mut probes: Vec<(usize, bool)> = (0..n)
                        .map(|_| (rng.usize_in(0, NAMES.len() - 1), rng.chance(0.7)))
                        .collect();
                    match rng.u64_below(3) {
                        0 => {}
                        1 => probes.sort_by_key(|p| p.0),
                        _ => {
                            probes.sort_by_key(|p| p.0);
                            probes.dedup_by_key(|p| p.0);
                        }
                    }
                    (gap_ms, Step::Observe(probes))
                })
                .collect::<Vec<_>>()
        });
        prop::check_with(&Config::with_cases(300), "sla_walk", &runs, |run| {
            let (mut walk, mut lookup) = (SlaTracker::new(), SlaTracker::new());
            let mut now = SimTime::ZERO;
            for (i, (gap_ms, step)) in run.iter().enumerate() {
                now += SimDuration::from_millis(*gap_ms);
                match step {
                    Step::Extend => {
                        walk.extend_to(now);
                        lookup.extend_to(now);
                    }
                    Step::Observe(probes) => {
                        let probes = || probes.iter().map(|&(n, up)| (NAMES[n], up));
                        walk.observe(now, probes());
                        observe_by_lookup(&mut lookup, now, probes());
                    }
                }
                for name in NAMES {
                    prop_verify_eq!(walk.record(name), lookup.record(name), "{name}, step {i}");
                }
                prop_verify_eq!(walk.instances(), lookup.instances());
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
