//! Declarative SLOs, multi-window burn-rate alerting, and node health.
//!
//! An [`SloSpec`] names a service-level objective as a *bad-event
//! fraction budget*: `bad` counters over `total` counters must stay
//! under `budget_ppm` parts-per-million. The [`SloEngine`] samples the
//! cumulative counters on the scrape cadence and evaluates **burn
//! rates** — how many times faster than budget the error budget is being
//! consumed — over two window pairs:
//!
//! * **fast pair** (5 s and 1 m): catches a flash crowd in seconds, but
//!   only fires when *both* windows breach, so a single bad scrape tick
//!   cannot page;
//! * **slow pair** (30 s and 6 m): catches a slow leak the fast pair's
//!   high threshold ignores.
//!
//! A pair breaches when both of its windows burn at or above the pair's
//! threshold; the alert is **firing** while either pair breaches and
//! **resolved** when neither does. Only *transitions* emit an
//! [`AlertEvent`] (with the breaching window pair and the burn
//! multiple), so the alert timeline is sparse and — because evaluation
//! is integer arithmetic over sim-time samples — byte-deterministic on
//! replay.
//!
//! [`HealthState`] rolls alerts and quarantine into the per-node
//! ok/degraded/critical scoreboard the driver exports.

use crate::Telemetry;
use std::collections::VecDeque;

/// Fast-pair windows: 5 seconds and 1 minute (sim-time µs).
pub const FAST_WINDOWS_US: (u64, u64) = (5_000_000, 60_000_000);

/// Slow-pair windows: 30 seconds and 6 minutes (sim-time µs).
pub const SLOW_WINDOWS_US: (u64, u64) = (30_000_000, 360_000_000);

/// Default fast-pair threshold: 10.0× budget burn (×100 fixed-point).
pub const DEFAULT_FAST_BURN_X100: u64 = 1_000;

/// Default slow-pair threshold: 2.0× budget burn (×100 fixed-point).
pub const DEFAULT_SLOW_BURN_X100: u64 = 200;

/// A declarative service-level objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// SLO name — the `alert_firing(<name>)` subject in policy scripts.
    pub name: String,
    /// Counters whose sum is the bad-event count.
    pub bad: Vec<String>,
    /// Counters whose sum is the total-event count.
    pub total: Vec<String>,
    /// Error budget: allowed bad fraction, parts-per-million.
    pub budget_ppm: u64,
    /// Fast-pair burn threshold, ×100 (1_000 = 10× budget).
    pub fast_burn_x100: u64,
    /// Slow-pair burn threshold, ×100 (200 = 2× budget).
    pub slow_burn_x100: u64,
}

impl SloSpec {
    /// A spec with the default burn thresholds.
    pub fn new(
        name: impl Into<String>,
        bad: Vec<String>,
        total: Vec<String>,
        budget_ppm: u64,
    ) -> Self {
        SloSpec {
            name: name.into(),
            bad,
            total,
            budget_ppm: budget_ppm.max(1),
            fast_burn_x100: DEFAULT_FAST_BURN_X100,
            slow_burn_x100: DEFAULT_SLOW_BURN_X100,
        }
    }
}

/// Which window pair breached (or last breached, for a resolve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertWindow {
    /// The 5 s / 1 m pair.
    Fast,
    /// The 30 s / 6 m pair.
    Slow,
}

impl AlertWindow {
    /// Snapshot-JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertWindow::Fast => "fast",
            AlertWindow::Slow => "slow",
        }
    }
}

/// One alert-state transition, recorded into the snapshot timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertEvent {
    /// The [`SloSpec::name`] this event belongs to.
    pub slo: String,
    /// Transition time, simulated microseconds.
    pub at_us: u64,
    /// `true` = firing, `false` = resolved.
    pub firing: bool,
    /// The breaching pair (for a resolve: the pair that had been firing).
    pub window: AlertWindow,
    /// Burn multiple ×100 at transition time (the breaching pair's
    /// effective burn; for a resolve, the residual maximum burn).
    pub burn_x100: u64,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    at_us: u64,
    bad: u64,
    total: u64,
}

struct SloState {
    spec: SloSpec,
    ring: VecDeque<Sample>,
    ring_capacity: usize,
    firing: bool,
    last_window: AlertWindow,
}

/// Evaluates registered [`SloSpec`]s over cumulative counter samples.
pub struct SloEngine {
    slos: Vec<SloState>,
    cadence_us: u64,
}

impl SloEngine {
    /// An engine sampled every `cadence_us` sim-time microseconds. The
    /// per-SLO sample ring is sized to cover the slowest window (6 m) at
    /// that cadence — bounded memory with no downsampling needed.
    pub fn new(cadence_us: u64) -> Self {
        SloEngine {
            slos: Vec::new(),
            cadence_us: cadence_us.max(1),
        }
    }

    /// Register an SLO.
    pub fn add(&mut self, spec: SloSpec) {
        let ring_capacity = ((SLOW_WINDOWS_US.1 / self.cadence_us) as usize + 2).min(4096);
        self.slos.push(SloState {
            spec,
            ring: VecDeque::with_capacity(ring_capacity),
            ring_capacity,
            firing: false,
            last_window: AlertWindow::Fast,
        });
    }

    /// Registered SLO names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.slos.iter().map(|s| s.spec.name.as_str()).collect()
    }

    /// Whether the named SLO's alert is currently firing.
    pub fn firing(&self, name: &str) -> bool {
        self.slos.iter().any(|s| s.spec.name == name && s.firing)
    }

    /// Number of SLOs currently firing.
    pub fn firing_count(&self) -> usize {
        self.slos.iter().filter(|s| s.firing).count()
    }

    /// Sample every SLO's counters from `telemetry` at `now_us`,
    /// evaluate burn rates, and return the alert transitions (empty on
    /// a steady state). Each transition is also recorded into the
    /// registry's alert timeline for the schema-v3 snapshot.
    pub fn observe(&mut self, telemetry: &Telemetry, now_us: u64) -> Vec<AlertEvent> {
        let sum = |names: &[String]| names.iter().map(|n| telemetry.counter(n)).sum();
        let mut events = Vec::new();
        for state in &mut self.slos {
            let (bad, total) = (sum(&state.spec.bad), sum(&state.spec.total));
            if let Some(event) = state.step(now_us, bad, total) {
                telemetry.record_alert(event.clone());
                events.push(event);
            }
        }
        events
    }
}

impl SloState {
    /// Records one cumulative sample at `now_us` and evaluates the burn
    /// rates over the ring; returns the alert transition, if any. A full
    /// ring drops its oldest sample before it takes the new one, so it
    /// never outgrows the capacity it was made with.
    fn step(&mut self, now_us: u64, bad: u64, total: u64) -> Option<AlertEvent> {
        if self.ring.len() >= self.ring_capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(Sample {
            at_us: now_us,
            bad,
            total,
        });
        let budget = self.spec.budget_ppm;
        let fast = pair_burn(&self.ring, now_us, FAST_WINDOWS_US, budget);
        let slow = pair_burn(&self.ring, now_us, SLOW_WINDOWS_US, budget);
        let fast_breach = fast >= self.spec.fast_burn_x100;
        let slow_breach = slow >= self.spec.slow_burn_x100;
        let firing_now = fast_breach || slow_breach;
        if firing_now == self.firing {
            return None;
        }
        let window = if !firing_now {
            self.last_window
        } else if fast_breach {
            AlertWindow::Fast
        } else {
            AlertWindow::Slow
        };
        self.firing = firing_now;
        if firing_now {
            self.last_window = window;
        }
        Some(AlertEvent {
            slo: self.spec.name.clone(),
            at_us: now_us,
            firing: firing_now,
            window,
            burn_x100: if firing_now && fast_breach {
                fast
            } else if firing_now {
                slow
            } else {
                fast.max(slow)
            },
        })
    }
}

/// The pair's effective burn ×100: the *minimum* of its two windows'
/// burns (a pair breaches only when both windows do, so its effective
/// burn is the weaker of the two).
fn pair_burn(ring: &VecDeque<Sample>, now_us: u64, windows: (u64, u64), budget_ppm: u64) -> u64 {
    window_burn(ring, now_us, windows.0, budget_ppm)
        .min(window_burn(ring, now_us, windows.1, budget_ppm))
}

/// Burn ×100 over the trailing `window_us`: the bad fraction of the
/// events inside the window, divided by the budget fraction. Integer
/// arithmetic only (`u128` intermediates), a pure function of the
/// sample ring — byte-deterministic on replay.
fn window_burn(ring: &VecDeque<Sample>, now_us: u64, window_us: u64, budget_ppm: u64) -> u64 {
    let Some(cur) = ring.back() else { return 0 };
    let start = now_us.saturating_sub(window_us);
    // Baseline: the newest sample at or before the window start, or the
    // oldest retained sample while history is still shorter than the
    // window (an honest shorter-window estimate, deterministic either way).
    let Some(base) = ring
        .iter()
        .rev()
        .find(|s| s.at_us <= start)
        .or_else(|| ring.front())
    else {
        return 0;
    };
    if base.at_us >= cur.at_us {
        return 0; // no elapsed window yet
    }
    let bad_d = cur.bad.saturating_sub(base.bad) as u128;
    let total_d = cur.total.saturating_sub(base.total) as u128;
    if total_d == 0 {
        return 0;
    }
    // burn = (bad/total) / (budget_ppm / 1e6), reported ×100.
    let x = bad_d * 1_000_000 * 100 / (total_d * budget_ppm.max(1) as u128);
    x.min(u64::MAX as u128) as u64
}

/// Per-node health, rolled up from alert state, quarantine, and queue
/// pressure. Ordered: `Ok < Degraded < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Serving normally.
    Ok,
    /// An SLO alert is firing, or queues are under sustained pressure.
    Degraded,
    /// Quarantined state is present, or alerts coincide with saturated
    /// queues — repair is needed, not just headroom.
    Critical,
}

impl HealthState {
    /// Scoreboard/gauge spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    /// Gauge encoding: 0 = ok, 1 = degraded, 2 = critical.
    pub fn as_gauge(self) -> i64 {
        match self {
            HealthState::Ok => 0,
            HealthState::Degraded => 1,
            HealthState::Critical => 2,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Derive a node's [`HealthState`] from its observable indicators:
/// `alerts_firing` SLO alerts scoped to the node and `quarantined`
/// instances homed on it. A dead node is `Critical` by definition —
/// callers short-circuit that case before consulting the indicators.
pub fn derive_health(alerts_firing: usize, quarantined: usize) -> HealthState {
    if quarantined > 0 {
        HealthState::Critical
    } else if alerts_firing > 0 {
        HealthState::Degraded
    } else {
        HealthState::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: u64 = 250_000;

    impl SloEngine {
        /// Like [`SloEngine::observe`] but with caller-supplied cumulative
        /// `(bad, total)` samples, aligned with registration order.
        fn ingest(&mut self, now_us: u64, samples: &[(u64, u64)]) -> Vec<AlertEvent> {
            let slos = self.slos.iter_mut().zip(samples);
            slos.filter_map(|(state, &(bad, total))| state.step(now_us, bad, total))
                .collect()
        }
    }

    fn spec() -> SloSpec {
        SloSpec::new(
            "std-latency",
            vec!["bad".into()],
            vec!["total".into()],
            10_000, // 1% budget
        )
    }

    #[test]
    fn quiet_counters_never_fire() {
        let mut e = SloEngine::new(TICK);
        e.add(spec());
        for i in 0..100u64 {
            let ev = e.ingest(i * TICK, &[(0, i * 10)]);
            assert!(ev.is_empty());
        }
        assert!(!e.firing("std-latency"));
        assert_eq!(e.firing_count(), 0);
    }

    #[test]
    fn sustained_burn_fires_fast_pair_then_resolves() {
        let mut e = SloEngine::new(TICK);
        e.add(spec());
        let mut bad = 0u64;
        let mut total = 0u64;
        let mut fired_at = None;
        let mut resolved_at = None;
        // 2 minutes of clean traffic, then 100% errors for 30 s, then clean.
        for i in 0..1200u64 {
            let now = i * TICK;
            total += 100;
            if (480..600).contains(&i) {
                bad += 100;
            }
            for ev in e.ingest(now, &[(bad, total)]) {
                if ev.firing && fired_at.is_none() {
                    fired_at = Some(ev.at_us);
                    // Early in a run the slow pair's long window is still
                    // short history, so either pair may catch the burst.
                    let threshold = match ev.window {
                        AlertWindow::Fast => DEFAULT_FAST_BURN_X100,
                        AlertWindow::Slow => DEFAULT_SLOW_BURN_X100,
                    };
                    assert!(
                        ev.burn_x100 >= threshold,
                        "burn {} below threshold {threshold}",
                        ev.burn_x100
                    );
                } else if !ev.firing && fired_at.is_some() && resolved_at.is_none() {
                    resolved_at = Some(ev.at_us);
                }
            }
        }
        let fired = fired_at.expect("a 100%-error burst on a 1% budget must fire");
        let resolved = resolved_at.expect("alert must resolve after the burst");
        let burst_start = 480 * TICK;
        assert!(fired >= burst_start);
        assert!(
            fired <= burst_start + 10_000_000,
            "fast pair must fire within 10 s of the burst (fired {} µs after)",
            fired - burst_start
        );
        assert!(resolved > fired);
        assert!(!e.firing("std-latency"));
    }

    #[test]
    fn single_bad_tick_does_not_page() {
        let mut e = SloEngine::new(TICK);
        e.add(spec());
        let mut bad = 0u64;
        let mut total = 0u64;
        // One 250 ms tick of 100% errors inside a minute of clean traffic:
        // the 1 m window's burn stays under 10×, so the fast pair holds.
        for i in 0..240u64 {
            total += 100;
            if i == 120 {
                bad += 100;
            }
            let ev = e.ingest(i * TICK, &[(bad, total)]);
            assert!(ev.is_empty(), "one bad tick paged at i={i}: {ev:?}");
        }
    }

    #[test]
    fn slow_leak_fires_slow_pair() {
        let mut e = SloEngine::new(TICK);
        let mut s = spec();
        // Disable the fast pair so only the slow one can catch this.
        s.fast_burn_x100 = u64::MAX;
        e.add(s);
        let mut bad = 0u64;
        let mut total = 0u64;
        let mut window = None;
        // 4% errors forever: 4× a 1% budget — under the 10× fast
        // threshold, over the 2× slow threshold once 6 m of history shows.
        for i in 0..2000u64 {
            total += 100;
            if i % 25 == 0 {
                bad += 100;
            }
            for ev in e.ingest(i * TICK, &[(bad, total)]) {
                if ev.firing && window.is_none() {
                    window = Some(ev.window);
                }
            }
        }
        assert_eq!(window, Some(AlertWindow::Slow));
        assert!(e.firing("std-latency"));
    }

    #[test]
    fn observe_reads_counters_and_records_the_timeline() {
        let t = Telemetry::new();
        let mut e = SloEngine::new(TICK);
        e.add(spec());
        for i in 0..120u64 {
            t.add("total", 100);
            if i >= 40 {
                t.add("bad", 100);
            }
            e.observe(&t, i * TICK);
        }
        assert!(e.firing("std-latency"));
        let alerts = t.alerts();
        assert_eq!(alerts.len(), 1, "exactly one firing transition: {alerts:?}");
        assert!(alerts[0].firing);
        assert_eq!(alerts[0].slo, "std-latency");
    }

    #[test]
    fn ring_stays_bounded() {
        let mut e = SloEngine::new(TICK);
        e.add(spec());
        for i in 0..10_000u64 {
            e.ingest(i * TICK, &[(0, i)]);
        }
        let cap = (SLOW_WINDOWS_US.1 / TICK) as usize + 2;
        assert!(e.slos[0].ring.len() <= cap);
    }

    /// A ring fed one sample more than it holds drops its oldest and
    /// keeps the buffer it was made with: taking the new sample first grew
    /// a full ring to twice its size on its first wrap, and kept it.
    #[test]
    fn a_full_ring_keeps_its_capacity() {
        let mut e = SloEngine::new(TICK);
        e.add(spec());
        let (capacity, buffer) = (e.slos[0].ring_capacity, e.slos[0].ring.capacity());
        for i in 0..=capacity as u64 {
            e.ingest(i * TICK, &[(0, i)]);
        }
        let ring = &e.slos[0].ring;
        assert_eq!(ring.len(), capacity);
        assert_eq!(ring.front().map(|s| s.at_us), Some(TICK));
        assert_eq!(ring.capacity(), buffer);
    }

    #[test]
    fn health_derivation_matrix() {
        assert_eq!(derive_health(0, 0), HealthState::Ok);
        assert_eq!(derive_health(1, 0), HealthState::Degraded);
        assert_eq!(derive_health(0, 1), HealthState::Critical);
        assert!(HealthState::Ok < HealthState::Degraded);
        assert!(HealthState::Degraded < HealthState::Critical);
        assert_eq!(HealthState::Critical.as_gauge(), 2);
        assert_eq!(HealthState::Degraded.to_string(), "degraded");
    }
}
