//! Storage fault injection: the SAN stops being a perfect component.
//!
//! The paper assumes "an underlying SAN or distributed filesystem" that is
//! always readable cluster-wide (§3.2). Real storage tiers brown out, drop
//! requests and tear multi-block writes when a writer dies mid-batch. This
//! module makes those behaviours injectable — **deterministically**, from a
//! 64-bit seed on the simulated clock — so every persistence path in the
//! stack can be exercised against the one component the whole design
//! depends on.
//!
//! Three fault families, composable in one [`FaultPlan`]:
//!
//! * **Transient I/O errors** — every data-plane operation independently
//!   fails with probability `io_error_rate`
//!   ([`StoreError::Io`]); retryable.
//! * **Brown-outs** — timed unavailability windows during which every
//!   data-plane operation fails ([`StoreError::Unavailable`]); the
//!   storage-tier analogue of a network partition.
//! * **Torn writes** — a multi-key batch ([`crate::SharedStore::put_many`])
//!   persists only a prefix and reports [`StoreError::TornWrite`], modeling a
//!   writer crashing mid-batch. Recovery is an idempotent full-batch
//!   rewrite.
//!
//! The plan composes with — and is orthogonal to — the
//! [`SanProfile`](crate::SanProfile) latency model: profiles say how *slow*
//! the SAN is, plans say how *broken* it is.
//!
//! Fault decisions consume a dedicated RNG stream in operation order; since
//! the simulation is single-threaded and deterministic, the same seed
//! always yields the same faults at the same operations.

use crate::StoreError;
use dosgi_net::{SimDuration, SimTime};
use dosgi_testkit::{mix_seed, TestRng};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A seeded, declarative description of how the SAN misbehaves.
///
/// The inert default ([`FaultPlan::none`]) injects nothing; a store without
/// a plan attached behaves exactly like the pre-fault-layer store.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that any data-plane operation fails with a
    /// transient [`StoreError::Io`].
    pub io_error_rate: f64,
    /// Probability in `[0, 1]` that a [`put_many`](crate::SharedStore::put_many)
    /// batch tears: a strict prefix is persisted, the rest is lost.
    pub torn_write_rate: f64,
    /// Half-open `[from, until)` windows during which every data-plane
    /// operation fails with [`StoreError::Unavailable`].
    pub brownouts: Vec<(SimTime, SimTime)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: no faults, ever.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            io_error_rate: 0.0,
            torn_write_rate: 0.0,
            brownouts: Vec::new(),
        }
    }

    /// A plan that fails each operation independently with probability
    /// `io_error_rate`.
    pub fn flaky(io_error_rate: f64, seed: u64) -> Self {
        FaultPlan {
            seed,
            io_error_rate,
            ..FaultPlan::none()
        }
    }

    /// Adds an unavailability window `[from, until)`.
    pub fn with_brownout(mut self, from: SimTime, until: SimTime) -> Self {
        self.brownouts.push((from, until));
        self
    }

    /// Sets the torn-write probability for multi-key batches.
    pub fn with_torn_writes(mut self, rate: f64) -> Self {
        self.torn_write_rate = rate;
        self
    }

    /// True when `at` falls inside a brown-out window.
    pub fn browned_out(&self, at: SimTime) -> bool {
        self.brownouts
            .iter()
            .any(|&(from, until)| at >= from && at < until)
    }

    /// True when the plan can never inject anything.
    #[cfg(test)]
    pub(crate) fn is_inert(&self) -> bool {
        self.io_error_rate <= 0.0 && self.torn_write_rate <= 0.0 && self.brownouts.is_empty()
    }
}

#[derive(Debug)]
struct InjectorState {
    plan: Option<FaultPlan>,
    rng: TestRng,
    now: SimTime,
}

impl Default for InjectorState {
    fn default() -> Self {
        InjectorState {
            plan: None,
            rng: TestRng::new(0),
            now: SimTime::ZERO,
        }
    }
}

/// The shared fault decision point.
///
/// A [`SharedStore`](crate::SharedStore) owns one. Clones share state
/// (`Arc` semantics), mirroring the store itself.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    state: Arc<Mutex<InjectorState>>,
}

impl FaultInjector {
    /// Creates an inert injector (no plan attached).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, InjectorState> {
        // Plain owned data; adopt a poisoned lock like the store does.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs `plan`, (re)seeding the fault RNG stream from it.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut s = self.lock();
        s.rng = TestRng::new(plan.seed);
        s.plan = Some(plan);
    }

    /// Removes any plan: the injector becomes inert again.
    pub fn clear(&self) {
        self.lock().plan = None;
    }

    /// The currently installed plan, if any.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.lock().plan.clone()
    }

    /// Advances the injector's clock; brown-out windows are evaluated
    /// against this instant. The simulation driver calls this every tick.
    pub fn set_now(&self, now: SimTime) {
        self.lock().now = now;
    }

    /// The injector's current clock reading.
    pub fn now(&self) -> SimTime {
        self.lock().now
    }

    /// False while the current instant is inside a brown-out window.
    pub fn is_available(&self) -> bool {
        let s = self.lock();
        match &s.plan {
            Some(plan) => !plan.browned_out(s.now),
            None => true,
        }
    }

    /// One data-plane fault decision: `Err(Unavailable)` during a
    /// brown-out, `Err(Io)` with probability `io_error_rate`, `Ok` otherwise.
    pub(crate) fn roll(&self, op: &'static str) -> Result<(), StoreError> {
        let mut guard = self.lock();
        let s = &mut *guard;
        let Some(plan) = &s.plan else { return Ok(()) };
        if plan.browned_out(s.now) {
            return Err(StoreError::Unavailable);
        }
        if plan.io_error_rate > 0.0 && s.rng.chance(plan.io_error_rate) {
            return Err(StoreError::Io { op });
        }
        Ok(())
    }

    /// Torn-write decision for a batch of `len` entries: `Some(written)`
    /// with `written < len` when the batch tears.
    pub(crate) fn torn_len(&self, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        let mut guard = self.lock();
        let s = &mut *guard;
        let plan = s.plan.as_ref()?;
        if plan.torn_write_rate > 0.0 && s.rng.chance(plan.torn_write_rate) {
            Some(s.rng.u64_below(len as u64) as usize)
        } else {
            None
        }
    }
}

/// Bounded exponential backoff with deterministic jitter, on the simulated
/// clock.
///
/// `delay(attempt) = min(cap, base · 2^attempt) · (1 + jitter)` with
/// `jitter ∈ [0, ½)` derived by mixing `jitter_seed` with the attempt
/// number — no wall clock, no global RNG, so retry timing replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before the operation is declared unrecoverable (≥ 1).
    pub max_attempts: u32,
    /// First-retry delay.
    pub base: SimDuration,
    /// Upper bound on the un-jittered delay.
    pub cap: SimDuration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The default policy for persistence paths: 5 attempts, 20 ms base,
    /// capped at 2 s.
    pub const fn persistence() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: SimDuration::from_millis(20),
            cap: SimDuration::from_secs(2),
            jitter_seed: 0x5AD_FA01,
        }
    }

    /// The backoff before retry number `attempt` (0-based: the delay after
    /// the first failure is `backoff(0)`).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.min(20); // 2^20 · base already dwarfs any cap
        let raw = SimDuration::from_micros(
            self.base
                .as_micros()
                .saturating_mul(1u64 << exp)
                .min(self.cap.as_micros()),
        );
        // Jitter in [0, raw/2), in 1/1024 steps.
        let frac = mix_seed(self.jitter_seed, attempt as u64) % 1024;
        raw + (raw / 2 * frac) / 1024
    }

    /// True when `attempt` failures exhaust the policy.
    pub fn exhausted(&self, attempts: u32) -> bool {
        attempts >= self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_injector_never_fails() {
        let f = FaultInjector::new();
        for _ in 0..1000 {
            assert_eq!(f.roll("op"), Ok(()));
        }
        assert_eq!(f.torn_len(5), None);
        assert!(f.is_available());
    }

    #[test]
    fn io_errors_follow_the_seed_deterministically() {
        let run = || {
            let f = FaultInjector::new();
            f.set_plan(FaultPlan::flaky(0.3, 42));
            (0..200).map(|_| f.roll("op").is_err()).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same fault sequence");
        let hits = a.iter().filter(|e| **e).count();
        assert!((30..90).contains(&hits), "~30% of 200, got {hits}");
    }

    #[test]
    fn brownout_windows_gate_on_the_injector_clock() {
        let f = FaultInjector::new();
        f.set_plan(FaultPlan::none().with_brownout(SimTime::from_secs(1), SimTime::from_secs(2)));
        assert!(f.is_available());
        assert_eq!(f.roll("op"), Ok(()));
        f.set_now(SimTime::from_millis(1500));
        assert!(!f.is_available());
        assert_eq!(f.roll("op"), Err(StoreError::Unavailable));
        f.set_now(SimTime::from_secs(2)); // half-open: end instant is healed
        assert!(f.is_available());
        assert_eq!(f.roll("op"), Ok(()));
    }

    #[test]
    fn torn_len_is_a_strict_prefix() {
        let f = FaultInjector::new();
        f.set_plan(FaultPlan::none().with_torn_writes(1.0));
        for _ in 0..100 {
            let torn = f.torn_len(4).expect("rate 1.0 always tears");
            assert!(torn < 4);
        }
        assert_eq!(f.torn_len(0), None, "empty batches cannot tear");
    }

    #[test]
    fn clearing_the_plan_heals_everything() {
        let f = FaultInjector::new();
        f.set_plan(FaultPlan::flaky(1.0, 1));
        assert!(f.roll("op").is_err());
        f.clear();
        assert_eq!(f.roll("op"), Ok(()));
        assert_eq!(f.plan(), None);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy::persistence();
        let d0 = p.backoff(0);
        let d1 = p.backoff(1);
        let d3 = p.backoff(3);
        assert!(d0 >= p.base && d0 < p.base * 2, "{d0:?}");
        assert!(d1 > d0);
        assert!(d3 > d1);
        // Far attempts hit the cap (plus at most 50% jitter).
        let d20 = p.backoff(20);
        assert!(d20 >= p.cap && d20 <= p.cap + p.cap / 2, "{d20:?}");
        // Deterministic: same policy, same attempt, same delay.
        assert_eq!(p.backoff(2), p.backoff(2));
        assert!(!p.exhausted(4));
        assert!(p.exhausted(5));
    }

    #[test]
    fn plan_predicates() {
        assert!(FaultPlan::none().is_inert());
        assert!(!FaultPlan::flaky(0.1, 0).is_inert());
        let p = FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(1));
        assert!(!p.is_inert());
        assert!(p.browned_out(SimTime::from_millis(500)));
        assert!(!p.browned_out(SimTime::from_secs(1)));
    }
}
