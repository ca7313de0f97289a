//! Phase counters: where a driver step's calls, time and allocations go.
//!
//! A [`Phases`] handle is either disabled — the default, a `None` that
//! every entry point branches on and leaves at once, reading no clock and
//! formatting nothing — or shares one [`Phase`]-indexed table of relaxed
//! atomics. [`Phases::enter`] returns a guard that, when it drops, adds one
//! call, the wall-clock nanoseconds since it was made and the allocations
//! made meanwhile to its phase. Allocations are read through a `fn() -> u64`
//! hook supplied by whoever owns the global allocator; this crate installs
//! none.
//!
//! Unlike the rest of the crate the table reads the wall clock, so it is
//! turned on by a call, never by a run's configuration: a profiling driver
//! creates the handle and hands it to the cluster. Nothing the instrumented
//! code does depends on it.
//!
//! Counts are inclusive: a phase entered inside another is counted in both.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

macro_rules! phases {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)*) => {
        /// A named phase of the driver loop or of a node restart.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Phase {
            $($(#[$doc])* $variant,)*
        }

        impl Phase {
            /// Every phase, in table order.
            pub const ALL: &'static [Phase] = &[$(Phase::$variant,)*];

            /// The phase's name as a table prints it.
            pub fn name(self) -> &'static str {
                match self {
                    $(Phase::$variant => $name,)*
                }
            }
        }
    };
}

phases! {
    /// The network advancing and a node draining its mailbox.
    NetDrain = "net.drain",
    /// The group endpoint handling a tick's inbound messages.
    GcsHandle = "gcs.handle",
    /// The group endpoint's own tick: heartbeats, suspicion, ordering.
    GcsTick = "gcs.tick",
    /// The node applying what the group layer delivered.
    ApplyControl = "apply_control",
    /// Queued adoptions materializing.
    Adopt = "adopt",
    /// A restore reading its framework's namespace from the SAN.
    AdoptRead = "adopt.read",
    /// A restore turning its rows into bundles: the header, the
    /// manifests (shared or parsed) and the activators.
    AdoptManifests = "adopt.manifests",
    /// A restore wiring its bundles.
    AdoptResolve = "adopt.resolve",
    /// A restoring framework's activators registering services.
    AdoptRegister = "adopt.register",
    /// A restore starting its persistently started bundles.
    AdoptStart = "adopt.start",
    /// A graceful hand-off's source end: the instance stopped, its state
    /// flushed and the release ordered.
    Release = "release",
    /// Queued in-place upgrades swapping.
    Upgrade = "upgrade",
    /// Write-behind persistence being retried.
    PersistFlush = "persist.flush",
    /// Usage sampling.
    Sample = "sample",
    /// Autonomic policy evaluation.
    Policy = "policy",
    /// The stranded sweep and the drain check.
    Sweep = "sweep",
    /// The driver's availability accounting.
    Availability = "availability",
    /// The series scrape, health gauges and SLO evaluation.
    Scrape = "scrape",
    /// A whole node restart, outside the step.
    RestartNode = "restart_node",
    /// The part of a restart that takes the cluster-invariant boot kit.
    RestartKit = "restart_node.kit",
    /// The part of a restart that builds the host framework.
    RestartHost = "restart_node.host",
}

/// What one phase has counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCount {
    /// Times the phase was entered.
    pub calls: u64,
    /// Wall-clock nanoseconds spent inside it.
    pub ns: u64,
    /// Allocations made inside it, as the hook counts them.
    pub allocs: u64,
}

#[derive(Debug, Default)]
struct Slot {
    calls: AtomicU64,
    ns: AtomicU64,
    allocs: AtomicU64,
}

#[derive(Debug)]
struct Table {
    slots: Vec<Slot>,
    allocations: fn() -> u64,
}

/// Handle on a phase table, or the disabled no-op. Clones share the table.
#[derive(Debug, Clone, Default)]
pub struct Phases(Option<Arc<Table>>);

impl Phases {
    /// An enabled, zeroed table whose allocation counts are read from
    /// `allocations` (a running total; only differences are used).
    pub fn new(allocations: fn() -> u64) -> Self {
        let slots = Phase::ALL.iter().map(|_| Slot::default()).collect();
        Phases(Some(Arc::new(Table { slots, allocations })))
    }

    /// The disabled handle: every call returns at once.
    pub fn disabled() -> Self {
        Phases(None)
    }

    /// Starts counting `phase`; the count is taken when the guard drops.
    /// The guard borrows the table: entering a phase touches no reference
    /// count.
    #[inline]
    pub fn enter(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard(self.0.as_deref().map(|table| Entered {
            start: Instant::now(),
            allocs: (table.allocations)(),
            table,
            phase,
        }))
    }

    /// Runs `f` as one call of `phase`.
    #[inline]
    pub fn count_in<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let _counted = self.enter(phase);
        f()
    }

    /// What `phase` has counted so far (zero when disabled).
    pub fn count(&self, phase: Phase) -> PhaseCount {
        self.0.as_ref().map_or_else(PhaseCount::default, |table| {
            let slot = &table.slots[phase as usize];
            PhaseCount {
                calls: slot.calls.load(Ordering::Relaxed),
                ns: slot.ns.load(Ordering::Relaxed),
                allocs: slot.allocs.load(Ordering::Relaxed),
            }
        })
    }
}

#[derive(Debug)]
struct Entered<'a> {
    table: &'a Table,
    phase: Phase,
    start: Instant,
    allocs: u64,
}

/// Counts one call of a phase when dropped; inert from a disabled handle.
#[derive(Debug)]
#[must_use = "a phase is counted when its guard drops"]
pub struct PhaseGuard<'a>(Option<Entered<'a>>);

impl Drop for PhaseGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(e) = &self.0 {
            let slot = &e.table.slots[e.phase as usize];
            let ns = u64::try_from(e.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let allocs = (e.table.allocations)().wrapping_sub(e.allocs);
            slot.calls.fetch_add(1, Ordering::Relaxed);
            slot.ns.fetch_add(ns, Ordering::Relaxed);
            slot.allocs.fetch_add(allocs, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static ALLOCATED: AtomicU64 = AtomicU64::new(0);

    fn allocated() -> u64 {
        ALLOCATED.load(Ordering::Relaxed)
    }

    #[test]
    fn a_guard_counts_its_phase_and_nested_phases_count_in_both() {
        let phases = Phases::new(allocated);
        {
            let _outer = phases.enter(Phase::RestartNode);
            ALLOCATED.fetch_add(2, Ordering::Relaxed);
            let _inner = phases.enter(Phase::RestartHost);
            ALLOCATED.fetch_add(3, Ordering::Relaxed);
        }
        let _ = phases.enter(Phase::RestartHost);
        let (outer, inner) = (
            phases.count(Phase::RestartNode),
            phases.count(Phase::RestartHost),
        );
        assert_eq!((outer.calls, outer.allocs), (1, 5));
        assert_eq!((inner.calls, inner.allocs), (2, 3));
        assert_eq!(phases.count(Phase::Adopt), PhaseCount::default());
    }

    #[test]
    fn a_disabled_handle_counts_nothing() {
        let phases = Phases::disabled();
        drop(phases.enter(Phase::Adopt));
        assert_eq!(phases.count(Phase::Adopt), PhaseCount::default());
        assert!(Phase::ALL
            .iter()
            .enumerate()
            .all(|(i, p)| *p as usize == i && !p.name().is_empty()));
    }
}
