//! Per-bundle resource usage accounting.
//!
//! §3.1 of the paper laments that the JVM offers no per-customer resource
//! accounting (only whole-platform `MemoryMXBean`, rough per-thread CPU via
//! `ThreadMXBean`) and looks forward to JSR-284, the Resource Consumption
//! API. The simulation does not have that limitation: every service call
//! charges its CPU, memory and disk demand to the owning bundle's
//! [`UsageLedger`], and the `dosgi-monitor` crate aggregates ledgers into
//! per-instance resource domains.

use crate::BundleId;
use dosgi_net::SimDuration;
use std::collections::BTreeMap;

/// `a + b`, held at the ceiling.
fn saturating(a: SimDuration, b: SimDuration) -> SimDuration {
    SimDuration::from_micros(a.as_micros().saturating_add(b.as_micros()))
}

/// A point-in-time reading of one bundle's accumulated usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UsageSnapshot {
    /// Total CPU time consumed.
    pub cpu: SimDuration,
    /// Memory currently held, in bytes.
    pub memory: u64,
    /// Total bytes written to persistent storage.
    pub disk: u64,
    /// Number of service calls served.
    pub calls: u64,
}

/// The charges, one per account; every one saturates at the account's
/// ceiling rather than wrapping.
impl UsageSnapshot {
    pub(crate) fn charge_cpu(&mut self, d: SimDuration) {
        self.cpu = saturating(self.cpu, d);
    }

    pub(crate) fn alloc(&mut self, bytes: u64) {
        self.memory = self.memory.saturating_add(bytes);
    }

    /// Freeing more than is held clamps to zero rather than corrupting
    /// the account.
    pub(crate) fn free(&mut self, bytes: u64) {
        self.memory = self.memory.saturating_sub(bytes);
    }

    pub(crate) fn charge_disk(&mut self, bytes: u64) {
        self.disk = self.disk.saturating_add(bytes);
    }

    pub(crate) fn count_call(&mut self) {
        self.calls = self.calls.saturating_add(1);
    }
}

/// Accumulated resource usage per bundle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageLedger {
    entries: BTreeMap<BundleId, UsageSnapshot>,
}

impl UsageLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The account of `bundle`, opened at zero the first time: a caller
    /// that charges it several times looks it up once.
    pub(crate) fn account(&mut self, bundle: BundleId) -> &mut UsageSnapshot {
        self.entries.entry(bundle).or_default()
    }

    /// Adds CPU time to a bundle's account. Every charge saturates at
    /// the account's ceiling rather than wrapping.
    pub fn charge_cpu(&mut self, bundle: BundleId, d: SimDuration) {
        self.account(bundle).charge_cpu(d);
    }

    /// Adds held memory to a bundle's account.
    pub fn alloc(&mut self, bundle: BundleId, bytes: u64) {
        self.account(bundle).alloc(bytes);
    }

    /// Releases held memory (saturating: freeing more than held clamps to
    /// zero rather than corrupting the account).
    pub fn free(&mut self, bundle: BundleId, bytes: u64) {
        self.account(bundle).free(bytes);
    }

    /// Adds persistent-storage writes to a bundle's account.
    pub fn charge_disk(&mut self, bundle: BundleId, bytes: u64) {
        self.account(bundle).charge_disk(bytes);
    }

    /// The bundle's current snapshot (zeroes if never charged).
    pub fn snapshot(&self, bundle: BundleId) -> UsageSnapshot {
        self.entries.get(&bundle).copied().unwrap_or_default()
    }

    /// Sum over all bundles — the "whole JVM" view that is all a stock JVM
    /// would give the paper's authors.
    pub fn total(&self) -> UsageSnapshot {
        let mut acc = UsageSnapshot::default();
        for s in self.entries.values() {
            acc.cpu = saturating(acc.cpu, s.cpu);
            acc.memory = acc.memory.saturating_add(s.memory);
            acc.disk = acc.disk.saturating_add(s.disk);
            acc.calls = acc.calls.saturating_add(s.calls);
        }
        acc
    }

    /// Iterates over `(bundle, snapshot)` pairs in bundle order.
    pub fn iter(&self) -> impl Iterator<Item = (BundleId, UsageSnapshot)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, *v))
    }

    /// Drops a bundle's account (on uninstall).
    pub fn forget(&mut self, bundle: BundleId) {
        self.entries.remove(&bundle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_bundle() {
        let mut l = UsageLedger::new();
        l.charge_cpu(BundleId(1), SimDuration::from_micros(10));
        l.charge_cpu(BundleId(1), SimDuration::from_micros(5));
        l.charge_cpu(BundleId(2), SimDuration::from_micros(3));
        l.account(BundleId(1)).count_call();
        assert_eq!(l.snapshot(BundleId(1)).cpu, SimDuration::from_micros(15));
        assert_eq!(l.snapshot(BundleId(1)).calls, 1);
        assert_eq!(l.snapshot(BundleId(2)).cpu, SimDuration::from_micros(3));
        assert_eq!(l.snapshot(BundleId(9)), UsageSnapshot::default());
    }

    #[test]
    fn memory_is_a_gauge_not_a_counter() {
        let mut l = UsageLedger::new();
        l.alloc(BundleId(1), 100);
        l.alloc(BundleId(1), 50);
        l.free(BundleId(1), 30);
        assert_eq!(l.snapshot(BundleId(1)).memory, 120);
        // Over-free clamps.
        l.free(BundleId(1), 1_000_000);
        assert_eq!(l.snapshot(BundleId(1)).memory, 0);
    }

    #[test]
    fn total_aggregates_all_bundles() {
        let mut l = UsageLedger::new();
        l.alloc(BundleId(1), 100);
        l.alloc(BundleId(2), 200);
        l.charge_disk(BundleId(2), 77);
        let t = l.total();
        assert_eq!(t.memory, 300);
        assert_eq!(t.disk, 77);
    }

    /// Every account saturates at its ceiling instead of wrapping, and so
    /// does the sum over accounts.
    #[test]
    fn charges_and_totals_saturate() {
        let mut l = UsageLedger::new();
        for b in [BundleId(1), BundleId(2)] {
            l.charge_cpu(b, SimDuration::from_micros(u64::MAX));
            l.charge_cpu(b, SimDuration::from_micros(1));
            l.alloc(b, u64::MAX);
            l.alloc(b, 1);
            l.charge_disk(b, u64::MAX);
            l.charge_disk(b, 1);
        }
        let full = UsageSnapshot {
            cpu: SimDuration::from_micros(u64::MAX),
            memory: u64::MAX,
            disk: u64::MAX,
            calls: 0,
        };
        assert_eq!(l.snapshot(BundleId(1)), full);
        assert_eq!(l.total(), full);
    }

    #[test]
    fn forget_removes_account() {
        let mut l = UsageLedger::new();
        l.alloc(BundleId(1), 100);
        l.forget(BundleId(1));
        assert_eq!(l.total().memory, 0);
        assert_eq!(l.iter().count(), 0);
    }
}
