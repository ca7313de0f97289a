//! Per-customer resource quotas — the SLA substrate.

use dosgi_net::SimDuration;
use dosgi_osgi::UsageSnapshot;
use std::fmt;

/// Resource limits agreed in a customer's SLA.
///
/// The Monitoring Module compares observed usage against the quota; the
/// Autonomic Module reacts to [`QuotaViolation`]s (stop, throttle or migrate
/// the instance — §3.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceQuota {
    /// CPU time allowed per second of wall-clock time (i.e. `500ms/s` means
    /// half a core).
    pub cpu_per_sec: SimDuration,
    /// Maximum resident memory, bytes.
    pub memory_bytes: u64,
    /// Maximum persistent storage, bytes.
    pub disk_bytes: u64,
}

impl ResourceQuota {
    /// A roomy default: half a core, 256 MiB memory, 1 GiB disk.
    pub fn standard() -> Self {
        ResourceQuota {
            cpu_per_sec: SimDuration::from_millis(500),
            memory_bytes: 256 << 20,
            disk_bytes: 1 << 30,
        }
    }

    /// A tight quota for tests and noisy-neighbour experiments: 100ms/s
    /// CPU, 16 MiB memory, 64 MiB disk.
    pub fn small() -> Self {
        ResourceQuota {
            cpu_per_sec: SimDuration::from_millis(100),
            memory_bytes: 16 << 20,
            disk_bytes: 64 << 20,
        }
    }

    /// Checks a usage snapshot against the quota.
    ///
    /// `cpu_used` must be the CPU consumed over the last `window` of
    /// wall-clock (simulated) time; memory/disk are instantaneous gauges
    /// from the snapshot. Returns all violations found (possibly empty).
    pub fn check(
        &self,
        usage: &UsageSnapshot,
        cpu_used: SimDuration,
        window: SimDuration,
    ) -> Vec<QuotaViolation> {
        let mut v = Vec::new();
        if !window.is_zero() {
            // Allowed CPU for this window, scaled from the per-second rate.
            let allowed_micros = self
                .cpu_per_sec
                .as_micros()
                .saturating_mul(window.as_micros())
                / 1_000_000;
            if cpu_used.as_micros() > allowed_micros {
                v.push(QuotaViolation::Cpu {
                    used: cpu_used,
                    allowed: SimDuration::from_micros(allowed_micros),
                    window,
                });
            }
        }
        if usage.memory > self.memory_bytes {
            v.push(QuotaViolation::Memory {
                used: usage.memory,
                allowed: self.memory_bytes,
            });
        }
        if usage.disk > self.disk_bytes {
            v.push(QuotaViolation::Disk {
                used: usage.disk,
                allowed: self.disk_bytes,
            });
        }
        v
    }
}

impl Default for ResourceQuota {
    fn default() -> Self {
        ResourceQuota::standard()
    }
}

/// A detected breach of a [`ResourceQuota`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaViolation {
    /// CPU consumption exceeded the agreed rate over the window.
    Cpu {
        /// CPU consumed in the window.
        used: SimDuration,
        /// CPU allowed in the window.
        allowed: SimDuration,
        /// The measurement window.
        window: SimDuration,
    },
    /// Resident memory exceeded the agreed maximum.
    Memory {
        /// Bytes held.
        used: u64,
        /// Bytes allowed.
        allowed: u64,
    },
    /// Persistent storage exceeded the agreed maximum.
    Disk {
        /// Bytes written.
        used: u64,
        /// Bytes allowed.
        allowed: u64,
    },
}

impl fmt::Display for QuotaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuotaViolation::Cpu {
                used,
                allowed,
                window,
            } => write!(f, "cpu {used} > {allowed} in {window}"),
            QuotaViolation::Memory { used, allowed } => {
                write!(f, "memory {used}B > {allowed}B")
            }
            QuotaViolation::Disk { used, allowed } => write!(f, "disk {used}B > {allowed}B"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(memory: u64, disk: u64) -> UsageSnapshot {
        UsageSnapshot {
            cpu: SimDuration::ZERO,
            memory,
            disk,
            calls: 0,
        }
    }

    #[test]
    fn within_quota_is_clean() {
        let q = ResourceQuota::standard();
        let v = q.check(
            &usage(1 << 20, 1 << 20),
            SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        );
        assert!(v.is_empty());
    }

    #[test]
    fn cpu_violation_scales_with_window() {
        let q = ResourceQuota {
            cpu_per_sec: SimDuration::from_millis(100),
            ..ResourceQuota::standard()
        };
        // 100ms/s over a 2s window allows 200ms; 250ms violates.
        let v = q.check(
            &usage(0, 0),
            SimDuration::from_millis(250),
            SimDuration::from_secs(2),
        );
        assert_eq!(v.len(), 1);
        match v[0] {
            QuotaViolation::Cpu { used, allowed, .. } => {
                assert_eq!(used, SimDuration::from_millis(250));
                assert_eq!(allowed, SimDuration::from_millis(200));
            }
            ref other => panic!("unexpected {other:?}"),
        }
        // 150ms over 2s is fine.
        assert!(q
            .check(
                &usage(0, 0),
                SimDuration::from_millis(150),
                SimDuration::from_secs(2)
            )
            .is_empty());
    }

    #[test]
    fn memory_and_disk_violations() {
        let q = ResourceQuota::small();
        let v = q.check(
            &usage(32 << 20, 128 << 20),
            SimDuration::ZERO,
            SimDuration::from_secs(1),
        );
        assert_eq!(v.len(), 2);
        assert!(matches!(
            v[0],
            QuotaViolation::Memory {
                used: 0x200_0000,
                allowed: 0x100_0000
            }
        ));
        assert!(matches!(v[1], QuotaViolation::Disk { .. }));
    }

    #[test]
    fn zero_window_skips_cpu_check() {
        let q = ResourceQuota::small();
        let v = q.check(&usage(0, 0), SimDuration::from_secs(99), SimDuration::ZERO);
        assert!(v.is_empty());
    }

    #[test]
    fn unlimited_never_violates() {
        // An effectively unlimited quota.
        let q = ResourceQuota {
            cpu_per_sec: SimDuration::from_secs(1_000_000),
            memory_bytes: u64::MAX,
            disk_bytes: u64::MAX,
        };
        let v = q.check(
            &usage(u64::MAX / 2, u64::MAX / 2),
            SimDuration::from_secs(10_000),
            SimDuration::from_secs(1),
        );
        assert!(v.is_empty());
    }

    #[test]
    fn violation_display() {
        let v = QuotaViolation::Memory {
            used: 10,
            allowed: 5,
        };
        assert_eq!(v.to_string(), "memory 10B > 5B");
    }
}
