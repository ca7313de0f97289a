//! The real runtime's clock.
//!
//! Both backends express time as [`SimTime`] — microseconds since an
//! epoch — so every layer above (GCS heartbeat deadlines, lease expiry,
//! SLA probes) is oblivious to which clock is underneath. The sim epoch is
//! the start of the run; the real epoch is the [`RealClock`]'s creation
//! instant, read from the OS monotonic clock so it never goes backwards.

use crate::SimTime;
use std::sync::Arc;
use std::time::Instant;

/// A monotonic wall-clock anchored at its creation instant.
///
/// Cheap to clone (an `Arc` around the anchor) and `Send + Sync`, so every
/// node thread of a real-clock runtime shares one epoch and their
/// timestamps are mutually comparable.
#[derive(Debug, Clone)]
pub struct RealClock {
    epoch: Arc<Instant>,
}

impl RealClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        RealClock {
            epoch: Arc::new(Instant::now()),
        }
    }

    /// The current instant, as microseconds since this clock's epoch.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_and_shared() {
        let c = RealClock::new();
        let c2 = c.clone();
        let a = c.now();
        let b = c2.now();
        assert!(b >= a, "clones share one epoch and never go backwards");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now() >= a + crate::SimDuration::from_millis(1));
    }
}
