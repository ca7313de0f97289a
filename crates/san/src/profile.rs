//! SAN latency profile.

use dosgi_net::SimDuration;

/// Latency costs the simulation charges for SAN operations.
///
/// The store itself ([`SharedStore`](crate::SharedStore)) is an in-process
/// data structure; time costs are applied by the *callers* (the node
/// simulation in `dosgi-core`) using this profile, so unit tests of the
/// store stay instantaneous while cluster experiments account for real I/O
/// proportions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanProfile {
    /// Cost of one read operation.
    pub read: SimDuration,
    /// Fixed cost of one write operation (seek + commit).
    pub write: SimDuration,
    /// Additional cost per KiB transferred, applied to both directions.
    pub per_kib: SimDuration,
}

impl SanProfile {
    /// A fibre-channel-class SAN: 250µs reads, 400µs writes, 10µs/KiB.
    pub fn fast() -> Self {
        SanProfile {
            read: SimDuration::from_micros(250),
            write: SimDuration::from_micros(400),
            per_kib: SimDuration::from_micros(10),
        }
    }

    /// The time charged for reading `bytes` bytes.
    pub fn read_cost(&self, bytes: u64) -> SimDuration {
        self.read + self.transfer_cost(bytes)
    }

    /// The time charged for writing `bytes` bytes.
    pub fn write_cost(&self, bytes: u64) -> SimDuration {
        self.write + self.transfer_cost(bytes)
    }

    fn transfer_cost(&self, bytes: u64) -> SimDuration {
        // Round up to whole KiB so small writes still pay a transfer cost.
        let kib = bytes.div_ceil(1024);
        self.per_kib * kib
    }
}

impl Default for SanProfile {
    fn default() -> Self {
        SanProfile::fast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_size() {
        let p = SanProfile::default();
        assert_eq!(p, SanProfile::fast());
        assert_eq!(p.read_cost(0), SimDuration::from_micros(250));
        assert_eq!(p.read_cost(1), SimDuration::from_micros(260));
        assert_eq!(p.read_cost(1024), SimDuration::from_micros(260));
        assert_eq!(p.read_cost(1025), SimDuration::from_micros(270));
        assert!(p.write_cost(4096) > p.read_cost(4096));
    }
}
