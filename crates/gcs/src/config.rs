//! Protocol timing: the one settable value, the intervals derived from it
//! or fixed, and the one test of whether an interval has passed.

use dosgi_net::{SimDuration, SimTime};

/// How often an uncommitted view proposal is re-sent.
pub(crate) const PROPOSE_RESEND: SimDuration = SimDuration::from_millis(100);

/// How often the head of the origin's queue is re-sent to the sequencer,
/// and how often a member may ask the sequencer for replay.
pub(crate) const ORDER_RESEND: SimDuration = SimDuration::from_millis(150);

/// The suspicion timeout, in heartbeat intervals.
const SUSPECT_AFTER_HEARTBEATS: u64 = 4;

/// Timing of the membership and broadcast protocols: the heartbeat
/// interval, from which the suspicion timeout follows.
///
/// The failover experiment (**E6**) sweeps `heartbeat_interval` to show the
/// classic detection-latency/false-positive trade-off the paper inherits
/// from its GCS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcsConfig {
    /// How often each member broadcasts a heartbeat.
    pub heartbeat_interval: SimDuration,
}

impl GcsConfig {
    /// LAN defaults: 50ms heartbeats, so 200ms suspicion.
    pub fn lan() -> Self {
        GcsConfig {
            heartbeat_interval: SimDuration::from_millis(50),
        }
    }

    /// Sets the heartbeat interval; the suspicion timeout follows it — the
    /// knob experiment E6 sweeps.
    pub fn with_heartbeat(mut self, interval: SimDuration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Silence after which a peer is suspected crashed: four heartbeat
    /// intervals.
    pub fn suspect_timeout(&self) -> SimDuration {
        self.heartbeat_interval * SUSPECT_AFTER_HEARTBEATS
    }
}

impl Default for GcsConfig {
    fn default() -> Self {
        GcsConfig::lan()
    }
}

/// The one interval test: true when `every` has passed since `*last`, or
/// when there is no `last`; the interval then restarts at `now`.
pub(crate) fn due(last: &mut Option<SimTime>, every: SimDuration, now: SimTime) -> bool {
    let due = last.is_none_or(|at| now.since(at) >= every);
    if due {
        *last = Some(now);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let c = GcsConfig::lan();
        assert!(c.suspect_timeout() > c.heartbeat_interval * 2);
        assert_eq!(GcsConfig::default(), GcsConfig::lan());
    }

    #[test]
    fn with_heartbeat_preserves_ratio() {
        let c = GcsConfig::lan().with_heartbeat(SimDuration::from_millis(10));
        assert_eq!(c.heartbeat_interval, SimDuration::from_millis(10));
        assert_eq!(c.suspect_timeout(), SimDuration::from_millis(40));
    }
}
