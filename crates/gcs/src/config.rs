//! Protocol timing parameters.

use dosgi_net::SimDuration;

/// Timing knobs for the membership and broadcast protocols.
///
/// The failover experiment (**E6**) sweeps `heartbeat_interval` /
/// `suspect_timeout` to show the classic detection-latency/false-positive
/// trade-off the paper inherits from its GCS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcsConfig {
    /// How often each member broadcasts a heartbeat.
    pub heartbeat_interval: SimDuration,
    /// Silence after which a peer is suspected crashed. Must exceed the
    /// heartbeat interval by a healthy margin (≥3× is sensible on a LAN).
    pub suspect_timeout: SimDuration,
    /// How often an uncommitted view proposal is re-sent.
    pub propose_resend: SimDuration,
    /// How often undelivered ordered requests are re-sent to the sequencer.
    pub order_resend: SimDuration,
}

impl GcsConfig {
    /// LAN defaults: 50ms heartbeats, 200ms suspicion.
    pub fn lan() -> Self {
        GcsConfig {
            heartbeat_interval: SimDuration::from_millis(50),
            suspect_timeout: SimDuration::from_millis(200),
            propose_resend: SimDuration::from_millis(100),
            order_resend: SimDuration::from_millis(150),
        }
    }

    /// Scales heartbeat and suspicion together, preserving the ratio — the
    /// knob experiment E6 sweeps.
    pub fn with_heartbeat(mut self, interval: SimDuration) -> Self {
        let ratio = self.suspect_timeout.as_micros() / self.heartbeat_interval.as_micros().max(1);
        self.heartbeat_interval = interval;
        self.suspect_timeout = interval * ratio;
        self
    }
}

impl Default for GcsConfig {
    fn default() -> Self {
        GcsConfig::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let c = GcsConfig::lan();
        assert!(c.suspect_timeout > c.heartbeat_interval * 2);
        assert_eq!(GcsConfig::default(), GcsConfig::lan());
    }

    #[test]
    fn with_heartbeat_preserves_ratio() {
        let c = GcsConfig::lan().with_heartbeat(SimDuration::from_millis(10));
        assert_eq!(c.heartbeat_interval, SimDuration::from_millis(10));
        assert_eq!(c.suspect_timeout, SimDuration::from_millis(40));
    }
}
