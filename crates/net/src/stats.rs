//! Network traffic statistics.

/// Counters maintained by [`SimNet`](crate::SimNet).
///
/// The benchmark harness reads these to report message complexity — e.g. how
/// many control messages a failover consumed (experiment **E6**) or the
/// metadata dissemination cost of the migration module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted by `send`/`broadcast`.
    pub sent: u64,
    /// Messages placed in a destination mailbox.
    pub delivered: u64,
    /// Messages dropped by random loss.
    pub lost: u64,
    /// Messages dropped because source and destination were partitioned.
    pub partitioned: u64,
    /// Messages dropped because the destination (or source) was crashed.
    pub dropped_dead: u64,
    /// Always 0: the timer API that counted here is gone. The field stays
    /// because the frozen `benchmark/` harness reads it (`net.timers_per_op`)
    /// and goes with that metric in the next benchmark PR.
    pub timers_fired: u64,
}

impl NetStats {
    /// Messages that never reached a mailbox, for any reason.
    pub fn total_dropped(&self) -> u64 {
        self.lost + self.partitioned + self.dropped_dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = NetStats {
            sent: 10,
            delivered: 8,
            lost: 1,
            partitioned: 1,
            ..Default::default()
        };
        assert_eq!(s.total_dropped(), 2);
    }
}
