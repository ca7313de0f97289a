//! Sampling: cumulative ledger snapshots → windowed rates.

use dosgi_net::{SimDuration, SimTime};
use dosgi_osgi::UsageSnapshot;

/// Usage over one sampling window, as rates and gauges.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowedUsage {
    /// When the window closed.
    pub at: SimTime,
    /// Window length.
    pub window: SimDuration,
    /// CPU consumed during the window.
    pub cpu: SimDuration,
    /// CPU as a fraction of one core (`0.5` = half a core busy).
    pub cpu_share: f64,
    /// Resident memory at the end of the window (gauge).
    pub memory: u64,
    /// Cumulative disk bytes at the end of the window (counter).
    pub disk: u64,
    /// Service calls during the window.
    pub calls: u64,
    /// Calls per second.
    pub call_rate: f64,
}

/// Converts a stream of cumulative [`UsageSnapshot`]s into
/// [`WindowedUsage`] deltas, and keeps the latest — the input to the
/// Autonomic Module's policies. One `Sampler` per monitored subject.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sampler {
    prev: Option<(SimTime, UsageSnapshot)>,
    latest: Option<WindowedUsage>,
}

impl Sampler {
    /// Creates a sampler with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the cumulative snapshot observed at `now`; returns the window
    /// since the previous observation, or `None` on the first call (no
    /// window yet) or when time has not advanced.
    pub fn observe(&mut self, now: SimTime, snapshot: UsageSnapshot) -> Option<WindowedUsage> {
        let result = match self.prev {
            Some((then, prev)) if now > then => {
                let window = now.since(then);
                let cpu = snapshot.cpu.saturating_sub(prev.cpu);
                let calls = snapshot.calls.saturating_sub(prev.calls);
                let secs = window.as_secs_f64();
                Some(WindowedUsage {
                    at: now,
                    window,
                    cpu,
                    cpu_share: cpu.as_secs_f64() / secs,
                    memory: snapshot.memory,
                    disk: snapshot.disk,
                    calls,
                    call_rate: calls as f64 / secs,
                })
            }
            Some(_) => None,
            None => None,
        };
        self.prev = Some((now, snapshot));
        self.latest = result.or(self.latest);
        result
    }

    /// The last observed cumulative snapshot, if any.
    pub fn last(&self) -> Option<(SimTime, UsageSnapshot)> {
        self.prev
    }

    /// The latest window closed, if any.
    pub fn latest(&self) -> Option<WindowedUsage> {
        self.latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cpu_ms: u64, memory: u64, calls: u64) -> UsageSnapshot {
        UsageSnapshot {
            cpu: SimDuration::from_millis(cpu_ms),
            memory,
            disk: 0,
            calls,
        }
    }

    #[test]
    fn first_observation_yields_nothing() {
        let mut s = Sampler::new();
        assert_eq!(s.observe(SimTime::from_secs(1), snap(10, 100, 1)), None);
        assert!(s.last().is_some());
    }

    #[test]
    fn window_delta_computes_rates() {
        let mut s = Sampler::new();
        s.observe(SimTime::from_secs(1), snap(100, 50, 10));
        let w = s.observe(SimTime::from_secs(3), snap(600, 80, 30)).unwrap();
        assert_eq!(w.window, SimDuration::from_secs(2));
        assert_eq!(w.cpu, SimDuration::from_millis(500));
        assert!(
            (w.cpu_share - 0.25).abs() < 1e-9,
            "500ms over 2s = 0.25 cores"
        );
        assert_eq!(w.memory, 80);
        assert_eq!(w.calls, 20);
        assert!((w.call_rate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_sampler_keeps_its_latest_window() {
        let mut s = Sampler::new();
        assert_eq!(s.observe(SimTime::from_secs(0), snap(0, 10, 0)), None);
        assert_eq!(s.latest(), None, "one sample is no window");
        let w = s.observe(SimTime::from_secs(1), snap(250, 20, 5)).unwrap();
        assert!((w.cpu_share - 0.25).abs() < 1e-9);
        assert_eq!(s.latest(), Some(w));
        assert_eq!(s.observe(SimTime::from_secs(1), snap(300, 20, 5)), None);
        assert_eq!(s.latest(), Some(w), "no window closed: the latest stays");
        let w = s.observe(SimTime::from_secs(2), snap(750, 30, 15)).unwrap();
        assert!((w.cpu_share - 0.45).abs() < 1e-9, "the second window alone");
        assert_eq!(s.latest().unwrap().memory, 30);
    }

    #[test]
    fn time_standing_still_yields_nothing() {
        let mut s = Sampler::new();
        s.observe(SimTime::from_secs(1), snap(1, 1, 1));
        assert_eq!(s.observe(SimTime::from_secs(1), snap(2, 2, 2)), None);
    }

    #[test]
    fn counter_reset_saturates_to_zero() {
        // A restarted instance resets its cumulative counters; the delta
        // clamps instead of underflowing.
        let mut s = Sampler::new();
        s.observe(SimTime::from_secs(1), snap(500, 10, 50));
        let w = s.observe(SimTime::from_secs(2), snap(0, 10, 0)).unwrap();
        assert_eq!(w.cpu, SimDuration::ZERO);
        assert_eq!(w.calls, 0);
    }
}
