//! Link quality configuration.

use crate::SimDuration;

/// Latency/jitter/loss parameters for a network link.
///
/// The default link applies to every node pair; [`SimNet::set_link`] can
/// override individual pairs (e.g. to model a congested or WAN link between
/// two data centers).
///
/// [`SimNet::set_link`]: crate::SimNet::set_link
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way latency applied to every message.
    pub latency: SimDuration,
    /// Maximum additional uniformly-distributed random delay.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
}

impl LinkConfig {
    /// A typical switched-LAN link: 200µs ± 100µs, no loss.
    ///
    /// This is the default fabric for all experiments, matching the paper's
    /// single-cluster deployment assumption.
    pub fn lan() -> Self {
        LinkConfig {
            latency: SimDuration::from_micros(200),
            jitter: SimDuration::from_micros(100),
            loss: 0.0,
        }
    }

    /// A perfect link: zero latency, zero loss. Useful in unit tests where
    /// timing is irrelevant.
    pub fn ideal() -> Self {
        LinkConfig {
            latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
        }
    }

    /// A degraded link with the given loss probability on top of LAN timing.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    pub fn lossy(loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        LinkConfig {
            loss,
            ..LinkConfig::lan()
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(LinkConfig::lan().loss, 0.0);
        assert!(LinkConfig::ideal().latency.is_zero());
        assert_eq!(LinkConfig::default(), LinkConfig::lan());
    }

    #[test]
    fn lossy_sets_probability() {
        assert_eq!(LinkConfig::lossy(0.25).loss, 0.25);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn lossy_rejects_out_of_range() {
        let _ = LinkConfig::lossy(1.5);
    }
}
