//! The bundle lifecycle state machine.

use std::fmt;

/// The lifecycle states of an OSGi bundle.
///
/// ```text
///            install            resolve            start
///   (none) ─────────▶ INSTALLED ───────▶ RESOLVED ───────▶ STARTING ─▶ ACTIVE
///                         ▲                  │ ▲                          │
///                         │ upgrade          │ │        stop             │
///                         └──────────────────┘ └──────── STOPPING ◀──────┘
///                              uninstall  ──▶ UNINSTALLED (terminal)
/// ```
///
/// `Starting`/`Stopping` are transient: the framework passes through them
/// synchronously while the activator runs, but they are real states — an
/// activator that fails leaves the bundle `Resolved`, and monitoring can
/// observe them on slow activators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BundleState {
    /// Installed but its imports are not yet wired.
    #[default]
    Installed,
    /// Imports wired; classes loadable; not running.
    Resolved,
    /// The activator's `start` is executing.
    Starting,
    /// Running: services registered, consuming resources.
    Active,
    /// The activator's `stop` is executing.
    Stopping,
    /// Removed; terminal.
    Uninstalled,
}

impl BundleState {
    /// True for [`BundleState::Active`].
    pub fn is_active(self) -> bool {
        self == BundleState::Active
    }

    /// True if classes can be loaded from the bundle (resolved or beyond,
    /// except uninstalled).
    pub fn is_resolved(self) -> bool {
        matches!(
            self,
            BundleState::Resolved
                | BundleState::Starting
                | BundleState::Active
                | BundleState::Stopping
        )
    }

    /// True if the bundle can be uninstalled from this state.
    pub fn can_uninstall(self) -> bool {
        !matches!(
            self,
            BundleState::Uninstalled | BundleState::Starting | BundleState::Stopping
        )
    }

    /// The OSGi constant-style name (`"ACTIVE"`, `"INSTALLED"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            BundleState::Installed => "INSTALLED",
            BundleState::Resolved => "RESOLVED",
            BundleState::Starting => "STARTING",
            BundleState::Active => "ACTIVE",
            BundleState::Stopping => "STOPPING",
            BundleState::Uninstalled => "UNINSTALLED",
        }
    }

    /// Parses the constant-style name produced by [`as_str`](Self::as_str).
    ///
    /// # Errors
    ///
    /// Returns the offending string for unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "INSTALLED" => Ok(BundleState::Installed),
            "RESOLVED" => Ok(BundleState::Resolved),
            "STARTING" => Ok(BundleState::Starting),
            "ACTIVE" => Ok(BundleState::Active),
            "STOPPING" => Ok(BundleState::Stopping),
            "UNINSTALLED" => Ok(BundleState::Uninstalled),
            other => Err(format!("unknown bundle state {other:?}")),
        }
    }
}

impl fmt::Display for BundleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [BundleState; 6] = [
        BundleState::Installed,
        BundleState::Resolved,
        BundleState::Starting,
        BundleState::Active,
        BundleState::Stopping,
        BundleState::Uninstalled,
    ];

    #[test]
    fn string_round_trip() {
        for s in ALL {
            assert_eq!(BundleState::parse(s.as_str()).unwrap(), s);
            assert_eq!(s.to_string(), s.as_str());
        }
        assert!(BundleState::parse("BOGUS").is_err());
    }

    #[test]
    fn predicates() {
        assert!(BundleState::Active.is_active());
        assert!(!BundleState::Resolved.is_active());
        assert!(BundleState::Resolved.is_resolved());
        assert!(BundleState::Active.is_resolved());
        assert!(!BundleState::Installed.is_resolved());
        assert!(!BundleState::Uninstalled.is_resolved());
    }

    #[test]
    fn uninstall_legality() {
        assert!(BundleState::Installed.can_uninstall());
        assert!(BundleState::Active.can_uninstall());
        assert!(!BundleState::Uninstalled.can_uninstall());
        assert!(!BundleState::Starting.can_uninstall());
    }

    #[test]
    fn default_is_installed() {
        assert_eq!(BundleState::default(), BundleState::Installed);
    }
}
