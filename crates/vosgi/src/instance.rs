//! A virtual OSGi instance: a customer's nested framework plus its policy
//! and quota.

use crate::{InstanceDescriptor, InstanceId};
use dosgi_osgi::{Framework, UsageSnapshot};
use std::fmt;
use std::rc::Rc;

/// The coarse life-cycle of a virtual instance (distinct from the
/// per-bundle lifecycle inside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InstanceState {
    /// Created: bundles installed, nothing started.
    #[default]
    Created,
    /// Running: bundles started, serving requests.
    Running,
    /// Stopped: orderly shut down; state persisted; restartable.
    Stopped,
    /// Destroyed: removed from the node (possibly migrated away).
    Destroyed,
}

impl fmt::Display for InstanceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstanceState::Created => "CREATED",
            InstanceState::Running => "RUNNING",
            InstanceState::Stopped => "STOPPED",
            InstanceState::Destroyed => "DESTROYED",
        };
        f.write_str(s)
    }
}

/// A customer's virtual OSGi framework, as managed by an
/// [`InstanceManager`](crate::InstanceManager).
#[derive(Debug)]
pub struct VirtualInstance {
    /// The manager-local id.
    pub id: InstanceId,
    /// The deployment descriptor; an adopted instance shares the cluster
    /// registry's copy.
    pub descriptor: Rc<InstanceDescriptor>,
    /// Current coarse state.
    pub state: InstanceState,
    pub(crate) framework: Framework,
}

impl VirtualInstance {
    /// Read access to the instance's framework.
    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// The instance's aggregate resource usage across all of its bundles —
    /// the per-customer reading the paper's Monitoring Module wants and
    /// cannot get from a stock JVM.
    pub fn usage(&self) -> UsageSnapshot {
        self.framework.ledger().total()
    }

    /// True if the instance is currently serving.
    pub fn is_running(&self) -> bool {
        self.state == InstanceState::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_display() {
        assert_eq!(InstanceState::Created.to_string(), "CREATED");
        assert_eq!(InstanceState::Running.to_string(), "RUNNING");
        assert_eq!(InstanceState::default(), InstanceState::Created);
    }
}
