//! The fault-tolerant director pair.
//!
//! The paper requires a *"fault tolerant IP virtual server"*: the VIPs must
//! stay reachable even if the balancer node itself dies. Real deployments
//! run two directors with VRRP-style VIP takeover and optionally the ipvs
//! connection-synchronization daemon; this module models exactly that pair.

use crate::{IpvsDirector, RouteError};
use dosgi_net::{IpAddr, IpBindings, NodeId, SocketAddr};

/// A primary/backup ipvs director pair.
///
/// Routing goes through whichever director is active. On
/// [`fail_active`](Self::fail_active) the standby takes over the VIPs; with
/// `sync_connections` the connection table survives (clients keep their
/// backend), without it all affinity is lost and connections are
/// rescheduled — the trade-off experiment **E8** quantifies.
#[derive(Debug, Clone)]
pub struct FaultTolerantIpvs {
    primary: NodeId,
    backup: NodeId,
    active: NodeId,
    director: IpvsDirector,
    sync_connections: bool,
    vips: Vec<IpAddr>,
    failovers: u32,
}

impl FaultTolerantIpvs {
    /// Creates a pair with `primary` active.
    pub fn new(primary: NodeId, backup: NodeId, director: IpvsDirector, sync: bool) -> Self {
        let vips = director
            .addresses()
            .iter()
            .map(|a| a.ip)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        FaultTolerantIpvs {
            primary,
            backup,
            active: primary,
            director,
            sync_connections: sync,
            vips,
            failovers: 0,
        }
    }

    /// The node currently answering for the VIPs.
    pub fn active(&self) -> NodeId {
        self.active
    }

    /// Number of takeovers so far.
    pub fn failovers(&self) -> u32 {
        self.failovers
    }

    /// Binds every VIP to the active director in the cluster IP table.
    ///
    /// # Panics
    ///
    /// Panics if a VIP is already held by a different node — director
    /// takeover must release first (use [`fail_active`](Self::fail_active)).
    pub fn bind_vips(&self, bindings: &mut IpBindings) {
        for vip in &self.vips {
            bindings
                .bind(*vip, self.active)
                .expect("vip must be free or already ours");
        }
    }

    /// The active director fails: the standby becomes active, takes over
    /// the VIPs in `bindings`, and — without connection sync — loses the
    /// connection table.
    pub fn fail_active(&mut self, bindings: &mut IpBindings) {
        let dead = self.active;
        bindings.release_all(dead);
        self.active = if self.active == self.primary {
            self.backup
        } else {
            self.primary
        };
        self.failovers += 1;
        if !self.sync_connections {
            self.director.clear_connections();
        }
        self.bind_vips(bindings);
    }

    /// Routes a request through the active director.
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn connect(&mut self, client: u64, address: SocketAddr) -> Result<NodeId, RouteError> {
        self.director.connect(client, address)
    }

    /// The underlying director (health marking, stats).
    pub fn director(&self) -> &IpvsDirector {
        &self.director
    }

    /// Mutable access to the underlying director.
    pub fn director_mut(&mut self) -> &mut IpvsDirector {
        &mut self.director
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::director::replicated_service;
    use crate::Scheduler;
    use dosgi_net::Port;

    fn addr() -> SocketAddr {
        SocketAddr::new(IpAddr::new(10, 0, 0, 100), Port(80))
    }

    fn pair(sync: bool) -> FaultTolerantIpvs {
        let mut d = IpvsDirector::new();
        d.add_service(replicated_service(
            addr(),
            Scheduler::RoundRobin,
            &[NodeId(10), NodeId(11)],
        ));
        FaultTolerantIpvs::new(NodeId(0), NodeId(1), d, sync)
    }

    #[test]
    fn vip_takeover_on_failure() {
        let mut bindings = IpBindings::new();
        let mut ft = pair(true);
        ft.bind_vips(&mut bindings);
        assert_eq!(
            bindings.owner_of(IpAddr::new(10, 0, 0, 100)),
            Some(NodeId(0))
        );
        ft.fail_active(&mut bindings);
        assert_eq!(ft.active(), NodeId(1));
        assert_eq!(
            bindings.owner_of(IpAddr::new(10, 0, 0, 100)),
            Some(NodeId(1))
        );
        assert_eq!(ft.failovers(), 1);
        // Failing again fails back to the primary.
        ft.fail_active(&mut bindings);
        assert_eq!(ft.active(), NodeId(0));
    }

    #[test]
    fn sync_preserves_affinity_across_failover() {
        let mut bindings = IpBindings::new();
        let mut ft = pair(true);
        ft.bind_vips(&mut bindings);
        let before = ft.connect(7, addr()).unwrap();
        ft.fail_active(&mut bindings);
        assert_eq!(ft.connect(7, addr()).unwrap(), before);
        assert_eq!(ft.director().stats().tracked, 1);
    }

    #[test]
    fn no_sync_loses_connections() {
        let mut bindings = IpBindings::new();
        let mut ft = pair(false);
        ft.bind_vips(&mut bindings);
        ft.connect(7, addr()).unwrap();
        assert_eq!(ft.director().stats().tracked, 1);
        ft.fail_active(&mut bindings);
        assert_eq!(ft.director().stats().tracked, 0, "table lost without sync");
        // The client is rescheduled (fresh pick, no crash).
        ft.connect(7, addr()).unwrap();
    }
}
