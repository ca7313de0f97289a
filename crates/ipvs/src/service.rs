//! Virtual services and real servers.

use crate::admission::{AdmissionConfig, BackendQueue};
use crate::Scheduler;
use dosgi_net::{NodeId, SocketAddr};

/// A backend node serving a virtual service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealServer {
    /// The node hosting the service replica.
    pub node: NodeId,
    /// Scheduling weight (used by weighted round-robin).
    pub weight: u32,
    /// Health: down servers are skipped.
    pub alive: bool,
    /// Administratively drained (rolling upgrade): the server takes no new
    /// work but — unlike a dead server — its queued requests still
    /// complete. Orthogonal to `alive`.
    pub draining: bool,
    /// Currently tracked connections (used by least-connections).
    pub active_connections: u32,
}

impl RealServer {
    /// A healthy server with weight 1.
    pub fn new(node: NodeId) -> Self {
        RealServer {
            node,
            weight: 1,
            alive: true,
            draining: false,
            active_connections: 0,
        }
    }

    /// Whether the scheduler may send *new* work here.
    pub fn eligible(&self) -> bool {
        self.alive && !self.draining
    }

    /// Sets the weight (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero — a zero-weight server can never be
    /// scheduled, which is expressed by marking it down instead.
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight > 0, "weight must be positive");
        self.weight = weight;
        self
    }
}

/// One `VIP:port` virtual service: scheduler plus backend set.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualService {
    /// The service's public endpoint.
    pub address: SocketAddr,
    /// The scheduling discipline.
    pub scheduler: Scheduler,
    /// Backend replicas.
    pub servers: Vec<RealServer>,
    /// Round-robin cursor (scheduler state).
    pub(crate) rr_cursor: usize,
    /// Weighted round-robin remaining credit per server.
    pub(crate) wrr_credit: Vec<u32>,
    /// Admission-control parameters, when enabled.
    pub(crate) admission: Option<AdmissionConfig>,
    /// Per-backend bounded queues, parallel to `servers` (empty when
    /// admission control is off).
    pub(crate) queues: Vec<BackendQueue>,
}

impl VirtualService {
    /// Creates an empty service at `address` with `scheduler`.
    pub fn new(address: SocketAddr, scheduler: Scheduler) -> Self {
        VirtualService {
            address,
            scheduler,
            servers: Vec::new(),
            rr_cursor: 0,
            wrr_credit: Vec::new(),
            admission: None,
            queues: Vec::new(),
        }
    }

    /// Enables admission control (builder style): every backend gets a
    /// bounded queue under `config`, drained deterministically by
    /// [`IpvsDirector::drain`](crate::IpvsDirector::drain).
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self.queues = self
            .servers
            .iter()
            .map(|_| BackendQueue::new(config))
            .collect();
        self
    }

    /// The admission parameters, when admission control is enabled.
    pub fn admission(&self) -> Option<AdmissionConfig> {
        self.admission
    }

    /// Adds a backend replica.
    pub fn add_server(&mut self, server: RealServer) {
        self.servers.push(server);
        self.wrr_credit.push(server.weight);
        if let Some(cfg) = self.admission {
            self.queues.push(BackendQueue::new(cfg));
        }
    }

    /// Marks the replica on `node` up or down (health checks / failover).
    pub fn set_alive(&mut self, node: NodeId, alive: bool) -> bool {
        match self.servers.iter_mut().find(|s| s.node == node) {
            Some(s) => {
                s.alive = alive;
                true
            }
            None => false,
        }
    }

    /// Marks the replica on `node` as (not) draining. A draining replica
    /// receives no new requests but keeps its queue — the work-conserving
    /// half of a rolling upgrade (contrast [`set_alive`](Self::set_alive)
    /// plus queue flush, the crash reaction).
    pub fn set_draining(&mut self, node: NodeId, draining: bool) -> bool {
        match self.servers.iter_mut().find(|s| s.node == node) {
            Some(s) => {
                s.draining = draining;
                true
            }
            None => false,
        }
    }

    /// Replicas eligible for new work (alive and not draining).
    pub fn eligible_count(&self) -> usize {
        self.servers.iter().filter(|s| s.eligible()).count()
    }

    /// Queue depth of the replica on `node` (0 when admission is off or
    /// the node hosts no replica).
    pub fn queue_depth(&self, node: NodeId) -> usize {
        self.servers
            .iter()
            .position(|s| s.node == node)
            .and_then(|i| self.queues.get(i))
            .map_or(0, BackendQueue::depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::{IpAddr, Port};

    fn addr() -> SocketAddr {
        SocketAddr::new(IpAddr::new(10, 0, 0, 100), Port(80))
    }

    #[test]
    fn add_servers() {
        let mut vs = VirtualService::new(addr(), Scheduler::RoundRobin);
        vs.add_server(RealServer::new(NodeId(1)));
        vs.add_server(RealServer::new(NodeId(2)).with_weight(3));
        assert_eq!(vs.servers.len(), 2);
        assert_eq!(vs.eligible_count(), 2);
        assert_eq!(vs.servers[1].weight, 3);
    }

    #[test]
    fn health_marking() {
        let mut vs = VirtualService::new(addr(), Scheduler::RoundRobin);
        vs.add_server(RealServer::new(NodeId(1)));
        assert!(vs.set_alive(NodeId(1), false));
        assert_eq!(vs.eligible_count(), 0);
        assert!(!vs.set_alive(NodeId(9), false));
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let _ = RealServer::new(NodeId(1)).with_weight(0);
    }

    #[test]
    fn admission_queues_track_server_set() {
        use crate::admission::AdmissionConfig;
        let mut vs = VirtualService::new(addr(), Scheduler::RoundRobin)
            .with_admission(AdmissionConfig::per_second(1000, 8));
        vs.add_server(RealServer::new(NodeId(1)));
        vs.add_server(RealServer::new(NodeId(2)));
        assert_eq!(vs.queues.len(), 2);
        assert_eq!(vs.queue_depth(NodeId(1)), 0);
        assert_eq!(vs.queue_depth(NodeId(2)), 0);
        // Without admission, no queues are kept.
        let mut plain = VirtualService::new(addr(), Scheduler::RoundRobin);
        plain.add_server(RealServer::new(NodeId(3)));
        assert!(plain.queues.is_empty());
        assert_eq!(plain.queue_depth(NodeId(3)), 0);
    }
}
