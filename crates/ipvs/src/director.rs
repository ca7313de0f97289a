//! The ipvs director: request routing, connection tracking, and
//! admission control (bounded per-backend queues with priority shedding).

use crate::admission::{Admitted, BackendQueue, Completion, QueuedRequest, RequestClass};
use crate::metrics::{Metrics, ShedReason};
use crate::{RealServer, Scheduler, VirtualService};
use dosgi_net::{NodeId, SocketAddr};
use dosgi_telemetry::{FlightRecorder, Phase, Phases, SpanName, Telemetry, TraceContext};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Routing failures. Shed-vs-dead is deliberately distinguishable: a
/// caller (and the stats/telemetry) can tell load shedding
/// ([`Shed`](RouteError::Shed)) apart from a service whose every backend
/// is down ([`NoLiveServers`](RouteError::NoLiveServers)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No virtual service is configured at the address.
    NoSuchService(SocketAddr),
    /// The service exists but every replica is down.
    NoLiveServers(SocketAddr),
    /// Admission control shed the request: backends are alive but the
    /// chosen queue is full of equal-or-higher-priority work (or the
    /// class is currently shed by policy).
    Shed(SocketAddr, RequestClass),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoSuchService(a) => write!(f, "no virtual service at {a}"),
            RouteError::NoLiveServers(a) => write!(f, "no live servers for {a}"),
            RouteError::Shed(a, c) => write!(f, "shed {c} request for {a} (overload)"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Director counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IpvsStats {
    /// Requests routed to a backend.
    pub routed: u64,
    /// Requests rejected (no service / no live backend).
    pub rejected: u64,
    /// Rejections specifically because every backend was down (subset of
    /// `rejected` — the "dead" half of shed-vs-dead).
    pub no_backend: u64,
    /// Connections currently tracked.
    pub tracked: u64,
    /// Requests accepted into a backend queue by admission control.
    pub queued: u64,
    /// Requests shed by admission control (full queue, policy shed, or
    /// abandoned when their backend died).
    pub shed: u64,
    /// Sheds that displaced an already-queued lower-priority request
    /// (subset of `shed`; such victims were also counted in `queued`, so
    /// `queued + shed - displaced` equals the number of admit calls).
    pub displaced: u64,
    /// Queued requests fully served.
    pub completed: u64,
    /// Completions that blew their class latency SLO.
    pub deadline_missed: u64,
}

/// The load-balancer core: virtual services, connection tracking, stats.
#[derive(Debug, Clone, Default)]
pub struct IpvsDirector {
    // A tree, not a hash: an admission finds its service without hashing
    // the address, and every walk over services goes in address order.
    services: BTreeMap<SocketAddr, VirtualService>,
    // (client, service) → backend node, for connection affinity.
    connections: HashMap<(u64, SocketAddr), NodeId>,
    per_server: HashMap<(SocketAddr, NodeId), u64>,
    // Classes currently shed outright by policy (see `set_shed_class`).
    shed_classes: BTreeSet<(SocketAddr, RequestClass)>,
    stats: IpvsStats,
    metrics: Metrics,
    recorder: FlightRecorder,
    phases: Phases,
    // The drain in progress; empty between drains, its capacity kept.
    completions: Vec<Completion>,
}

// Telemetry handles, flight recorders and phase tables carry no comparable
// state, and the completion buffer is empty between calls; two directors
// are equal when their routing state is.
impl PartialEq for IpvsDirector {
    fn eq(&self, other: &Self) -> bool {
        self.services == other.services
            && self.connections == other.connections
            && self.per_server == other.per_server
            && self.shed_classes == other.shed_classes
            && self.stats == other.stats
    }
}

impl IpvsDirector {
    /// Creates an empty director.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry handle; routed requests are counted per
    /// backend as `ipvs.routed.n<node>`, rejections as `ipvs.rejected`.
    /// Every metric name is resolved to a slot here, or for a backend's
    /// own metrics when the director first touches that node — so
    /// services and replicas added before or after this call are covered
    /// alike, and no request ever builds a name.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = Metrics::new(telemetry);
    }

    /// Attaches a flight recorder: traced drains and un-drains
    /// ([`drain_node_traced`](Self::drain_node_traced)) record causal spans
    /// into it. Passive — routing decisions never depend on it.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = recorder;
    }

    /// The attached flight recorder (disabled by default).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Counts [`admit`](Self::admit) as `ipvs.admit` and
    /// [`drain`](Self::drain) as `ipvs.drain` into `phases` from now on.
    pub fn set_phases(&mut self, phases: Phases) {
        self.phases = phases;
    }

    /// Registers a virtual service.
    pub fn add_service(&mut self, service: VirtualService) {
        self.services.insert(service.address, service);
    }

    /// Access to a service (e.g. to add replicas at run-time).
    pub fn service_mut(&mut self, address: SocketAddr) -> Option<&mut VirtualService> {
        self.services.get_mut(&address)
    }

    /// Read access to a service.
    pub fn service(&self, address: SocketAddr) -> Option<&VirtualService> {
        self.services.get(&address)
    }

    /// Routes a request from `client` to `address`, opening a tracked
    /// connection. Existing connections stick to their backend while it is
    /// alive (connection affinity, as in real ipvs).
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn connect(&mut self, client: u64, address: SocketAddr) -> Result<NodeId, RouteError> {
        if !self.services.contains_key(&address) {
            self.stats.rejected += 1;
            self.metrics.rejected.incr();
            self.metrics.rejected_no_service.incr();
            return Err(RouteError::NoSuchService(address));
        }
        // Affinity: reuse the existing backend if still eligible (a
        // draining backend loses its affinity — the next request reroutes
        // cleanly instead of landing on the replica mid-upgrade).
        if let Some(&node) = self.connections.get(&(client, address)) {
            let still_eligible = self.services[&address]
                .servers
                .iter()
                .any(|s| s.node == node && s.eligible());
            if still_eligible {
                self.stats.routed += 1;
                *self.per_server.entry((address, node)).or_insert(0) += 1;
                self.metrics.backend(node).routed.incr();
                return Ok(node);
            }
            self.release(client, address);
        }
        let vs = self.services.get_mut(&address).expect("checked above");
        let scheduler = vs.scheduler;
        let Some(idx) = scheduler.pick(vs, client) else {
            self.stats.rejected += 1;
            self.stats.no_backend += 1;
            self.metrics.rejected.incr();
            self.metrics.rejected_no_backend.incr();
            return Err(RouteError::NoLiveServers(address));
        };
        vs.servers[idx].active_connections += 1;
        let node = vs.servers[idx].node;
        self.connections.insert((client, address), node);
        self.stats.routed += 1;
        self.stats.tracked = self.connections.len() as u64;
        *self.per_server.entry((address, node)).or_insert(0) += 1;
        self.metrics.backend(node).routed.incr();
        Ok(node)
    }

    /// Closes a tracked connection.
    pub fn release(&mut self, client: u64, address: SocketAddr) {
        if let Some(node) = self.connections.remove(&(client, address)) {
            if let Some(vs) = self.services.get_mut(&address) {
                if let Some(s) = vs.servers.iter_mut().find(|s| s.node == node) {
                    s.active_connections = s.active_connections.saturating_sub(1);
                }
            }
            self.stats.tracked = self.connections.len() as u64;
        }
    }

    // ------------------------------------------------------------------
    // Admission control: bounded queues, priority shedding, deterministic
    // draining. Orthogonal to `connect` (which models connection-oriented
    // affinity routing); `admit`/`drain` model per-request open-loop
    // service under overload.
    // ------------------------------------------------------------------

    /// Offers a request of `class` to the service at `address`, queueing
    /// it at the live backend with the shortest queue (join-shortest-queue
    /// — the right admission discipline, and deterministic: ties break to
    /// the lowest server index). When the chosen queue is full, a strictly
    /// lower-priority request is displaced (counted shed) to admit this
    /// one; if none exists — or the class is policy-shed via
    /// [`set_shed_class`](Self::set_shed_class) — the request itself is
    /// shed.
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    ///
    /// # Panics
    ///
    /// Panics if the service was not built
    /// [`with_admission`](VirtualService::with_admission).
    pub fn admit(
        &mut self,
        client: u64,
        address: SocketAddr,
        class: RequestClass,
        now_us: u64,
    ) -> Result<NodeId, RouteError> {
        let phases = self.phases.clone();
        let _admitting = phases.enter(Phase::IpvsAdmit);
        let Some(vs) = self.services.get_mut(&address) else {
            self.stats.rejected += 1;
            self.metrics.rejected.incr();
            self.metrics.rejected_no_service.incr();
            return Err(RouteError::NoSuchService(address));
        };
        if self.shed_classes.contains(&(address, class)) {
            self.count_shed(class, ShedReason::Policy);
            return Err(RouteError::Shed(address, class));
        }
        assert!(
            vs.admission.is_some(),
            "admit() requires a service built with_admission"
        );
        // Join-shortest-queue over the eligible backends.
        let Some(idx) = vs
            .servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.eligible())
            .min_by_key(|(i, _)| (vs.queues[*i].depth(), *i))
            .map(|(i, _)| i)
        else {
            self.stats.rejected += 1;
            self.stats.no_backend += 1;
            self.metrics.rejected.incr();
            self.metrics.rejected_no_backend.incr();
            return Err(RouteError::NoLiveServers(address));
        };
        let node = vs.servers[idx].node;
        let queue = &mut vs.queues[idx];
        let outcome = queue.offer(QueuedRequest {
            client,
            class,
            enqueued_us: now_us,
        });
        let depth = queue.depth() as i64;
        self.metrics.backend(node).queue_depth.set(depth);
        match outcome {
            Admitted::Queued => {}
            Admitted::Displaced(victim) => {
                self.stats.displaced += 1;
                self.count_shed(victim.class, ShedReason::Displaced);
            }
            Admitted::Shed => {
                self.count_shed(class, ShedReason::Full);
                return Err(RouteError::Shed(address, class));
            }
        }
        self.stats.queued += 1;
        self.metrics.queued.incr();
        self.metrics.class(class).queued.incr();
        Ok(node)
    }

    /// Drains every backend queue of the service at `address` up to
    /// `now_us`: each backend completes one queued request per configured
    /// service interval, priority lanes first. Returns the completions in
    /// deterministic order (backends in server order, each FIFO within
    /// class, classes by priority). Deadline misses are counted against
    /// each completion's class SLO.
    ///
    /// The completions are gathered in a buffer the director keeps across
    /// drains, at the capacity of the largest so far; the list returned is
    /// the one allocation, made at its final size, and a drain that
    /// completes nothing allocates nothing.
    pub fn drain(&mut self, address: SocketAddr, now_us: u64) -> Vec<Completion> {
        let phases = self.phases.clone();
        let _draining = phases.enter(Phase::IpvsDrain);
        let Some(vs) = self.services.get_mut(&address) else {
            return Vec::new();
        };
        let out = &mut self.completions;
        for i in 0..vs.queues.len() {
            let node = vs.servers[i].node;
            vs.queues[i].drain_until(node, now_us, out);
        }
        for (i, s) in vs.servers.iter().enumerate() {
            let depth = vs.queues.get(i).map_or(0, BackendQueue::depth) as i64;
            self.metrics.backend(s.node).queue_depth.set(depth);
        }
        self.count_completions();
        // A copy, not `mem::take`: the buffer keeps its capacity.
        let completions = self.completions.to_vec();
        self.completions.clear();
        completions
    }

    /// Turns outright shedding of `class` at `address` on or off (the
    /// `shed_class` policy action). While on, every arrival of that class
    /// is shed before touching a queue.
    pub fn set_shed_class(&mut self, address: SocketAddr, class: RequestClass, shed: bool) {
        if shed {
            self.shed_classes.insert((address, class));
        } else {
            self.shed_classes.remove(&(address, class));
        }
    }

    /// Whether `class` is currently policy-shed at `address`.
    pub fn is_shedding(&self, address: SocketAddr, class: RequestClass) -> bool {
        self.shed_classes.contains(&(address, class))
    }

    /// Per-backend queue depths for the service at `address`, in server
    /// order.
    pub fn queue_depths(&self, address: SocketAddr) -> Vec<(NodeId, usize)> {
        self.services.get(&address).map_or_else(Vec::new, |vs| {
            vs.servers
                .iter()
                .map(|s| (s.node, vs.queue_depth(s.node)))
                .collect()
        })
    }

    /// Counts the drain in `completions`: each metric written once — a
    /// class's latencies in one borrow of its histogram — and a
    /// metric nothing counts towards not at all, so it stays unwritten.
    fn count_completions(&mut self) {
        let done = &self.completions;
        if done.is_empty() {
            return;
        }
        let mut missed = [0; RequestClass::ALL.len()];
        for c in done.iter().filter(|c| c.missed_deadline()) {
            missed[c.class.priority()] += 1;
        }
        for (class, missed) in RequestClass::ALL.into_iter().zip(missed) {
            let metrics = self.metrics.class(class);
            let of_class = done.iter().filter(|c| c.class == class);
            metrics
                .latency_us
                .record_all(of_class.map(Completion::latency_us));
            if missed > 0 {
                metrics.deadline_missed.add(missed);
            }
        }
        let completed = done.len() as u64;
        self.stats.completed += completed;
        self.metrics.completed.add(completed);
        let missed: u64 = missed.iter().sum();
        if missed > 0 {
            self.stats.deadline_missed += missed;
            self.metrics.deadline_missed.add(missed);
        }
    }

    fn count_shed(&mut self, class: RequestClass, why: ShedReason) {
        self.stats.shed += 1;
        self.metrics.shed.incr();
        self.metrics.class(class).shed.incr();
        self.metrics.shed_reason(why).incr();
    }

    /// Marks every replica on `node` down across all services and drops its
    /// tracked connections (the health-check reaction to a node crash).
    /// Queued requests at the dead backend are abandoned and counted shed.
    /// Returns how many connections were broken.
    pub fn node_down(&mut self, node: NodeId) -> usize {
        let mut abandoned = 0u64;
        for vs in self.services.values_mut() {
            vs.set_alive(node, false);
            if let Some(i) = vs.servers.iter().position(|s| s.node == node) {
                if let Some(q) = vs.queues.get_mut(i) {
                    abandoned += q.flush().len() as u64;
                }
            }
        }
        if abandoned > 0 {
            self.stats.shed += abandoned;
            self.metrics.shed.add(abandoned);
            self.metrics
                .shed_reason(ShedReason::NodeDown)
                .add(abandoned);
            self.metrics.backend(node).queue_depth.set(0);
        }
        let before = self.connections.len();
        self.connections.retain(|_, n| *n != node);
        self.stats.tracked = self.connections.len() as u64;
        before - self.connections.len()
    }

    /// Administratively drains `node` across all services ahead of an
    /// in-place upgrade: new work steers around it but — unlike
    /// [`node_down`](Self::node_down) — nothing queued is shed; the
    /// backend's queue keeps draining to completion. Work-conserving and
    /// loss-free by construction.
    pub fn drain_node(&mut self, node: NodeId) {
        for vs in self.services.values_mut() {
            vs.set_draining(node, true);
        }
        self.metrics.backend(node).drained.incr();
    }

    /// Lifts the administrative drain on `node`: the replica resumes
    /// taking new work.
    pub fn undrain_node(&mut self, node: NodeId) {
        for vs in self.services.values_mut() {
            vs.set_draining(node, false);
        }
        self.metrics.backend(node).undrained.incr();
    }

    /// [`drain_node`](Self::drain_node) with a causal trace: records a
    /// `drain/n<node>` span, joined to `ctx` when given (the wave
    /// orchestrator's per-node step) or as a fresh root.
    pub fn drain_node_traced(&mut self, node: NodeId, ctx: Option<TraceContext>, now_us: u64) {
        let name = SpanName::node("drain", node.0.into());
        let span = match ctx {
            Some(c) => self.recorder.child(c, name, now_us),
            None => self.recorder.root(name, now_us),
        };
        self.drain_node(node);
        self.recorder.end(span, now_us);
    }

    /// [`undrain_node`](Self::undrain_node) with a causal trace: the
    /// `undrain/n<node>` span joins `ctx` when given — the wave passes the
    /// completed upgrade's context here, which is exactly what makes
    /// "un-drain happens after the new revision adopted" checkable by
    /// `trace_check`.
    pub fn undrain_node_traced(&mut self, node: NodeId, ctx: Option<TraceContext>, now_us: u64) {
        let name = SpanName::node("undrain", node.0.into());
        let span = match ctx {
            Some(c) => self.recorder.child(c, name, now_us),
            None => self.recorder.root(name, now_us),
        };
        self.undrain_node(node);
        self.recorder.end(span, now_us);
    }

    /// Requests routed to `node` for `address` (the balance data for E8).
    pub fn routed_to(&self, address: SocketAddr, node: NodeId) -> u64 {
        self.per_server.get(&(address, node)).copied().unwrap_or(0)
    }

    /// Counters.
    pub fn stats(&self) -> IpvsStats {
        self.stats
    }

    /// Drops all connection-tracking state (what a failover *without*
    /// connection synchronization loses).
    pub fn clear_connections(&mut self) {
        self.connections.clear();
        for vs in self.services.values_mut() {
            for s in &mut vs.servers {
                s.active_connections = 0;
            }
        }
        self.stats.tracked = 0;
    }

    /// Registered service addresses, sorted.
    pub fn addresses(&self) -> Vec<SocketAddr> {
        self.services.keys().copied().collect()
    }
}

/// Convenience: builds a service with `n` equal replicas on nodes `0..n`.
pub fn replicated_service(
    address: SocketAddr,
    scheduler: Scheduler,
    nodes: &[NodeId],
) -> VirtualService {
    let mut vs = VirtualService::new(address, scheduler);
    for &n in nodes {
        vs.add_server(RealServer::new(n));
    }
    vs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::{IpAddr, Port};

    fn addr() -> SocketAddr {
        SocketAddr::new(IpAddr::new(10, 0, 0, 100), Port(80))
    }

    fn director(nodes: usize) -> IpvsDirector {
        let mut d = IpvsDirector::new();
        let nodes: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        d.add_service(replicated_service(addr(), Scheduler::RoundRobin, &nodes));
        d
    }

    #[test]
    fn connect_balances_round_robin() {
        let mut d = director(3);
        let picks: Vec<NodeId> = (0..6).map(|c| d.connect(c, addr()).unwrap()).collect();
        assert_eq!(
            picks,
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(0),
                NodeId(1),
                NodeId(2)
            ]
        );
        assert_eq!(d.stats().routed, 6);
        assert_eq!(d.stats().tracked, 6);
        assert_eq!(d.routed_to(addr(), NodeId(0)), 2);
    }

    #[test]
    fn affinity_sticks_until_release() {
        let mut d = director(3);
        let first = d.connect(42, addr()).unwrap();
        for _ in 0..5 {
            assert_eq!(d.connect(42, addr()).unwrap(), first);
        }
        d.release(42, addr());
        assert_eq!(d.stats().tracked, 0);
        // After release the scheduler moves on.
        let second = d.connect(42, addr()).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn node_down_breaks_connections_and_reroutes() {
        let mut d = director(2);
        let n0 = d.connect(1, addr()).unwrap();
        assert_eq!(n0, NodeId(0));
        let broken = d.node_down(NodeId(0));
        assert_eq!(broken, 1);
        // The same client is rerouted to the survivor.
        assert_eq!(d.connect(1, addr()).unwrap(), NodeId(1));
        assert_eq!(d.service(addr()).unwrap().eligible_count(), 1);
    }

    #[test]
    fn errors_and_rejection_counting() {
        let mut d = IpvsDirector::new();
        assert_eq!(d.connect(1, addr()), Err(RouteError::NoSuchService(addr())));
        d.add_service(replicated_service(
            addr(),
            Scheduler::RoundRobin,
            &[NodeId(0)],
        ));
        d.node_down(NodeId(0));
        assert_eq!(d.connect(1, addr()), Err(RouteError::NoLiveServers(addr())));
        // Both the missing-service and the no-backend requests count.
        assert_eq!(d.stats().rejected, 2);
    }

    #[test]
    fn default_recorder_is_inert() {
        let mut traced = director(2);
        let mut plain = director(2);
        traced.connect(1, addr()).unwrap();
        plain.connect(1, addr()).unwrap();
        traced.drain_node_traced(NodeId(0), None, 10);
        plain.drain_node(NodeId(0));
        assert_eq!(traced, plain, "tracing hooks change no routing state");
        assert!(traced.recorder().events().is_empty());
    }

    fn admission_director(nodes: usize, capacity: usize, rate: u64) -> IpvsDirector {
        let mut d = IpvsDirector::new();
        let nodes: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let vs = replicated_service(addr(), Scheduler::RoundRobin, &nodes)
            .with_admission(crate::AdmissionConfig::per_second(rate, capacity));
        d.add_service(vs);
        d
    }

    #[test]
    fn the_order_services_are_added_in_changes_nothing() {
        let vips: Vec<SocketAddr> = [9, 1, 5]
            .map(|host| SocketAddr::new(IpAddr::new(10, 0, 0, host), Port(80)))
            .into();
        let nodes = [NodeId(0), NodeId(1)];
        let build = |order: &[usize]| {
            let mut d = IpvsDirector::new();
            for &i in order {
                let vs = replicated_service(vips[i], Scheduler::RoundRobin, &nodes)
                    .with_admission(crate::AdmissionConfig::per_second(1000, 8));
                d.add_service(vs);
            }
            for (client, &vip) in vips.iter().enumerate() {
                d.admit(client as u64, vip, RequestClass::Standard, 0)
                    .unwrap();
                d.admit(client as u64 + 10, vip, RequestClass::Standard, 0)
                    .unwrap();
                d.connect(client as u64, vip).unwrap();
            }
            d
        };
        let (mut forward, mut reverse) = (build(&[0, 1, 2]), build(&[2, 1, 0]));
        let mut sorted = vips.clone();
        sorted.sort();
        assert_eq!(forward.addresses(), sorted);
        assert_eq!(reverse.addresses(), sorted);
        assert_eq!(forward.node_down(NodeId(0)), reverse.node_down(NodeId(0)));
        assert_eq!(forward.stats(), reverse.stats());
        assert_eq!(forward.stats().shed, 3, "one queued request per service");
        assert_eq!(forward, reverse);
    }

    #[test]
    fn admit_joins_shortest_queue_and_drains_deterministically() {
        // 2 backends, 1000 req/s each (1ms per request).
        let mut d = admission_director(2, 8, 1000);
        for c in 0..4u64 {
            d.admit(c, addr(), RequestClass::Standard, 0).unwrap();
        }
        // JSQ alternates across the two empty backends.
        assert_eq!(d.queue_depths(addr()), vec![(NodeId(0), 2), (NodeId(1), 2)]);
        let done = d.drain(addr(), 2_000);
        assert_eq!(done.len(), 4, "each backend served 2 in 2ms");
        assert_eq!(d.stats().completed, 4);
        assert_eq!(d.stats().queued, 4);
        assert_eq!(d.queue_depths(addr()), vec![(NodeId(0), 0), (NodeId(1), 0)]);
        // Same-latency completions: 1ms then 2ms on each backend.
        assert!(done.iter().all(|c| !c.missed_deadline()));
    }

    #[test]
    fn shed_on_full_prefers_critical() {
        // One backend, queue of 2, slow service.
        let mut d = admission_director(1, 2, 10);
        d.admit(1, addr(), RequestClass::Background, 0).unwrap();
        d.admit(2, addr(), RequestClass::Background, 0).unwrap();
        // Full: a critical request displaces a background one.
        d.admit(3, addr(), RequestClass::Critical, 0).unwrap();
        assert_eq!(d.stats().shed, 1, "displaced background counts shed");
        // Full of critical+background; another background is shed outright.
        assert_eq!(
            d.admit(4, addr(), RequestClass::Background, 0),
            Err(RouteError::Shed(addr(), RequestClass::Background))
        );
        assert_eq!(d.stats().shed, 2);
        assert_eq!(d.stats().queued, 3);
        // Shed is NOT counted as rejected: shed-vs-dead stay separate.
        assert_eq!(d.stats().rejected, 0);
    }

    #[test]
    fn shed_vs_dead_are_distinguishable() {
        let mut d = admission_director(1, 1, 10);
        d.admit(1, addr(), RequestClass::Standard, 0).unwrap();
        let shed = d.admit(2, addr(), RequestClass::Standard, 0);
        assert!(matches!(shed, Err(RouteError::Shed(_, _))));
        d.node_down(NodeId(0));
        let dead = d.admit(3, addr(), RequestClass::Standard, 0);
        assert_eq!(dead, Err(RouteError::NoLiveServers(addr())));
        let s = d.stats();
        // One abandoned queued request + one full-queue shed.
        assert_eq!(s.shed, 2);
        assert_eq!(s.no_backend, 1);
        assert_eq!(s.rejected, 1);
    }

    #[test]
    fn policy_shed_class_rejects_before_queueing() {
        let mut d = admission_director(2, 8, 1000);
        d.set_shed_class(addr(), RequestClass::Background, true);
        assert!(d.is_shedding(addr(), RequestClass::Background));
        assert_eq!(
            d.admit(1, addr(), RequestClass::Background, 0),
            Err(RouteError::Shed(addr(), RequestClass::Background))
        );
        // Other classes still flow.
        d.admit(2, addr(), RequestClass::Critical, 0).unwrap();
        d.set_shed_class(addr(), RequestClass::Background, false);
        d.admit(3, addr(), RequestClass::Background, 0).unwrap();
        assert_eq!(d.stats().queued, 2);
        assert_eq!(d.stats().shed, 1);
    }

    #[test]
    fn deadline_misses_are_counted() {
        // One backend at 10 req/s: 100ms per request, Critical SLO is 50ms.
        let mut d = admission_director(1, 8, 10);
        d.admit(1, addr(), RequestClass::Critical, 0).unwrap();
        d.admit(2, addr(), RequestClass::Critical, 0).unwrap();
        let done = d.drain(addr(), 1_000_000);
        assert_eq!(done.len(), 2);
        // 100ms and 200ms latencies both blow the 50ms critical budget.
        assert_eq!(d.stats().deadline_missed, 2);
        assert!(done.iter().all(Completion::missed_deadline));
    }

    #[test]
    fn node_down_abandons_queued_requests() {
        let mut d = admission_director(2, 8, 1000);
        for c in 0..4u64 {
            d.admit(c, addr(), RequestClass::Standard, 0).unwrap();
        }
        d.node_down(NodeId(0));
        assert_eq!(d.stats().shed, 2, "node 0's two queued requests lost");
        // Draining now only completes node 1's work.
        let done = d.drain(addr(), 10_000);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.node == NodeId(1)));
    }

    #[test]
    fn drain_steers_new_work_without_shedding_queued() {
        let mut d = admission_director(2, 8, 1000);
        for c in 0..4u64 {
            d.admit(c, addr(), RequestClass::Standard, 0).unwrap();
        }
        assert_eq!(d.queue_depths(addr()), vec![(NodeId(0), 2), (NodeId(1), 2)]);
        d.drain_node(NodeId(0));
        let eligible = |d: &IpvsDirector| d.service(addr()).unwrap().eligible_count();
        assert_eq!(eligible(&d), 1);
        // New arrivals all land on the eligible backend…
        for c in 4..8u64 {
            assert_eq!(
                d.admit(c, addr(), RequestClass::Standard, 0).unwrap(),
                NodeId(1)
            );
        }
        // …but — unlike node_down — nothing already queued was shed, and
        // the draining backend still completes its accepted work.
        assert_eq!(d.stats().shed, 0);
        let done = d.drain(addr(), 10_000);
        assert_eq!(done.len(), 8);
        assert_eq!(done.iter().filter(|c| c.node == NodeId(0)).count(), 2);
        d.undrain_node(NodeId(0));
        assert_eq!(eligible(&d), 2);
        assert_eq!(
            d.admit(9, addr(), RequestClass::Standard, 20_000).unwrap(),
            NodeId(0),
            "undrained backend (shortest queue) takes work again"
        );
    }

    #[test]
    fn drain_breaks_connection_affinity_cleanly() {
        let mut d = director(2);
        let first = d.connect(7, addr()).unwrap();
        d.drain_node(first);
        let rerouted = d.connect(7, addr()).unwrap();
        assert_ne!(rerouted, first, "affinity does not pin to a draining node");
        // A drain is not a failure: nothing was counted rejected.
        assert_eq!(d.stats().rejected, 0);
    }

    #[test]
    fn undrain_traced_joins_upgrade_context() {
        let rec = FlightRecorder::new(9);
        let mut d = director(2);
        d.set_recorder(rec.clone());
        let up = rec.root(SpanName::of("upgrade", &"web".into()), 100);
        let ctx = rec.context(up).unwrap();
        rec.end(up, 400);
        d.drain_node_traced(NodeId(0), None, 50);
        d.undrain_node_traced(NodeId(0), Some(ctx), 500);
        let events = rec.events();
        let drain = events.iter().find(|e| e.name == "drain/n0").unwrap();
        assert_eq!(drain.parent_span, 0, "unprompted drain starts a root");
        let undrain = events.iter().find(|e| e.name == "undrain/n0").unwrap();
        assert_eq!(undrain.trace_id, ctx.trace_id, "joins the upgrade trace");
        assert!(
            undrain.lamport_start > ctx.lamport,
            "undrain is causally after the upgrade"
        );
    }

    #[test]
    fn telemetry_covers_backends_met_before_and_after_it_is_attached() {
        let admission = crate::AdmissionConfig::per_second(1000, 8);
        let late = SocketAddr::new(IpAddr::new(10, 0, 0, 101), Port(80));
        let mut d = admission_director(2, 8, 1000);
        let t = Telemetry::new();
        d.set_telemetry(t.clone());
        d.add_service(
            replicated_service(late, Scheduler::RoundRobin, &[NodeId(2)]).with_admission(admission),
        );
        // A replica added at run-time, behind the director's back.
        d.service_mut(late)
            .unwrap()
            .add_server(RealServer::new(NodeId(3)));
        for c in 0..2u64 {
            d.admit(c, addr(), RequestClass::Standard, 0).unwrap();
            d.admit(c, late, RequestClass::Critical, 0).unwrap();
        }
        for n in 0..4 {
            assert_eq!(t.gauge(&format!("ipvs.queue_depth.n{n}")), Some(1));
        }
        d.drain_node(NodeId(3));
        assert_eq!(d.drain(late, 10_000).len(), 2);
        assert_eq!(t.counter("ipvs.queued"), 4);
        assert_eq!(t.counter("ipvs.queued.critical"), 2);
        assert_eq!(t.counter("ipvs.completed"), 2);
        assert_eq!(t.counter("ipvs.drained.n3"), 1);
        assert_eq!(t.gauge("ipvs.queue_depth.n3"), Some(0));
        assert_eq!(t.histogram("ipvs.latency_us.critical").unwrap().count(), 2);
        // Names nothing was written to stay out of the registry.
        assert_eq!(t.counter("ipvs.shed"), 0);
        assert!(!t.snapshot("s", 0).counters.contains_key("ipvs.shed"));
        assert_eq!(t.gauge("ipvs.queue_depth.n4"), None);
    }

    /// A drain writes each completion metric once for the whole batch: the
    /// totals and every class's latency histogram and deadline counter
    /// come out as one write per completion would make them, and a metric
    /// nothing counted towards is not written at all.
    #[test]
    fn a_drain_counts_its_batch_exactly() {
        // 4/s per backend: every request takes 250 ms of service.
        let mut d = admission_director(2, 8, 4);
        let t = Telemetry::new();
        d.set_telemetry(t.clone());
        use RequestClass::{Background, Critical, Standard};
        // Join-shortest-queue alternates: each backend gets one of each
        // pair, and serves critical, critical, standard, background.
        for (client, class) in [Critical, Critical, Standard, Standard]
            .into_iter()
            .chain([Background, Background, Critical, Critical])
            .enumerate()
        {
            d.admit(client as u64, addr(), class, 0).unwrap();
        }

        // Nothing is done before its service interval is: nothing written.
        assert!(d.drain(addr(), 1).is_empty());
        let snap = t.snapshot("s", 0);
        for name in ["ipvs.completed", "ipvs.deadline_missed"] {
            assert!(!snap.counters.contains_key(name), "{name} written");
        }
        assert!(snap.histograms.is_empty(), "{:?}", snap.histograms.keys());

        let done = d.drain(addr(), 1_000_000);
        assert_eq!(done.len(), 8);
        let snap = t.snapshot("s", 0);
        assert_eq!(snap.counters.get("ipvs.completed"), Some(&8));
        // Critical misses its 50 ms at 250 and 500 ms, standard its 250 ms
        // at 750 ms; background's 2 s is met at 1 s.
        assert_eq!(snap.counters.get("ipvs.deadline_missed"), Some(&6));
        assert_eq!(snap.counters.get("ipvs.deadline_missed.critical"), Some(&4));
        assert_eq!(snap.counters.get("ipvs.deadline_missed.standard"), Some(&2));
        assert!(!snap
            .counters
            .contains_key("ipvs.deadline_missed.background"));
        for (class, count, sum, min, max) in [
            (Critical, 4, 1_500_000, 250_000, 500_000),
            (Standard, 2, 1_500_000, 750_000, 750_000),
            (Background, 2, 2_000_000, 1_000_000, 1_000_000),
        ] {
            let h = &snap.histograms[&format!("ipvs.latency_us.{class}")];
            assert_eq!(
                (h.count(), h.sum(), h.min(), h.max()),
                (count, sum, Some(min), Some(max)),
                "{class}"
            );
            // The same as recording each completion on its own.
            let mut one_by_one = dosgi_telemetry::Histogram::new();
            done.iter()
                .filter(|c| c.class == class)
                .for_each(|c| one_by_one.record(c.latency_us()));
            assert_eq!(*h, one_by_one, "{class}");
        }
        let stats = d.stats();
        assert_eq!((stats.completed, stats.deadline_missed), (8, 6));

        // A later drain that completes nothing writes nothing more.
        assert!(d.drain(addr(), 2_000_000).is_empty());
        let after = t.snapshot("s", 0);
        assert_eq!(after.counters, snap.counters);
        assert_eq!(after.histograms, snap.histograms);
    }

    #[test]
    fn clear_connections_resets_tracking() {
        let mut d = director(2);
        for c in 0..4 {
            d.connect(c, addr()).unwrap();
        }
        d.clear_connections();
        assert_eq!(d.stats().tracked, 0);
        assert_eq!(d.service(addr()).unwrap().servers[0].active_connections, 0);
    }
}
