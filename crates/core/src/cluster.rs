//! The cluster: the deterministic simulation driver every experiment runs
//! on.

use crate::node::{DosgiNode, NodeConfig, NodeState, Wire};
use crate::BootKit;
use crate::{AdoptReason, CoreError, NodeEvent, SlaTracker};
use dosgi_net::{LinkConfig, NodeId, Partition, SimDuration, SimNet, SimTime};
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::{
    FlightRecorder, Gauge, HealthState, Phase, Phases, ScrapeConfig, SeriesScraper, SloEngine,
    SloSpec, Telemetry, TraceLog,
};
use dosgi_vosgi::InstanceDescriptor;
use std::sync::Arc;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-node configuration.
    pub node: NodeConfig,
    /// Default link quality.
    pub link: LinkConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            node: NodeConfig::default(),
            link: LinkConfig::lan(),
        }
    }
}

/// Driver step size (how often nodes tick).
const TICK: SimDuration = SimDuration::from_millis(5);

/// The optional continuous-observability pipeline: a [`SeriesScraper`]
/// turning the registry into bounded time series plus an [`SloEngine`]
/// evaluating burn-rate alerts, both driven from [`DosgiCluster::step`]
/// on the scrape cadence. Strictly passive: pure registry reads on the
/// sim clock — it never touches the network, the SAN, or any RNG stream,
/// so enabling it cannot change a run's observable behaviour (the chaos
/// sweep proves fingerprint equality with it on and off).
struct Observability {
    scraper: SeriesScraper,
    slo: SloEngine,
}

struct Slot {
    node: DosgiNode,
    alive: bool,
    // The node's flight recorder. Owned by the slot, not the node, so the
    // causal record survives crashes and restarts: a restarted node keeps
    // appending to the same ring, and the cluster-wide merge sees the
    // node's whole history.
    recorder: FlightRecorder,
    // `core.health.n<idx>`.
    health: Gauge,
}

dosgi_telemetry::metrics! {
    /// The driver's own counters and gauges, resolved at construction.
    struct Metrics {
        counter migration_completed = "core.migration.completed",
        counter failover_adoptions = "core.failover.adoptions",
        gauge sla_down_us_total = "core.sla.down_us_total",
        gauge sla_outages = "core.sla.outages",
        gauge sla_longest_outage_us = "core.sla.longest_outage_us",
        gauge nodes_running = "core.cluster.nodes_running",
        gauge nodes_hibernated = "core.cluster.nodes_hibernated",
    }
}

/// A simulated cluster of [`DosgiNode`]s sharing a SAN and a network.
///
/// The driver advances simulated time in fixed ticks; at each tick the
/// network delivers due messages, every live node is offered the tick (and
/// takes it only if it has mail or a deadline has come), and the
/// availability of every registered instance is accounted into the
/// [`SlaTracker`] — the downtime instrument behind experiments E5–E10 —
/// by probing when a placement may have changed and by extending the
/// interval when none has.
pub struct DosgiCluster {
    net: SimNet<Wire>,
    store: SharedStore,
    slots: Vec<Slot>,
    // What every node boots and restarts from, built once.
    kit: Arc<BootKit>,
    sla: SlaTracker,
    // What the last full availability pass saw: the reference node, and
    // its registry's epoch plus every node's lifecycle epoch. `None` forces
    // the next pass.
    probed: Option<(usize, u64)>,
    // The reference the differential test steps beside the real thing:
    // every step ticks every live node in full and probes every record.
    #[cfg(test)]
    fixed_tick_reference: bool,
    #[cfg(test)]
    full_passes: u64,
    events: Vec<(NodeId, NodeEvent)>,
    telemetry: Telemetry,
    metrics: Metrics,
    observability: Option<Observability>,
    phases: Phases,
}

impl std::fmt::Debug for DosgiCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DosgiCluster")
            .field("nodes", &self.slots.len())
            .field("now", &self.net.now())
            .finish_non_exhaustive()
    }
}

impl DosgiCluster {
    /// Builds a cluster of `n` nodes with the given config and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, config: ClusterConfig, seed: u64) -> Self {
        Self::new_with_telemetry(n, config, seed, Telemetry::new())
    }

    /// Like [`new`](Self::new) but with an explicit telemetry handle —
    /// pass [`Telemetry::disabled`] to turn instrumentation off, or share
    /// one enabled handle across several clusters to aggregate their
    /// metrics into a single registry.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new_with_telemetry(
        n: usize,
        config: ClusterConfig,
        seed: u64,
        telemetry: Telemetry,
    ) -> Self {
        assert!(n > 0, "a cluster needs at least one node");
        let mut net = SimNet::new(config.link, seed);
        let store = SharedStore::new();
        store.set_telemetry(telemetry.clone());
        let ids: Vec<NodeId> = (0..n).map(|_| net.register_node()).collect();
        let kit = Arc::new(BootKit::new(config.node));
        let slots = ids
            .iter()
            .map(|&id| {
                let mut node = DosgiNode::new(
                    id,
                    ids.clone(),
                    &kit,
                    store.clone(),
                    net.now(),
                    &Phases::disabled(),
                );
                node.set_telemetry(telemetry.clone());
                // Tracing rides the same switch as the rest of telemetry:
                // a disabled cluster records nothing (and provably changes
                // nothing — the chaos harness compares fingerprints with
                // instrumentation on and off).
                let recorder = if telemetry.is_enabled() {
                    FlightRecorder::new(u64::from(id.0))
                } else {
                    FlightRecorder::disabled()
                };
                node.set_recorder(recorder.clone());
                Slot {
                    node,
                    alive: true,
                    recorder,
                    health: telemetry.gauge_handle(format_args!("core.health.n{}", id.0)),
                }
            })
            .collect();
        DosgiCluster {
            net,
            store,
            slots,
            kit,
            sla: SlaTracker::new(),
            probed: None,
            #[cfg(test)]
            fixed_tick_reference: false,
            #[cfg(test)]
            full_passes: 0,
            events: Vec::new(),
            metrics: Metrics::new(&telemetry),
            telemetry,
            observability: None,
            phases: Phases::disabled(),
        }
    }

    /// Counts where each step's — and each restart's — calls, time and
    /// allocations go into `phases`, on the driver and on every node, from
    /// now on. Passive, like telemetry: nothing a run does depends on it.
    pub fn set_phases(&mut self, phases: Phases) {
        for slot in &mut self.slots {
            slot.node.set_phases(phases.clone());
        }
        self.phases = phases;
    }

    /// Turns on continuous observability: every `config.cadence_us` of
    /// sim time, [`step`](Self::step) scrapes the telemetry registry
    /// into bounded time series, refreshes the per-node health gauges
    /// (`core.health.n<i>`), and evaluates `slos` as multi-window
    /// burn-rate alerts recorded into the snapshot's alert timeline.
    /// A no-op wiring on a disabled telemetry handle (nothing to read).
    pub fn enable_observability(&mut self, config: ScrapeConfig, slos: Vec<SloSpec>) {
        let mut engine = SloEngine::new(config.cadence_us);
        for spec in slos {
            engine.add(spec);
        }
        self.observability = Some(Observability {
            scraper: SeriesScraper::new(config),
            slo: engine,
        });
    }

    /// The default SLO set for instrumented sim runs: SAN operations
    /// must stay under 1% faulted, alerted on burn rate.
    pub fn default_slos() -> Vec<SloSpec> {
        vec![SloSpec::new(
            "san-faults",
            vec!["san.faults".to_owned()],
            vec!["san.ops".to_owned()],
            10_000,
        )]
    }

    /// The series scraper, when observability is enabled.
    pub fn scraper(&self) -> Option<&SeriesScraper> {
        self.observability.as_ref().map(|o| &o.scraper)
    }

    /// The cluster-wide telemetry handle (cheap to clone; all clones share
    /// one registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The shared SAN.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Arms a storage fault plan on the shared SAN (seeded transient I/O
    /// errors, brown-out windows, torn writes). The plan's brown-out
    /// windows are interpreted against this cluster's simulated clock —
    /// [`step`](Self::step) keeps the injector's notion of *now* in sync.
    pub fn set_fault_plan(&mut self, plan: dosgi_san::FaultPlan) {
        self.store.set_fault_plan(plan);
        self.store.set_now(self.net.now());
    }

    /// Disarms storage fault injection (the SAN becomes reliable again).
    pub fn clear_faults(&mut self) {
        self.store.clear_faults();
    }

    /// The simulated network (partition injection, stats).
    pub fn net_mut(&mut self) -> &mut SimNet<Wire> {
        &mut self.net
    }

    /// Number of nodes (alive or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the cluster has no nodes (never: see [`new`](Self::new)).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// A node by index, if it exists and is alive.
    pub fn node(&self, idx: usize) -> Option<&DosgiNode> {
        self.slots.get(idx).filter(|s| s.alive).map(|s| &s.node)
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, idx: usize) -> Option<&mut DosgiNode> {
        self.slots
            .get_mut(idx)
            .filter(|s| s.alive)
            .map(|s| &mut s.node)
    }

    /// Indexes of nodes that are alive and `Running`.
    pub fn running_nodes(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive && s.node.state() == NodeState::Running)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of hibernated nodes (the E10 power metric).
    pub fn hibernated_nodes(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.alive && s.node.state() == NodeState::Hibernated)
            .count()
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Deploys an instance on node `idx` and waits (in simulated time) for
    /// the deployment to **commit** — i.e. for the ordered `Deployed`
    /// record to reach the replicated registry **of every live node**.
    /// (The sequencer alone is not enough: if the deploying node is the
    /// sequencer, its self-delivery is instant while the broadcast could
    /// still die with it.) Only then can a crash of any single node not
    /// lose the instance.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeUnavailable`], [`CoreError::DuplicateInstance`],
    /// instance-manager errors, or [`CoreError::BadMigration`] if the
    /// commit does not land within five simulated seconds (no sequencer
    /// reachable).
    pub fn deploy(&mut self, descriptor: InstanceDescriptor, idx: usize) -> Result<(), CoreError> {
        if self.find_record(&descriptor.name).is_some() {
            return Err(CoreError::DuplicateInstance(descriptor.name));
        }
        let name = descriptor.name.clone();
        let now = self.net.now();
        let slot = self
            .slots
            .get_mut(idx)
            .filter(|s| s.alive)
            .ok_or(CoreError::NodeUnavailable(NodeId(idx as u32)))?;
        slot.node.deploy(descriptor, &mut self.net, now)?;
        let deadline = self.net.now() + SimDuration::from_secs(5);
        while self.net.now() < deadline {
            let everywhere = self
                .slots
                .iter()
                .filter(|s| s.alive && s.node.state() == NodeState::Running)
                .all(|s| s.node.registry().record(&name).is_some());
            if everywhere {
                return Ok(());
            }
            self.step();
        }
        Err(CoreError::BadMigration(format!(
            "deployment of {name:?} did not commit"
        )))
    }

    /// Permanently removes an instance from the cluster (state wiped).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance has no live home.
    pub fn undeploy(&mut self, name: &str) -> Result<(), CoreError> {
        let home = self
            .home_of(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        let slot = self
            .slots
            .get_mut(home)
            .ok_or(CoreError::NodeUnavailable(NodeId(home as u32)))?;
        slot.node.undeploy(name, &mut self.net)
    }

    /// Requests a migration of `name` to node `to`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownInstance`] / [`CoreError::NotPlaced`] /
    /// [`CoreError::BadMigration`].
    pub fn migrate(&mut self, name: &str, to: usize) -> Result<(), CoreError> {
        let home = self
            .home_of(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        if self.node(to).is_none() {
            return Err(CoreError::BadMigration(format!(
                "destination n{to} is down"
            )));
        }
        let dest = NodeId(to as u32);
        let slot = self
            .slots
            .get_mut(home)
            .ok_or(CoreError::NodeUnavailable(NodeId(home as u32)))?;
        slot.node.migrate_away(name, dest, &mut self.net)
    }

    /// Requests an in-place hot upgrade of the bundle named by
    /// `manifest.symbolic_name` inside instance `name`, on its current
    /// home node. Completion surfaces as
    /// [`NodeEvent::BundleUpgraded`](crate::NodeEvent::BundleUpgraded);
    /// drive the cluster to observe it.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance has no live home.
    pub fn upgrade_bundle(
        &mut self,
        name: &str,
        manifest: dosgi_osgi::BundleManifest,
    ) -> Result<(), CoreError> {
        let home = self
            .home_of(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        let now = self.net.now();
        let slot = self
            .slots
            .get_mut(home)
            .ok_or(CoreError::NodeUnavailable(NodeId(home as u32)))?;
        slot.node.request_upgrade(name, manifest, now)
    }

    /// Crashes node `idx` (crash-stop: volatile state lost, SAN intact).
    pub fn crash_node(&mut self, idx: usize) {
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.alive = false;
            self.probed = None;
            self.net.crash(NodeId(idx as u32));
        }
    }

    /// Restarts a crashed node with fresh volatile state and its host
    /// framework restored from its own SAN snapshot; it rejoins the
    /// group and receives one registry transfer: the `RegistrySync` of the
    /// view change that admits it, or — restarted inside the suspicion
    /// timeout — the `RegistryDelta` answering its `Hello`.
    /// An index that is not a node is a no-op, as it is for
    /// [`crash_node`](Self::crash_node).
    pub fn restart_node(&mut self, idx: usize) {
        let peers = self.slots.len();
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let _restart = self.phases.enter(Phase::RestartNode);
        let ids: Vec<NodeId> = (0..peers).map(|i| NodeId(i as u32)).collect();
        let id = NodeId(idx as u32);
        self.net.restart(id);
        let mut node = DosgiNode::new(
            id,
            ids,
            &self.kit,
            self.store.clone(),
            self.net.now(),
            &self.phases,
        );
        node.set_telemetry(self.telemetry.clone());
        node.set_recorder(slot.recorder.clone());
        slot.node = node;
        slot.alive = true;
        self.probed = None;
    }

    /// Wakes a hibernated (or orderly-stopped) node: it rejoins the group
    /// with fresh volatile state and becomes a placement candidate again —
    /// the scale-back-up half of §4's consolidation story ("relocating
    /// them in another node when they need more performance").
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeUnavailable`] if the node is crashed or running.
    pub fn wake_node(&mut self, idx: usize) -> Result<(), CoreError> {
        let state = self
            .slots
            .get(idx)
            .filter(|s| s.alive)
            .map(|s| s.node.state())
            .ok_or(CoreError::NodeUnavailable(NodeId(idx as u32)))?;
        if !matches!(state, NodeState::Hibernated | NodeState::Stopped) {
            return Err(CoreError::NodeUnavailable(NodeId(idx as u32)));
        }
        // Waking is a restart with empty volatile state; the SAN still has
        // everything durable.
        self.restart_node(idx);
        Ok(())
    }

    /// Starts a graceful shutdown of node `idx` (drain, then leave).
    pub fn graceful_shutdown(&mut self, idx: usize) {
        let now = self.net.now();
        if let Some(slot) = self.slots.get_mut(idx) {
            if slot.alive {
                slot.node.begin_shutdown(&mut self.net, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Client-side views
    // ------------------------------------------------------------------

    // (These take the slots, not `self`, so the step loop can probe into
    // `self.sla` while it walks the registry.)
    fn reference_node(slots: &[Slot]) -> Option<usize> {
        slots
            .iter()
            .position(|s| s.alive && s.node.state() == NodeState::Running)
    }

    fn reference_registry(slots: &[Slot]) -> Option<&crate::ClusterRegistry> {
        Self::reference_node(slots).map(|i| slots[i].node.registry())
    }

    /// The live node `rec` is placed on, if any.
    fn live_home<'a>(slots: &'a [Slot], rec: &crate::InstanceRecord) -> Option<&'a DosgiNode> {
        slots
            .get(rec.placed_on()?.index())
            .filter(|s| s.alive)
            .map(|s| &s.node)
    }

    fn find_record(&self, name: &str) -> Option<&crate::InstanceRecord> {
        Self::reference_registry(&self.slots).and_then(|r| r.record(name))
    }

    /// The node index currently responsible for `name` (per the replicated
    /// registry), if placed on a live node.
    pub fn home_of(&self, name: &str) -> Option<usize> {
        let rec = self.find_record(name)?;
        Self::live_home(&self.slots, rec).map(|_| rec.home.index())
    }

    /// True if `name` is currently serving somewhere — the availability
    /// probe (a client that knows the service's location, as the paper's
    /// localization schemes provide).
    pub fn probe(&self, name: &str) -> bool {
        self.find_record(name)
            .and_then(|rec| Self::live_home(&self.slots, rec))
            .is_some_and(|n| n.probe_local(name))
    }

    /// Routes a client request to the instance's current home.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] while the instance is down (counted as
    /// downtime by callers), [`CoreError::Throttled`] when the SLA layer
    /// throttled it, plus service errors.
    pub fn call(
        &mut self,
        name: &str,
        interface: &str,
        method: &str,
        arg: &Value,
    ) -> Result<Value, CoreError> {
        let idx = self
            .home_of(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        let node = self
            .node_mut(idx)
            .ok_or(CoreError::NodeUnavailable(NodeId(idx as u32)))?;
        if node.is_throttled(name) {
            return Err(CoreError::Throttled(name.to_owned()));
        }
        node.call_local(name, interface, method, arg)
    }

    /// The SLA/availability tracker, current to the last step.
    pub fn sla(&self) -> &SlaTracker {
        &self.sla
    }

    /// Drains all node events collected so far, as `(node, event)` pairs in
    /// observation order.
    pub fn take_events(&mut self) -> Vec<(NodeId, NodeEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Injects a network partition.
    pub fn partition(&mut self, p: Partition) {
        self.net.partition(p);
    }

    /// Heals any partition.
    pub fn heal(&mut self) {
        self.net.heal();
    }

    // ------------------------------------------------------------------
    // The driver loop
    // ------------------------------------------------------------------

    /// Advances the cluster by `duration`, one [`step`](Self::step) at a
    /// time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.net.now() + duration;
        while self.net.now() < end {
            self.step();
        }
    }

    /// One driver step: advance the network by one tick, tick the nodes,
    /// collect events, account availability — public so experiments can
    /// interleave fine-grained actions with time. A step in which no node
    /// has mail or a deadline, no placement moved and no scrape is due does
    /// nothing but advance the clock.
    pub fn step(&mut self) {
        #[cfg(test)]
        if self.fixed_tick_reference {
            self.slots.iter_mut().for_each(|s| s.node.wake());
            self.probed = None;
        }
        let phases = self.phases.clone();
        phases.count_in(Phase::NetDrain, || self.net.advance(TICK));
        let now = self.net.now();
        // Brown-out windows in an armed fault plan are defined in simulated
        // time; advance the injector's clock alongside the network's.
        self.store.set_now(now);
        for slot in &mut self.slots {
            if slot.alive {
                slot.node.tick(&mut self.net, now);
            }
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            for e in slot.node.drain_events() {
                if let NodeEvent::Adopted { reason, .. } = &e {
                    match reason {
                        AdoptReason::Migration => self.metrics.migration_completed.incr(),
                        AdoptReason::Failover => self.metrics.failover_adoptions.incr(),
                    }
                }
                self.events.push((NodeId(i as u32), e));
            }
        }
        // Availability. A probe's answer is a function of the reference
        // node's registry, slot liveness and each home's local instances,
        // so while the stamp below stands still every answer does, and the
        // tracker extends the interval instead of being told the same
        // thing again. The other nodes' registry copies are not read. With
        // no running node nobody is asked, as ever.
        let availability = phases.enter(Phase::Availability);
        match Self::reference_node(&self.slots) {
            Some(reference) => {
                let lifecycle = |s: &Slot| s.node.manager().lifecycle_epoch();
                let epochs = self.slots[reference].node.registry().epoch()
                    + self.slots.iter().map(lifecycle).sum::<u64>();
                if self.probed == Some((reference, epochs)) {
                    self.sla.extend_to(now);
                } else {
                    #[cfg(test)]
                    {
                        self.full_passes += 1;
                    }
                    self.probed = Some((reference, epochs));
                    let slots = &self.slots;
                    let registry = slots[reference].node.registry();
                    self.sla.observe(
                        now,
                        registry.records().map(|rec| {
                            let home = Self::live_home(slots, rec);
                            let up = home.is_some_and(|n| n.probe_local(&rec.name));
                            (&*rec.name, up)
                        }),
                    );
                }
            }
            None => self.probed = None,
        }
        drop(availability);
        // Continuous observability, on the scrape cadence: health gauges
        // first (so the scrape samples the fresh values), then the series
        // scrape, then SLO evaluation. Pure reads of the telemetry
        // registry and the replicated registry — nothing here touches the
        // network, the SAN, or any RNG stream (passivity).
        let now_us = now.as_micros();
        if self
            .observability
            .as_ref()
            .is_some_and(|o| o.scraper.due(now_us))
        {
            let _scrape = phases.enter(Phase::Scrape);
            self.record_health_gauges();
            if let Some(obs) = self.observability.as_mut() {
                obs.scraper.scrape(&self.telemetry, now_us);
                obs.slo.observe(&self.telemetry, now_us);
            }
        }
    }

    // ------------------------------------------------------------------
    // The health scoreboard
    // ------------------------------------------------------------------

    /// Node `idx`'s current health: a dead node is `Critical` outright;
    /// otherwise alert state (cluster-scoped SLO alerts degrade every
    /// serving node) and quarantined instances homed here feed
    /// [`dosgi_telemetry::derive_health`]. Hibernated and stopped nodes
    /// serve nothing by design, so their indicators are naturally quiet
    /// and they report `Ok`.
    pub fn health_of(&self, idx: usize) -> HealthState {
        let Some(slot) = self.slots.get(idx) else {
            return HealthState::Critical;
        };
        if !slot.alive {
            return HealthState::Critical;
        }
        let serving = slot.node.state() == NodeState::Running;
        let alerts = if serving {
            self.observability
                .as_ref()
                .map(|o| o.slo.firing_count())
                .unwrap_or(0)
        } else {
            0
        };
        // Quarantined instances homed here, per the replicated registry (0
        // when no running node can be consulted).
        let quarantined = Self::reference_registry(&self.slots)
            .map_or(0, |r| r.quarantined_on(NodeId(idx as u32)).count());
        dosgi_telemetry::derive_health(alerts, quarantined)
    }

    /// Publishes the scoreboard as `core.health.n<i>` gauges
    /// (0 = ok, 1 = degraded, 2 = critical).
    pub fn record_health_gauges(&self) {
        for (i, slot) in self.slots.iter().enumerate() {
            slot.health.set(self.health_of(i).as_gauge());
        }
    }

    /// Publishes the cluster's derived health figures as telemetry gauges:
    /// aggregate SLA downtime/outages across all tracked instances and the
    /// node-state census. Call before taking a telemetry snapshot so the
    /// snapshot reflects current state.
    pub fn record_telemetry_gauges(&self) {
        let mut down_us: u64 = 0;
        let mut outages: u64 = 0;
        let mut longest_us: u64 = 0;
        for name in self.sla.instances() {
            let rec = self.sla.record(name);
            down_us += rec.down.as_micros();
            outages += u64::from(rec.outages);
            longest_us = longest_us.max(rec.longest_outage.as_micros());
        }
        let m = &self.metrics;
        m.sla_down_us_total.set(down_us as i64);
        m.sla_outages.set(outages as i64);
        m.sla_longest_outage_us.set(longest_us as i64);
        m.nodes_running.set(self.running_nodes().len() as i64);
        m.nodes_hibernated.set(self.hibernated_nodes() as i64);
        self.record_health_gauges();
    }

    /// Refreshes the derived gauges and takes a snapshot of the cluster's
    /// telemetry registry, labelled for the snapshot file name.
    #[cfg(test)]
    pub(crate) fn telemetry_snapshot(&self, label: &str, seed: u64) -> dosgi_telemetry::Snapshot {
        self.record_telemetry_gauges();
        self.telemetry.snapshot(label, seed)
    }

    /// Merges every node's flight recorder — including those of crashed
    /// nodes, whose rings outlive them — into one causally-ordered
    /// cluster trace. Empty when the cluster runs without telemetry.
    pub fn trace_log(&self) -> TraceLog {
        TraceLog::merge(self.slots.iter().map(|s| &s.recorder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use dosgi_san::Value;
    use dosgi_vosgi::SecurityPolicy;

    fn cluster() -> DosgiCluster {
        let mut c = DosgiCluster::new(3, ClusterConfig::default(), 77);
        c.run_for(SimDuration::from_millis(500));
        c
    }

    #[test]
    fn deploy_undeploy_round_trip() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        assert!(c.probe("web"));
        assert_eq!(c.home_of("web"), Some(0));
        c.undeploy("web").unwrap();
        c.run_for(SimDuration::from_millis(500));
        assert!(!c.probe("web"));
        assert_eq!(c.home_of("web"), None);
        // The SAN state is wiped too: nothing under the instance namespace.
        assert_eq!(c.store().namespace_bytes_prefixed("instance/web"), 0);
        // And the name is reusable.
        c.deploy(workloads::web_instance("a", "web"), 1).unwrap();
        c.run_for(SimDuration::from_millis(300));
        assert_eq!(c.home_of("web"), Some(1));
    }

    /// A descriptor from the network grants itself nothing: the deploying
    /// node keeps the policy it granted, every registry record is
    /// policy-free, and an instance adopted by a migration or a failover
    /// runs deny-all. Mutation-checked: a deploy that orders the deployer's
    /// descriptor, policy and all, fails.
    #[test]
    fn an_adopted_instance_runs_under_deny_all() {
        let mut c = cluster();
        let granted = SecurityPolicy::deny_all().grant_file_rw("/data/acme");
        let mut descriptor = workloads::web_instance("acme", "web");
        descriptor.policy = granted.clone();
        c.deploy(descriptor, 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        let policy = |c: &DosgiCluster, node: usize| {
            let manager = c.node(node).unwrap().manager();
            let iid = manager.find_by_name("web").unwrap();
            manager.instance(iid).unwrap().descriptor.policy.clone()
        };
        let records_grant_nothing = |c: &DosgiCluster| {
            c.running_nodes().into_iter().all(|n| {
                let record = c.node(n).unwrap().registry().record("web").unwrap();
                record.descriptor.policy == SecurityPolicy::deny_all()
            })
        };
        assert_eq!(policy(&c, 0), granted);
        assert!(records_grant_nothing(&c));
        c.migrate("web", 1).unwrap();
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.home_of("web"), Some(1));
        assert_eq!(policy(&c, 1), SecurityPolicy::deny_all());
        c.crash_node(1);
        c.run_for(SimDuration::from_secs(4));
        let home = c.home_of("web").unwrap();
        assert_ne!(home, 1);
        assert!(c.probe("web"));
        assert_eq!(policy(&c, home), SecurityPolicy::deny_all());
        assert!(records_grant_nothing(&c));
    }

    #[test]
    fn undeploy_of_unknown_instance_errors() {
        let mut c = cluster();
        assert!(matches!(c.undeploy("ghost"), Err(CoreError::NotPlaced(_))));
    }

    #[test]
    fn node_accessors_respect_liveness() {
        let mut c = cluster();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.node(0).is_some());
        assert!(c.node(9).is_none());
        assert_eq!(c.running_nodes(), vec![0, 1, 2]);
        assert_eq!(c.hibernated_nodes(), 0);
        c.crash_node(1);
        assert!(c.node(1).is_none());
        assert_eq!(c.running_nodes(), vec![0, 2]);
    }

    #[test]
    fn crash_and_restart_of_an_index_that_is_no_node_change_nothing() {
        let mut c = cluster();
        c.run_for(SimDuration::from_millis(50));
        let (running, now) = (c.running_nodes(), c.now());
        c.crash_node(99);
        c.restart_node(99);
        assert_eq!((c.running_nodes(), c.now()), (running, now));
    }

    #[test]
    fn call_to_unplaced_instance_is_not_placed_error() {
        let mut c = cluster();
        let err = c
            .call("nope", workloads::WEB_SERVICE, "handle", &Value::Null)
            .unwrap_err();
        assert!(matches!(err, CoreError::NotPlaced(_)));
    }

    #[test]
    fn deploy_rejects_dead_node_and_duplicates() {
        let mut c = cluster();
        c.crash_node(2);
        assert!(matches!(
            c.deploy(workloads::web_instance("a", "w"), 2),
            Err(CoreError::NodeUnavailable(_))
        ));
        c.deploy(workloads::web_instance("a", "w"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        assert!(matches!(
            c.deploy(workloads::web_instance("b", "w"), 1),
            Err(CoreError::DuplicateInstance(_))
        ));
    }

    #[test]
    fn monitor_series_bridge_into_telemetry_gauges() {
        let telemetry = Telemetry::new();
        let mut c =
            DosgiCluster::new_with_telemetry(3, ClusterConfig::default(), 77, telemetry.clone());
        c.run_for(SimDuration::from_millis(500));
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        // Dense enough that every 250ms sampling window contains calls, so
        // the final gauge values are non-zero regardless of window phase.
        for _ in 0..20 {
            c.call("web", workloads::WEB_SERVICE, "handle", &Value::Null)
                .unwrap();
            c.run_for(SimDuration::from_millis(100));
        }
        let gauges = telemetry.snapshot("t", 0).gauges;
        for key in [
            "monitor.web.cpu_share_pm",
            "monitor.web.memory_bytes",
            "monitor.web.call_rate_mcps",
        ] {
            assert!(gauges.contains_key(key), "missing {key} in {gauges:?}");
        }
        assert!(
            gauges["monitor.web.call_rate_mcps"] > 0,
            "sustained calls show up in the windowed rate: {gauges:?}"
        );
    }

    #[test]
    fn a_restarted_node_keeps_counting_into_the_same_slots() {
        let telemetry = Telemetry::new();
        let mut c =
            DosgiCluster::new_with_telemetry(3, ClusterConfig::default(), 77, telemetry.clone());
        let read = || {
            (
                telemetry.counter("gcs.view.installed"),
                telemetry.counter("core.registry.ops"),
            )
        };
        c.run_for(SimDuration::from_millis(500));
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        let booted = read();
        c.crash_node(2);
        c.run_for(SimDuration::from_secs(3));
        let crashed = read();
        assert!(
            crashed.0 > booted.0 && crashed.1 >= booted.1,
            "the survivors install a view without node 2: {booted:?} -> {crashed:?}"
        );
        c.restart_node(2);
        c.run_for(SimDuration::from_secs(3));
        assert_eq!(c.running_nodes().len(), 3);
        let rejoined = read();
        assert!(
            rejoined.0 > crashed.0 && rejoined.1 > crashed.1,
            "the rejoin is counted on top, never from zero: {crashed:?} -> {rejoined:?}"
        );
        // One ordered message is applied once per node: the restarted
        // node's share lands in the slot the others write.
        c.deploy(workloads::web_instance("b", "web2"), 1).unwrap();
        c.run_for(SimDuration::from_millis(300));
        assert_eq!(read().1, rejoined.1 + 3);
    }

    /// At a quiet horizon every span a protocol opened has been closed,
    /// once: nothing is left open on any node and no close was rejected.
    fn assert_quiet(log: &TraceLog) {
        let open: Vec<_> = log.events.iter().filter(|e| e.open).collect();
        assert!(open.is_empty(), "spans left open: {open:?}");
        assert_eq!(log.rejected, 0, "a span was closed twice or never opened");
    }

    #[test]
    fn migration_produces_causal_trace() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        c.migrate("web", 1).unwrap();
        c.run_for(SimDuration::from_millis(1_000));
        assert_eq!(c.home_of("web"), Some(1));
        let log = c.trace_log();
        let root = log
            .events
            .iter()
            .find(|e| e.name == "migrate/web")
            .expect("migrate root recorded");
        assert_eq!(root.parent_span, 0, "operator migrate starts the trace");
        assert_eq!(root.node, 0, "minted on the source");
        let in_trace = |name: &str| {
            log.events
                .iter()
                .find(|e| e.trace_id == root.trace_id && e.name == name)
        };
        let release = in_trace("release/web").expect("release span");
        let adopt = in_trace("adopt/web").expect("adopt span");
        assert!(in_trace("quiesce/web").is_some(), "quiesce phase");
        assert!(in_trace("persist/web").is_some(), "persist phase");
        assert_eq!(release.node, 0);
        assert_eq!(adopt.node, 1, "adopt span lives on the destination");
        assert!(!adopt.open, "adoption completed");
        assert!(
            adopt.lamport_start > release.lamport_end,
            "adoption is causally after the release ({} vs {})",
            adopt.lamport_start,
            release.lamport_end
        );
        assert!(
            adopt.end_us >= release.end_us,
            "adoption finishes after the release in simulated time"
        );
        assert_quiet(&log);
    }

    #[test]
    fn failover_claim_produces_trace() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(8));
        let new_home = c.home_of("web").expect("web failed over");
        assert_ne!(new_home, 0);
        let log = c.trace_log();
        let root = log
            .events
            .iter()
            .find(|e| e.name == "failover/web")
            .expect("failover claim root recorded");
        let adopt = log
            .events
            .iter()
            .find(|e| e.trace_id == root.trace_id && e.name == "adopt/web")
            .expect("failover adoption joins the claim's trace");
        assert_eq!(adopt.node, new_home as u64);
        assert!(adopt.lamport_start > root.lamport_start);
        assert!(!adopt.open, "adoption completed");
        assert_quiet(&log);
    }

    #[test]
    fn disabled_telemetry_records_no_trace() {
        let mut c = DosgiCluster::new_with_telemetry(
            3,
            ClusterConfig::default(),
            77,
            Telemetry::disabled(),
        );
        c.run_for(SimDuration::from_millis(500));
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        c.migrate("web", 1).unwrap();
        c.run_for(SimDuration::from_millis(1_000));
        assert_eq!(c.home_of("web"), Some(1), "protocol unaffected");
        assert!(c.trace_log().events.is_empty());
    }

    /// A consolidating node orders each of its instances away once.
    /// (Regression: the rule said `migrate_all(); hibernate()`, and the
    /// hibernation drains the node by itself, so every instance was
    /// ordered away twice.)
    #[test]
    fn consolidation_orders_each_migration_once() {
        let mut config = ClusterConfig::default();
        config.node.policy = Some(crate::autonomic::CONSOLIDATION_POLICY.to_owned());
        let mut c = DosgiCluster::new(3, config, 31);
        c.run_for(SimDuration::from_secs(1));
        for i in 0..4 {
            c.deploy(workloads::web_instance("idle", &format!("idle-{i}")), 2)
                .unwrap();
        }
        let deadline = c.now() + SimDuration::from_secs(20);
        while c.hibernated_nodes() == 0 && c.now() < deadline {
            c.step();
        }
        assert_eq!(c.node(2).map(|n| n.state()), Some(NodeState::Hibernated));
        assert_eq!(c.telemetry().counter("core.placement.decisions"), 4);
        c.run_for(SimDuration::from_secs(1));
        for i in 0..4 {
            assert!(c.probe(&format!("idle-{i}")), "idle-{i} still served");
        }
    }

    /// A drain ends in `Stopped` after a shutdown and in `Hibernated`
    /// after consolidation, and either way its root is ended once, as the
    /// drain ends: one closed `shutdown` or `hibernate` root and one
    /// `Drained` or `Hibernated` event.
    #[test]
    fn a_shutdown_and_a_hibernation_each_end_their_drain_root_once() {
        let drained = |c: &mut DosgiCluster, root: &str, state: NodeState| {
            assert_eq!(c.node(2).map(|n| n.state()), Some(state));
            let roots: Vec<_> = c
                .trace_log()
                .events
                .into_iter()
                .filter(|e| e.name == root)
                .collect();
            assert_eq!(roots.len(), 1, "one {root} root: {roots:?}");
            assert!(!roots[0].open && roots[0].node == 2, "{roots:?}");
            let ends = c
                .take_events()
                .into_iter()
                .filter(|(n, e)| {
                    *n == NodeId(2)
                        && matches!(e, NodeEvent::Drained { .. } | NodeEvent::Hibernated { .. })
                })
                .count();
            assert_eq!(ends, 1);
        };
        let mut config = ClusterConfig::default();
        config.node.policy = None;
        let mut c = DosgiCluster::new(3, config, 31);
        c.run_for(SimDuration::from_secs(1));
        c.deploy(workloads::web_instance("a", "web"), 2).unwrap();
        c.run_for(SimDuration::from_millis(300));
        c.graceful_shutdown(2);
        c.run_for(SimDuration::from_secs(2));
        drained(&mut c, "shutdown", NodeState::Stopped);
        assert!(c.probe("web"), "web moved before node 2 stopped");

        let mut config = ClusterConfig::default();
        config.node.policy = Some(crate::autonomic::CONSOLIDATION_POLICY.to_owned());
        let mut c = DosgiCluster::new(3, config, 31);
        c.run_for(SimDuration::from_secs(1));
        c.deploy(workloads::web_instance("idle", "idle"), 2)
            .unwrap();
        let deadline = c.now() + SimDuration::from_secs(20);
        while c.hibernated_nodes() == 0 && c.now() < deadline {
            c.step();
        }
        c.run_for(SimDuration::from_secs(1));
        drained(&mut c, "hibernate", NodeState::Hibernated);
        assert!(c.probe("idle"), "idle moved before node 2 hibernated");
    }

    /// A node draining to stop is `Draining` and claims nothing; one
    /// draining to hibernate stays `Running` and goes on claiming
    /// failovers. Each drain is held open by an instance created on the
    /// node after it began, which the drain does not move; then the node
    /// that received the drained instances crashes.
    #[test]
    fn only_a_hibernating_node_claims_failovers_while_it_drains() {
        let claims_by_node_2 = |policy: Option<&str>, hibernate: bool| {
            let mut config = ClusterConfig::default();
            config.node.policy = policy.map(str::to_owned);
            let mut c = DosgiCluster::new(3, config, 31);
            c.run_for(SimDuration::from_secs(1));
            for i in 0..4 {
                c.deploy(workloads::web_instance("idle", &format!("idle-{i}")), 2)
                    .unwrap();
            }
            if hibernate {
                let deadline = c.now() + SimDuration::from_secs(20);
                let mut fired = false;
                while !fired && c.now() < deadline {
                    c.step();
                    fired = c.take_events().iter().any(|(n, e)| {
                        *n == NodeId(2)
                            && matches!(e, NodeEvent::PolicyFired { decision, .. }
                                if decision.action == dosgi_policy::PolicyAction::HibernateNode)
                    });
                }
                assert!(fired, "node 2 began to hibernate");
            } else {
                c.run_for(SimDuration::from_millis(300));
                c.graceful_shutdown(2);
            }
            let pinned = workloads::web_instance("pin", "pinned");
            let node = c.node_mut(2).expect("node 2 up");
            node.manager_mut().create_instance(pinned).unwrap();
            c.run_for(SimDuration::from_millis(500));
            let dest = c.home_of("idle-0").expect("idle-0 moved");
            assert_ne!(dest, 2);
            // Within the consolidation rule's next window (5 passes of
            // 500 ms), which would order the pinned instance away too.
            c.crash_node(dest);
            c.run_for(SimDuration::from_millis(1_500));
            let state = c.node(2).map(|n| n.state());
            let claims = c
                .trace_log()
                .events
                .iter()
                .filter(|e| e.node == 2 && e.name.starts_with("failover/"))
                .count();
            (state, claims)
        };
        let (state, claims) = claims_by_node_2(None, false);
        assert_eq!(state, Some(NodeState::Draining));
        assert_eq!(claims, 0, "a node draining to stop claims nothing");
        let (state, claims) = claims_by_node_2(Some(crate::autonomic::CONSOLIDATION_POLICY), true);
        assert_eq!(state, Some(NodeState::Running));
        assert!(claims > 0, "a node draining to hibernate claims failovers");
    }

    #[test]
    fn health_scoreboard_tracks_liveness_and_gauges() {
        let telemetry = Telemetry::new();
        let mut c =
            DosgiCluster::new_with_telemetry(3, ClusterConfig::default(), 77, telemetry.clone());
        c.run_for(SimDuration::from_millis(500));
        for i in 0..3 {
            assert_eq!(c.health_of(i), HealthState::Ok);
        }
        c.crash_node(1);
        assert_eq!(c.health_of(1), HealthState::Critical);
        assert_eq!(c.health_of(0), HealthState::Ok);
        assert_eq!(c.health_of(99), HealthState::Critical, "unknown = critical");
        c.record_health_gauges();
        assert_eq!(telemetry.gauge("core.health.n0"), Some(0));
        assert_eq!(telemetry.gauge("core.health.n1"), Some(2));
        c.restart_node(1);
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.health_of(1), HealthState::Ok);
    }

    #[test]
    fn observability_scrapes_on_cadence_with_bounded_series() {
        let telemetry = Telemetry::new();
        let mut c =
            DosgiCluster::new_with_telemetry(3, ClusterConfig::default(), 77, telemetry.clone());
        c.enable_observability(
            dosgi_telemetry::ScrapeConfig {
                cadence_us: 250_000,
                capacity: 16,
            },
            DosgiCluster::default_slos(),
        );
        c.run_for(SimDuration::from_millis(500));
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_secs(30));
        let scraper = c.scraper().expect("observability on");
        // 30.5 s at 250 ms cadence: one scrape per window, first at t=tick.
        assert!(scraper.scrapes() >= 120, "scrapes: {}", scraper.scrapes());
        let rate = scraper.series("rate:san.ops").expect("san.ops series");
        assert!(rate.len() <= rate.capacity());
        assert_eq!(rate.appended(), rate.len() as u64 + rate.dropped());
        assert!(rate.dropped() > 0, "a 16-ring over 120 scrapes compacts");
        assert_eq!(
            telemetry.counter(dosgi_telemetry::DROPPED_POINTS),
            scraper.total_dropped()
        );
        // Health gauges became series too.
        assert!(scraper.series("gauge:core.health.n0").is_some());
        // A healthy run fires nothing.
        assert_eq!(c.observability.as_ref().unwrap().slo.firing_count(), 0);
        assert!(telemetry.alerts().is_empty());
    }

    /// A probe reads the reference node's registry and no other: a step in
    /// which only another node's copy was written extends the interval, one
    /// in which the reference's was runs a full pass.
    #[test]
    fn only_the_reference_registry_owes_a_full_pass() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "web"), 1).unwrap();
        c.run_for(SimDuration::from_millis(300));
        assert_eq!(DosgiCluster::reference_node(&c.slots), Some(0));
        let write = |c: &mut DosgiCluster, idx: usize| {
            let registry = c.slots[idx].node.registry_mut();
            registry.apply(&crate::AppPayload::Draining { node: NodeId(9) });
        };
        let step = |c: &mut DosgiCluster| {
            let (passes, up) = (c.full_passes, c.sla().record("web").up);
            c.step();
            assert_eq!(c.sla().record("web").up, up + TICK, "the interval grows");
            c.full_passes - passes
        };
        assert_eq!(step(&mut c), 0, "a quiet step");
        for other in [1, 2] {
            write(&mut c, other);
            assert_eq!(step(&mut c), 0, "node {other}'s copy moved");
        }
        write(&mut c, 0);
        assert_eq!(step(&mut c), 1, "the reference's copy moved");
    }

    /// One generated operator action of the differential test, on instance
    /// and node numbers.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Deploy(usize, usize),
        Migrate(usize, usize),
        Undeploy(usize),
        /// One request to every instance.
        Calls,
        Upgrade(usize),
        Crash(usize),
        /// Down for so many steps: 0–3 is inside the suspicion timeout
        /// (nobody notices), 45 and up is outside it.
        CrashRestart(usize, u64),
        Restart(usize),
        Shutdown(usize),
        Isolate(usize),
        Heal,
        /// Loss rate on the link between two nodes.
        LossyLink(usize, usize, f64),
        SanFaults {
            brownout_ms: u64,
            io_error_rate: f64,
            torn: f64,
        },
        ClearSanFaults,
    }

    const DIFF_NODES: usize = 4;
    const DIFF_INSTANCES: usize = 5;

    impl Op {
        fn generate(rng: &mut dosgi_testkit::TestRng) -> Op {
            let instance = rng.usize_in(0, DIFF_INSTANCES - 1);
            let node = rng.usize_in(0, DIFF_NODES - 1);
            let other = rng.usize_in(0, DIFF_NODES - 1);
            match rng.u64_below(24) {
                0..=3 => Op::Deploy(instance, node),
                4 | 5 => Op::Migrate(instance, node),
                6 => Op::Undeploy(instance),
                7 => Op::Calls,
                8 | 9 => Op::Deploy(instance | 1, node),
                10 | 11 => Op::Upgrade(instance),
                12 => Op::Crash(node),
                13 | 14 => {
                    Op::CrashRestart(node, [0, 2, 45 + rng.u64_below(80)][rng.usize_in(0, 2)])
                }
                15 => Op::Restart(node),
                16 => Op::Shutdown(node),
                17 => Op::Isolate(node),
                18 => Op::Heal,
                19 => Op::LossyLink(node, other, [0.0, 0.2, 1.0][rng.usize_in(0, 2)]),
                20..=22 => Op::SanFaults {
                    brownout_ms: rng.u64_in(0, 1_500),
                    io_error_rate: [0.0, 0.4][rng.usize_in(0, 1)],
                    torn: [0.0, 0.5][rng.usize_in(0, 1)],
                },
                _ => Op::ClearSanFaults,
            }
        }
    }

    fn diff_name(instance: usize) -> String {
        format!("i{instance}")
    }

    /// Applies `op`, returning what the operator would see of it.
    fn apply(c: &mut DosgiCluster, op: Op, seed: u64) -> String {
        // Odd instances are write-through counters, even ones web handlers.
        let counter = |i: usize| i % 2 == 1;
        let mut seen = String::new();
        match op {
            Op::Deploy(instance, on) => {
                let name = diff_name(instance);
                let descriptor = if counter(instance) {
                    workloads::counter_instance_with(&name, &name, workloads::COUNTER_WRITE_THROUGH)
                } else {
                    workloads::web_instance(&name, &name)
                };
                seen = format!("{:?}", c.deploy(descriptor, on));
            }
            Op::Migrate(instance, to) => {
                seen = format!("{:?}", c.migrate(&diff_name(instance), to))
            }
            Op::Undeploy(instance) => seen = format!("{:?}", c.undeploy(&diff_name(instance))),
            Op::Calls => {
                let replies = (0..DIFF_INSTANCES).map(|instance| {
                    let (interface, method) = if counter(instance) {
                        (workloads::COUNTER_SERVICE, "incr")
                    } else {
                        (workloads::WEB_SERVICE, "handle")
                    };
                    c.call(&diff_name(instance), interface, method, &Value::Null)
                });
                seen = format!("{:?}", replies.collect::<Vec<_>>());
            }
            Op::Upgrade(instance) => {
                let manifest = workloads::counter_manifest_at(
                    workloads::COUNTER_WRITE_THROUGH,
                    dosgi_osgi::Version::new(1, 1, 0),
                );
                seen = format!("{:?}", c.upgrade_bundle(&diff_name(instance), manifest));
            }
            Op::Crash(node) => c.crash_node(node),
            Op::CrashRestart(node, steps) => {
                c.crash_node(node);
                (0..steps).for_each(|_| c.step());
                c.restart_node(node);
            }
            Op::Restart(node) => {
                if c.node(node).is_none() {
                    c.restart_node(node);
                }
                seen = format!("{:?}", c.wake_node(node));
            }
            Op::Shutdown(node) => c.graceful_shutdown(node),
            Op::Isolate(node) => {
                let rest = (0..DIFF_NODES as u32).filter(|n| *n as usize != node);
                c.partition(Partition::split([
                    vec![NodeId(node as u32)],
                    rest.map(NodeId).collect(),
                ]));
            }
            Op::Heal => c.heal(),
            Op::LossyLink(a, b, loss) => {
                let link = LinkConfig::lossy(loss);
                c.net_mut()
                    .set_link(NodeId(a as u32), NodeId(b as u32), link);
            }
            Op::SanFaults {
                brownout_ms,
                io_error_rate,
                torn,
            } => {
                let now = c.now();
                c.set_fault_plan(
                    dosgi_san::FaultPlan::flaky(io_error_rate, seed)
                        .with_torn_writes(torn)
                        .with_brownout(now, now + SimDuration::from_millis(brownout_ms)),
                );
            }
            Op::ClearSanFaults => c.clear_faults(),
        }
        seen
    }

    fn differ<T: PartialEq + std::fmt::Debug>(
        what: &str,
        stepped: T,
        reference: T,
    ) -> Result<(), String> {
        if stepped == reference {
            Ok(())
        } else {
            Err(format!(
                "{what}: step() has {stepped:?}, the reference {reference:?}"
            ))
        }
    }

    /// Everything of the two clusters an experiment could read, compared.
    fn same_observables(
        stepped: &mut DosgiCluster,
        reference: &mut DosgiCluster,
        seed: u64,
    ) -> Result<(), String> {
        differ("events", stepped.take_events(), reference.take_events())?;
        let net = |c: &mut DosgiCluster| c.net_mut().stats();
        differ("net stats", net(stepped), net(reference))?;
        let census = |c: &DosgiCluster| (c.now(), c.running_nodes(), c.hibernated_nodes());
        differ("node census", census(stepped), census(reference))?;
        for i in 0..DIFF_NODES {
            let of = |c: &DosgiCluster| {
                c.node(i).map(|n| {
                    (
                        n.registry().export(),
                        n.view().clone(),
                        n.pending_adoptions().map(str::to_owned).collect::<Vec<_>>(),
                        n.pending_upgrades(),
                        n.watched()
                            .records()
                            .iter()
                            .map(|w| (w.name().to_owned(), w.latest()))
                            .collect::<Vec<_>>(),
                    )
                })
            };
            differ(&format!("node {i}"), of(stepped), of(reference))?;
        }
        same_sla_and_san(stepped, reference)?;
        let snapshot = |c: &DosgiCluster| c.telemetry_snapshot("diff", seed).to_json();
        differ("telemetry snapshot", snapshot(stepped), snapshot(reference))
    }

    /// What is cheap enough to compare in the middle of a stretch.
    fn same_sla_and_san(stepped: &DosgiCluster, reference: &DosgiCluster) -> Result<(), String> {
        let at = stepped.now();
        let san = |c: &DosgiCluster| c.store().stats();
        differ(&format!("SAN at {at}"), san(stepped), san(reference))?;
        let tracked = |c: &DosgiCluster| c.sla().instances().len();
        differ("tracked instances", tracked(stepped), tracked(reference))?;
        for i in 0..DIFF_INSTANCES {
            let name = diff_name(i);
            let of = |c: &DosgiCluster| (c.sla().record(&name), c.probe(&name));
            differ(&format!("{name} at {at}"), of(stepped), of(reference))?;
        }
        Ok(())
    }

    /// `step()` — nodes ticking only on mail or a deadline, availability
    /// accounted in intervals — against the fixed-tick reference, seed for
    /// seed, over generated operator sequences: everything observable is
    /// equal after every operation, and the SLA records also in mid-stretch.
    #[test]
    fn step_equals_the_fixed_tick_reference() {
        use dosgi_testkit::{prop, TestRng};

        let cfg = prop::Config::with_cases(200);
        let seeds = prop::u64s(0, u64::MAX);
        prop::check_with(&cfg, "step_equals_reference", &seeds, |&seed| {
            let mut rng = TestRng::new(seed);
            let mut config = ClusterConfig {
                link: LinkConfig::lossy([0.0, 0.0, 0.02, 0.1][rng.usize_in(0, 3)]),
                ..ClusterConfig::default()
            };
            // Off the 50 ms grid the defaults share, so that each timer is the
            // only thing waking a node for it.
            let ms = SimDuration::from_millis;
            config.node.sample_interval = ms([250, 35, 115][rng.usize_in(0, 2)]);
            config.node.policy_interval = ms([500, 65, 185][rng.usize_in(0, 2)]);
            if rng.chance(0.5) {
                config.node.gcs = config.node.gcs.with_heartbeat(ms(35));
            }
            if rng.chance(0.3) {
                // Idle nodes pack up and hibernate, highest rank first.
                config.node.policy = Some(format!(
                    "{}{}",
                    crate::autonomic::DEFAULT_POLICY,
                    crate::autonomic::CONSOLIDATION_POLICY
                ));
            }
            let observed = rng.chance(0.5);
            let new = |reference: bool| {
                let mut c = DosgiCluster::new(DIFF_NODES, config.clone(), seed);
                c.fixed_tick_reference = reference;
                if observed {
                    c.enable_observability(ScrapeConfig::default(), DosgiCluster::default_slos());
                }
                c
            };
            let (mut stepped, mut reference) = (new(false), new(true));
            let steps = |c: &mut DosgiCluster, n: u64| (0..n).for_each(|_| c.step());
            steps(&mut stepped, 100);
            steps(&mut reference, 100);
            for round in 0..14 {
                let op = Op::generate(&mut rng);
                let fail = |e: String| format!("round {round}, after {op:?}: {e}");
                // The generated action, then (half the time) client traffic.
                for op in [Some(op), rng.chance(0.5).then_some(Op::Calls)] {
                    let Some(op) = op else { continue };
                    let seen = apply(&mut stepped, op, seed);
                    if seen != apply(&mut reference, op, seed) {
                        return Err(fail(format!("the operator saw {seen}")));
                    }
                }
                for _ in 0..rng.u64_in(1, 12) {
                    let stretch = rng.u64_in(1, 17);
                    steps(&mut stepped, stretch);
                    steps(&mut reference, stretch);
                    same_sla_and_san(&stepped, &reference).map_err(fail)?;
                }
                same_observables(&mut stepped, &mut reference, seed).map_err(fail)?;
            }
            Ok(())
        });
    }

    /// A stateless request needs no SAN. (Regression: the whole-area
    /// warm-up read an always-empty area on every call, so a brown-out
    /// failed `handle` with `Store(Unavailable)`.)
    #[test]
    fn stateless_call_survives_a_san_brown_out() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        let until = c.now() + SimDuration::from_secs(10);
        c.set_fault_plan(dosgi_san::FaultPlan::flaky(0.0, 1).with_brownout(c.now(), until));
        c.step();
        let ops = c.telemetry().counter("san.ops");
        for served in 1..=1_000 {
            let reply = c.call("web", workloads::WEB_SERVICE, "handle", &Value::Null);
            assert_eq!(reply.unwrap().get("served"), Some(&Value::Int(served)));
        }
        assert_eq!(c.telemetry().counter("san.ops"), ops, "no SAN operation");
    }

    /// The companion: a write-through call does need the SAN, and in the
    /// same window it is not acknowledged; its row stays dirty, the node
    /// stays awake and lands it on the first tick the SAN answers again.
    #[test]
    fn write_through_call_in_a_brown_out_is_refused_and_retried() {
        let mut c = cluster();
        let descriptor =
            workloads::counter_instance_with("a", "ctr", workloads::COUNTER_WRITE_THROUGH);
        c.deploy(descriptor, 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        let incr =
            |c: &mut DosgiCluster| c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null);
        assert_eq!(incr(&mut c), Ok(Value::Int(1)));
        let until = c.now() + SimDuration::from_secs(10);
        c.set_fault_plan(dosgi_san::FaultPlan::flaky(0.0, 1).with_brownout(c.now(), until));
        c.step();
        let refused = incr(&mut c).unwrap_err();
        assert!(refused.to_string().contains("brown-out"), "{refused}");
        let dirty = |c: &DosgiCluster| c.node(0).unwrap().manager().persist_dirty();
        let ns = format!("instance/ctr/data/{}", workloads::COUNTER_WRITE_THROUGH);
        assert!(dirty(&c));
        assert_eq!(c.store().peek(&ns, "count"), Some(Value::Int(1)));
        // A call that writes nothing does not answer for that row.
        let get = c.call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null);
        assert_eq!(get, Ok(Value::Int(2)));
        // The window is half-open: the step that reaches its end is the
        // first on which the SAN answers.
        while c.now() + TICK < until {
            c.step();
        }
        assert!(dirty(&c) && !c.store().is_available());
        c.step();
        assert!(!dirty(&c), "an awake node flushes on that very tick");
        assert_eq!(c.store().peek(&ns, "count"), Some(Value::Int(2)));
    }

    /// The sequencer delivers its own `Released` at once and applies it on
    /// its next tick. A stranded sweep falling on the tick in between must
    /// not take the hand-off for one its source forgot and release it a
    /// second time: every migration off node 0 adopts once, at revision 3.
    #[test]
    fn a_sequencer_releasing_on_its_sweep_tick_releases_once() {
        for lead in 0..4 {
            let mut c = cluster();
            c.deploy(workloads::web_instance("a", "w"), 0).unwrap();
            // Node 0 sweeps every second on the ticks at 5 ms past it.
            while c.now().as_micros() < 2_000_000 - TICK.as_micros() * lead {
                c.step();
            }
            c.take_events();
            c.migrate("w", 1).unwrap();
            c.run_for(SimDuration::from_secs(1));
            let adoptions = c
                .take_events()
                .into_iter()
                .filter(|(_, e)| matches!(e, crate::NodeEvent::Adopted { .. }))
                .count();
            let rev = c.node(0).unwrap().registry().record("w").unwrap().rev;
            assert_eq!((adoptions, rev), (1, 3), "migrated {lead} ticks early");
        }
    }

    /// An `Undeployed` ordered while the sync that admits a restarted node
    /// is in flight stays undeployed: the sync, exported before it, must not
    /// bring the record back on every node, nor send its old home to adopt
    /// an instance whose SAN state is gone. The undeploy is ordered `k`
    /// steps after the restart, across the window in which node 0 exports
    /// the admitting view's sync.
    #[test]
    fn an_undeploy_racing_the_admission_sync_stays_undeployed() {
        for k in 0..8 {
            let mut c = cluster();
            c.deploy(workloads::web_instance("a", "web"), 1).unwrap();
            c.run_for(SimDuration::from_millis(300));
            c.crash_node(2);
            c.run_for(SimDuration::from_secs(3));
            c.restart_node(2);
            for _ in 0..k {
                c.step();
            }
            c.undeploy("web").unwrap();
            c.take_events();
            c.run_for(SimDuration::from_secs(30));
            for n in 0..3 {
                let held = c.node(n).unwrap().registry().record("web");
                assert!(held.is_none(), "k = {k}: node {n} holds {held:?}");
            }
            let failed = c
                .take_events()
                .into_iter()
                .find(|(_, e)| matches!(e, crate::NodeEvent::AdoptFailed { .. }));
            assert_eq!(failed, None, "k = {k}");
        }
    }

    #[test]
    fn events_are_tagged_with_their_node() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "w"), 1).unwrap();
        c.run_for(SimDuration::from_millis(300));
        let events = c.take_events();
        assert!(events
            .iter()
            .any(|(n, e)| *n == NodeId(1) && matches!(e, crate::NodeEvent::Deployed { .. })));
        assert!(c.take_events().is_empty(), "drained");
    }
}
