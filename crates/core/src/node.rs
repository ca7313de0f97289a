//! One node of the dependable distributed OSGi environment.

use crate::autonomic::AutonomicModule;
use crate::boot::BootKit;
use crate::events::{AdoptReason, NodeEvent};
use crate::msg::AppPayload;
use crate::placement;
use crate::registry::{self, ClusterRegistry, InstanceRecord, InstanceStatus};
use crate::CoreError;
use dosgi_gcs::{GcsConfig, GcsEvent, GcsWire, GroupNode};
use dosgi_monitor::{MonitoringModule, NodeCapacity};
use dosgi_net::{Envelope, Fabric, NodeId, SimDuration, SimTime};
use dosgi_osgi::BundleManifest;
use dosgi_policy::PolicyAction;
use dosgi_san::{RetryPolicy, SharedStore, Value};
use dosgi_telemetry::{FlightRecorder, Gauge, Phase, Phases, Telemetry, TraceContext, TraceRef};
use dosgi_vosgi::{InstanceDescriptor, InstanceManager, ResourceQuota};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The wire type carried by the cluster's network. The payload is shared:
/// an ordered message is built once by the node that orders it, and every
/// copy the group layer keeps of it — retry queue, sequencer log, one per
/// member of the fan-out, one per replay — is a reference to that one value.
pub type Wire = GcsWire<Arc<AppPayload>>;

/// A node's coarse operational state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeState {
    /// Serving normally.
    #[default]
    Running,
    /// Migrating its instances away ahead of a graceful shutdown.
    Draining,
    /// Powered down for consolidation (paper §4's green side effect).
    Hibernated,
    /// Orderly stopped (drain complete).
    Stopped,
}

/// Where a node stands in getting the registry it (re)started without.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transfer {
    /// No `Hello` ordered yet: the first tick orders one.
    Unsent,
    /// A `Hello` is out; the next stranded sweep marks it overdue.
    Sent,
    /// A stranded sweep has passed with no transfer: every sweep asks again.
    Overdue,
    /// A transfer addressed to this node has been applied, or the node
    /// booted with the group and applied its own `Hello` having missed
    /// nothing. Only such a node ships the registry to others.
    Answered,
}

/// Per-node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Group communication timing.
    pub gcs: GcsConfig,
    /// Monitoring sample period.
    pub sample_interval: SimDuration,
    /// Autonomic policy script (`None` disables the module — the E10
    /// baseline).
    pub policy: Option<String>,
    /// Autonomic evaluation period.
    pub policy_interval: SimDuration,
    /// SAN latency profile: adoption pays a read of the instance's
    /// persisted state.
    pub san: dosgi_san::SanProfile,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            gcs: GcsConfig::lan(),
            sample_interval: SimDuration::from_millis(250),
            policy: Some(crate::autonomic::DEFAULT_POLICY.to_owned()),
            policy_interval: SimDuration::from_millis(500),
            san: dosgi_san::SanProfile::fast(),
        }
    }
}

/// How often a running node looks for instances stranded on departed
/// homes (see `sweep_stranded`).
const STRANDED_SWEEP_INTERVAL: SimDuration = SimDuration::from_millis(1_000);

/// Simulated cost of installing + starting one bundle (re-materializing an
/// instance pays this per bundle; calibrated to a small 2008-era bundle
/// start).
pub const START_COST_PER_BUNDLE: SimDuration = SimDuration::from_millis(50);

/// Simulated cost of the in-place revision swap during a hot bundle upgrade
/// (manifest replacement + re-wire + activator start against already-warm
/// state). The per-upgrade blackout is this plus a SAN write of the bundle's
/// dirty state — µs-scale, as opposed to the ms-scale whole-instance
/// migration path.
const UPGRADE_SWAP_COST: SimDuration = SimDuration::from_micros(150);

/// Retry/backoff discipline for adoptions and upgrades against a faulty
/// SAN: a transient failure is retried with exponential backoff; once the
/// budget is exhausted an adoption is quarantined (kept in the registry,
/// re-claimed when the SAN heals).
const RETRY: RetryPolicy = RetryPolicy::persistence();

/// One cluster node: host OSGi framework + Instance Manager + Migration
/// Module + Monitoring Module + Autonomic Module + GCS endpoint.
pub struct DosgiNode {
    id: NodeId,
    state: NodeState,
    // Shared with every node of the cluster; holds the node configuration.
    kit: Arc<BootKit>,
    mgr: InstanceManager,
    gcs: GroupNode<Arc<AppPayload>>,
    registry: ClusterRegistry,
    monitor: MonitoringModule,
    autonomic: Option<AutonomicModule>,
    draining_peers: BTreeSet<NodeId>,
    departed_peers: BTreeSet<NodeId>,
    throttled: BTreeSet<String>,
    hibernate_when_empty: bool,
    last_sample: Option<SimTime>,
    last_sweep: Option<SimTime>,
    transfer: Transfer,
    // The SAN held this node's host state when it was created: it ran
    // before, and whatever it missed comes by transfer. True whether that
    // state was restored or, the restore failing, booted over.
    restarted: bool,
    // The wake deadline: a tick before it that finds the mailbox empty
    // returns at once. Taken at the end of every full tick
    // (`next_deadline`) and zeroed by every call that gives the next tick
    // something to do (`wake`).
    wake_at: SimTime,
    // Where a tick drains its mail: empty between ticks, kept for its
    // capacity so a non-empty mailbox costs no allocation.
    inbox: Vec<Envelope<Wire>>,
    store: SharedStore,
    pending_adoptions: Vec<PendingAdoption>,
    pending_upgrades: Vec<PendingUpgrade>,
    events: Vec<NodeEvent>,
    // Resolves the handles of instances met later.
    telemetry: Telemetry,
    metrics: Metrics,
    // The `monitor.<instance>.*` gauges, kept exactly as long as the
    // monitor keeps the instance's sampling state.
    monitor_gauges: BTreeMap<String, MonitorGauges>,
    recorder: FlightRecorder,
    // Open failover/heal claim roots, keyed by instance: minted when this
    // node orders an `Adopted` claim, closed when the claim's delivery
    // resolves the race (either way) in the total order.
    claim_traces: BTreeMap<String, TraceRef>,
    // Open `upgrade/<instance>` roots, keyed by `<instance>/<bundle>` —
    // the same discipline as `claim_traces`: minted when the upgrade is
    // requested, *reused* by every transient-fault retry, and closed
    // exactly once when the upgrade completes or fails permanently. This
    // is what keeps a SAN-faulted upgrade from leaking an open span per
    // retry.
    upgrade_traces: BTreeMap<String, TraceRef>,
    // The (ended) root of the most recent completed upgrade per instance:
    // the wave orchestrator joins its `undrain/` span to this trace so the
    // un-drain is causally ordered after the new revision's adoption.
    finished_upgrade_traces: BTreeMap<String, TraceRef>,
    // The open `shutdown`/`hibernate` root while draining; closed when the
    // drain completes.
    lifecycle_trace: TraceRef,
    // Where a tick's calls, time and allocations go; off unless a
    // profiling driver turns it on.
    phases: Phases,
}

dosgi_telemetry::metrics! {
    /// The node's telemetry handles, resolved when a registry is attached.
    struct Metrics {
        counter placement_decisions = "core.placement.decisions",
        counter registry_ops = "core.registry.ops",
        counter registry_sync_bytes = "registry.sync_bytes",
        counter registry_delta_bytes = "registry.delta_bytes",
        counter adopt_overruled = "core.adopt.overruled",
        counter upgrade_completed = "core.upgrade.completed",
        counter upgrade_retries = "core.upgrade.retries",
        counter upgrade_failed = "core.upgrade.failed",
        histogram upgrade_blackout_us = "core.upgrade.blackout_us",
        counter san_quarantines = "san.quarantines",
        counter san_retries = "san.retries",
        histogram san_retry_backoff_us = "san.retry.backoff_us",
    }
}

/// One instance's `monitor.<instance>.*` gauges.
#[derive(Debug)]
struct MonitorGauges {
    cpu_share_pm: Gauge,
    memory_bytes: Gauge,
    call_rate_mcps: Gauge,
}

#[derive(Debug, Clone)]
struct PendingAdoption {
    ready_at: SimTime,
    name: String,
    reason: AdoptReason,
    /// How many materialization attempts already failed transiently.
    attempt: u32,
    /// The causal `adopt/<name>` trace span, if the triggering control
    /// message carried a context; closed when the ticket materializes, is
    /// overruled, or quarantines.
    trace: TraceRef,
    /// The descriptor parsed when the ticket was queued and the record
    /// revision it was parsed at: materialization reuses it unless the
    /// revision moved. A retried ticket carries none and parses again.
    parsed: Option<(u64, InstanceDescriptor)>,
}

/// A queued in-place bundle upgrade: the swap happens once `ready_at`
/// passes (the modeled blackout), against the replicated-registry check
/// that the instance is still homed here.
#[derive(Debug, Clone)]
struct PendingUpgrade {
    ready_at: SimTime,
    /// The hosting instance.
    name: String,
    /// The replacement revision's manifest.
    manifest: BundleManifest,
    /// How many swap attempts already failed transiently.
    attempt: u32,
}

impl std::fmt::Debug for DosgiNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DosgiNode")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("instances", &self.mgr.len())
            .field("view", &self.gcs.view().members.len())
            .finish_non_exhaustive()
    }
}

impl DosgiNode {
    /// Creates a node from the cluster's boot kit: its host framework —
    /// restored when the SAN holds this node's host state, booted with the
    /// standard host bundles (log, HTTP, metrics) otherwise (see
    /// [`BootKit`]) — with the SAN attached and the GCS endpoint joined.
    /// `phases` counts what taking the kit and building the host cost.
    pub fn new(
        id: NodeId,
        peers: Vec<NodeId>,
        kit: &Arc<BootKit>,
        store: SharedStore,
        now: SimTime,
        phases: &Phases,
    ) -> Self {
        let taking = phases.enter(Phase::RestartKit);
        let kit = Arc::clone(kit);
        let autonomic = kit.autonomic();
        drop(taking);
        let (host, restarted) = phases.count_in(Phase::RestartHost, || {
            kit.host_framework(id, &store, phases)
        });
        let mut mgr = kit.manager(host, &store);
        mgr.set_phases(phases.clone());
        DosgiNode {
            id,
            state: NodeState::Running,
            gcs: GroupNode::new(id, peers, kit.config.gcs, now),
            kit,
            mgr,
            registry: ClusterRegistry::new(),
            monitor: MonitoringModule::new(),
            autonomic,
            draining_peers: BTreeSet::new(),
            departed_peers: BTreeSet::new(),
            throttled: BTreeSet::new(),
            hibernate_when_empty: false,
            last_sample: None,
            last_sweep: None,
            transfer: Transfer::Unsent,
            restarted,
            wake_at: SimTime::ZERO,
            inbox: Vec::new(),
            store,
            pending_adoptions: Vec::new(),
            pending_upgrades: Vec::new(),
            events: Vec::new(),
            telemetry: Telemetry::disabled(),
            metrics: Metrics::default(),
            monitor_gauges: BTreeMap::new(),
            recorder: FlightRecorder::disabled(),
            claim_traces: BTreeMap::new(),
            upgrade_traces: BTreeMap::new(),
            finished_upgrade_traces: BTreeMap::new(),
            lifecycle_trace: TraceRef::NONE,
            phases: phases.clone(),
        }
    }

    /// Attaches a telemetry handle, propagated to the GCS endpoint and
    /// the instance manager (host framework + instance frameworks).
    /// Telemetry is passive; protocol behaviour is unchanged.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.gcs.set_telemetry(telemetry.clone());
        self.mgr.set_telemetry(telemetry.clone());
        self.metrics = Metrics::new(&telemetry);
        self.monitor_gauges.clear();
        self.telemetry = telemetry;
    }

    /// Attaches a flight recorder for causal protocol tracing. Like
    /// telemetry, the recorder is strictly passive: spans are stamped from
    /// the simulated clock and a logical (Lamport) clock, never from wall
    /// time or the RNG, so protocol behaviour is bit-identical with the
    /// recorder on or off.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = recorder;
    }

    /// Counts the node's tick phases, its releases and its adoptions'
    /// restores into `phases` from now on.
    pub fn set_phases(&mut self, phases: Phases) {
        self.mgr.set_phases(phases.clone());
        self.phases = phases;
    }

    /// The node's flight recorder (disabled unless attached).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Operational state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// The node's copy of the replicated instance registry.
    pub fn registry(&self) -> &ClusterRegistry {
        &self.registry
    }

    /// Writes the registry copy past the total order (the cluster's tests).
    #[cfg(test)]
    pub(crate) fn registry_mut(&mut self) -> &mut ClusterRegistry {
        &mut self.registry
    }

    /// True until this node holds the registry: until it has applied a
    /// transfer addressed to it, or — booted with the group — its own
    /// `Hello` with nothing ordered before it.
    pub fn awaiting_transfer(&self) -> bool {
        self.transfer != Transfer::Answered
    }

    /// The node's instance manager.
    pub fn manager(&self) -> &InstanceManager {
        &self.mgr
    }

    /// Mutable instance-manager access (tests and workload drivers).
    pub fn manager_mut(&mut self) -> &mut InstanceManager {
        self.wake();
        &mut self.mgr
    }

    /// The next tick runs in full, whatever the deadline said.
    pub(crate) fn wake(&mut self) {
        self.wake_at = SimTime::ZERO;
    }

    /// Hands `payload` to the total order. This is the one place an ordered
    /// message is allocated; from here on it is shared (see [`Wire`]).
    fn order(
        &mut self,
        net: &mut impl Fabric<Wire>,
        payload: AppPayload,
        trace: Option<TraceContext>,
    ) {
        self.gcs.order_traced(net, Arc::new(payload), trace);
    }

    /// The node's monitoring module.
    pub fn monitor(&self) -> &MonitoringModule {
        &self.monitor
    }

    /// The current membership view.
    pub fn view(&self) -> &dosgi_gcs::View {
        self.gcs.view()
    }

    /// Debug visibility into the GCS endpoint: pending (unsequenced)
    /// ordered messages.
    #[doc(hidden)]
    pub fn gcs_pending(&self) -> usize {
        self.gcs.pending_orders()
    }

    /// Debug visibility into the adoption queue: the instances this node
    /// has queued for (re-)materialization.
    #[doc(hidden)]
    pub fn pending_adoptions(&self) -> impl Iterator<Item = &str> {
        self.pending_adoptions.iter().map(|p| p.name.as_str())
    }

    /// Drains accumulated node events.
    pub fn take_events(&mut self) -> Vec<NodeEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of accumulated (undrained) events. Long-running drivers use
    /// this to bound the buffer when nobody is collecting.
    pub fn events_len(&self) -> usize {
        self.events.len()
    }

    /// True if `name` is an SLA-throttled instance.
    pub fn is_throttled(&self, name: &str) -> bool {
        self.throttled.contains(name)
    }

    /// True if the instance is running locally.
    pub fn probe_local(&self, name: &str) -> bool {
        self.mgr
            .find_by_name(name)
            .and_then(|id| self.mgr.instance(id))
            .map(|i| i.is_running())
            .unwrap_or(false)
    }

    /// Calls a service of a locally running instance.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not running here;
    /// service errors otherwise.
    pub fn call_local(
        &mut self,
        name: &str,
        interface: &str,
        method: &str,
        arg: &Value,
    ) -> Result<Value, CoreError> {
        let iid = self
            .mgr
            .find_by_name(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        let reply = self.mgr.call_service(iid, interface, method, arg);
        if self.mgr.persist_dirty() {
            // A write-through failed; the tick retries it.
            self.wake();
        }
        Ok(reply?)
    }

    // ------------------------------------------------------------------
    // Cluster operations
    // ------------------------------------------------------------------

    /// Deploys a new instance locally and announces it cluster-wide.
    ///
    /// # Errors
    ///
    /// Instance-manager errors (duplicate name, unknown bundle, …).
    pub fn deploy(
        &mut self,
        descriptor: InstanceDescriptor,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) -> Result<(), CoreError> {
        self.wake();
        let name = descriptor.name.clone();
        let value = descriptor.to_value();
        let iid = self.mgr.create_instance(descriptor)?;
        self.mgr.start_instance(iid)?;
        self.order(
            net,
            AppPayload::Deployed {
                name: name.clone(),
                descriptor: Arc::new(value),
                home: self.id,
            },
            None,
        );
        self.events.push(NodeEvent::Deployed { at: now, name });
        Ok(())
    }

    /// Requests migration of a locally-placed instance to `to`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not here,
    /// [`CoreError::BadMigration`] for a self-destination.
    pub fn migrate_away(
        &mut self,
        name: &str,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
    ) -> Result<(), CoreError> {
        self.migrate_away_traced(name, to, net, TraceRef::NONE)
    }

    /// Like [`migrate_away`](Self::migrate_away) but attaching the minted
    /// `migrate/<name>` span under `parent` (a drain root, say) instead of
    /// starting a fresh trace. The span closes as soon as the `Migrate` is
    /// handed to the total order — the release and adoption phases attach
    /// to it causally via the propagated context.
    fn migrate_away_traced(
        &mut self,
        name: &str,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
        parent: TraceRef,
    ) -> Result<(), CoreError> {
        if to == self.id {
            return Err(CoreError::BadMigration("destination is the source".into()));
        }
        if self.mgr.find_by_name(name).is_none() {
            return Err(CoreError::NotPlaced(name.to_owned()));
        }
        self.wake();
        let now_us = net.now().as_micros();
        let span = if parent.is_some() {
            self.recorder
                .child_of(parent, &format!("migrate/{name}"), now_us)
        } else {
            self.recorder.root(&format!("migrate/{name}"), now_us)
        };
        let ctx = self.recorder.context(span);
        self.order(
            net,
            AppPayload::Migrate {
                name: name.to_owned(),
                from: self.id,
                to,
            },
            ctx,
        );
        self.recorder.end(span, now_us);
        Ok(())
    }

    /// Permanently removes a locally-placed instance: stops it, wipes its
    /// SAN state and announces the removal cluster-wide.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not running here.
    pub fn undeploy(&mut self, name: &str, net: &mut impl Fabric<Wire>) -> Result<(), CoreError> {
        let iid = self
            .mgr
            .find_by_name(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        self.wake();
        let _ = self.mgr.stop_instance(iid);
        self.mgr.destroy_instance(iid, true)?;
        self.forget_monitored(name);
        self.throttled.remove(name);
        self.order(
            net,
            AppPayload::Undeployed {
                name: name.to_owned(),
            },
            None,
        );
        Ok(())
    }

    /// Begins a graceful shutdown: announce draining, migrate every local
    /// instance away; once empty the node leaves the group and stops
    /// (§3.2's "normal expected shutdown" path).
    pub fn begin_shutdown(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if self.state != NodeState::Running {
            return;
        }
        self.wake();
        self.state = NodeState::Draining;
        self.events.push(NodeEvent::Draining { at: now });
        let root = self.recorder.root("shutdown", now.as_micros());
        self.lifecycle_trace = root;
        let ctx = self.recorder.context(root);
        self.order(net, AppPayload::Draining { node: self.id }, ctx);
        self.migrate_all_local(net, root);
    }

    fn migrate_all_local(&mut self, net: &mut impl Fabric<Wire>, parent: TraceRef) {
        let locals: Vec<String> = self
            .mgr
            .instances()
            .map(|i| i.descriptor.name.clone())
            .collect();
        // Ordering a migration writes no registry, so one choice holds for
        // the whole drain.
        let candidates = self.placement_candidates();
        let Some(dest) = placement::choose(&candidates, &self.registry, &BTreeMap::new()) else {
            return;
        };
        for name in locals {
            self.metrics.placement_decisions.incr();
            let _ = self.migrate_away_traced(&name, dest, net, parent);
        }
    }

    fn placement_candidates(&self) -> Vec<NodeId> {
        self.gcs
            .view()
            .members
            .iter()
            .filter(|m| **m != self.id && !self.draining_peers.contains(m))
            .copied()
            .collect()
    }

    // ------------------------------------------------------------------
    // The tick: the node's event loop
    // ------------------------------------------------------------------

    /// Processes incoming messages, runs the failure detector, samples
    /// usage and evaluates policies. The driver — the simulator's step or a
    /// real-clock worker loop — calls this as often as it likes; a call
    /// that finds no mail before the wake deadline returns at once, and is
    /// one that would have done nothing.
    pub fn tick(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if matches!(self.state, NodeState::Hibernated | NodeState::Stopped) {
            return;
        }
        let phases = self.phases.clone();
        phases.count_in(Phase::NetDrain, || net.drain(self.id, &mut self.inbox));
        if self.inbox.is_empty() && now < self.wake_at {
            return;
        }
        // Inbound messages → protocol engine.
        phases.count_in(Phase::GcsHandle, || {
            for env in self.inbox.drain(..) {
                self.gcs.handle(net, env.from, env.payload, now);
            }
        });
        phases.count_in(Phase::GcsTick, || self.gcs.tick(net, now));
        // Protocol events → migration/failover logic.
        phases.count_in(Phase::ApplyControl, || {
            for event in self.gcs.take_events() {
                self.on_gcs_event(event, net, now);
            }
            if self.transfer == Transfer::Unsent {
                self.transfer = Transfer::Sent;
                self.ask_for_registry(net, false);
            }
        });
        phases.count_in(Phase::Adopt, || self.process_pending_adoptions(net, now));
        phases.count_in(Phase::Upgrade, || self.process_pending_upgrades(now));
        phases.count_in(Phase::PersistFlush, || self.flush_deferred_persistence());
        phases.count_in(Phase::Sample, || self.sample(now));
        phases.count_in(Phase::Policy, || self.run_autonomic(net, now));
        phases.count_in(Phase::Sweep, || {
            self.sweep_stranded(net, now);
            self.check_drained(net, now);
        });
        self.wake_at = self.next_deadline(now);
    }

    /// Orders a `Hello`. The digest lets the answering peer ship a
    /// per-record delta instead of the full registry. A freshly restarted
    /// node has an empty registry, so its digest is empty and the delta
    /// degenerates to a full snapshot — same convergence, fewer bytes
    /// whenever the sender already holds current records.
    fn ask_for_registry(&mut self, net: &mut impl Fabric<Wire>, retry: bool) {
        let digest = self.registry.digest();
        self.order(
            net,
            AppPayload::Hello {
                node: self.id,
                digest,
                retry,
            },
            None,
        );
    }

    /// The earliest instant at which a tick without mail may have something
    /// to do, as things stand at the end of the tick at `now`: the group
    /// endpoint's own deadline, the first queued adoption or upgrade to
    /// come due, the next usage sample, policy evaluation and stranded
    /// sweep. `now` — tick every time — while anything is in progress that
    /// a tick advances by itself: a drain or hibernation waiting for the
    /// node to empty, persistence waiting for the SAN to answer.
    fn next_deadline(&self, now: SimTime) -> SimTime {
        if self.state != NodeState::Running || self.hibernate_when_empty || self.mgr.persist_dirty()
        {
            return now;
        }
        let after = |last: Option<SimTime>, interval| last.map_or(now, |at| at + interval);
        let mut at = self
            .gcs
            .next_deadline(now)
            .min(after(self.last_sample, self.kit.config.sample_interval))
            .min(after(self.last_sweep, STRANDED_SWEEP_INTERVAL));
        if let Some(autonomic) = &self.autonomic {
            at = at.min(autonomic.next_due());
        }
        let queued = self.pending_adoptions.iter().map(|p| p.ready_at);
        let queued = queued.chain(self.pending_upgrades.iter().map(|p| p.ready_at));
        queued.fold(at, SimTime::min)
    }

    /// Write-behind convergence: lifecycle transitions never roll back on a
    /// transient SAN failure — the framework marks its snapshot/data areas
    /// dirty instead. Each tick retries the flush (cheap no-op when nothing
    /// is dirty), gated on the SAN answering at all so a brown-out is not
    /// hammered every 5 ms.
    fn flush_deferred_persistence(&mut self) {
        if self.store.is_available() {
            self.mgr.flush_persist_all();
        }
    }

    /// Level-triggered failover: periodically claim any instance whose
    /// placement points at a node outside the current view. The
    /// edge-triggered path (view changes) catches ordinary crashes; this
    /// sweep catches the races it cannot — e.g. a `Migrate` sequenced
    /// *after* the destination's death was already processed, which leaves
    /// a record homed on a dead node with no further view change to react
    /// to. Claims stay race-free: they carry the observed dead home and
    /// the first one in the total order wins everywhere.
    fn sweep_stranded(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if self.state != NodeState::Running {
            return;
        }
        let due = self
            .last_sweep
            .map(|at| now.since(at) >= STRANDED_SWEEP_INTERVAL)
            .unwrap_or(true);
        if !due {
            return;
        }
        self.last_sweep = Some(now);
        // A joiner whose transfer has not landed asks again: the one it was
        // owed can die with a crashing sequencer or sync sender.
        match self.transfer {
            Transfer::Sent => self.transfer = Transfer::Overdue,
            Transfer::Overdue => self.ask_for_registry(net, true),
            Transfer::Unsent | Transfer::Answered => {}
        }
        let view = self.gcs.view();
        if !view.has_majority(self.gcs.universe() - self.departed_peers.len()) {
            return;
        }
        let stranded: Vec<NodeId> = {
            let mut v: Vec<NodeId> = self
                .registry
                .records()
                .flat_map(|r| {
                    let to = match r.status {
                        InstanceStatus::Migrating { to } => Some(to),
                        _ => None,
                    };
                    std::iter::once(r.home).chain(to)
                })
                .filter(|n| !view.contains(*n))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        // Also retry plain `Orphaned` records whose home is back *inside*
        // the view: a spurious suspicion (message loss) can orphan a record
        // and lose the claim in the view churn, after which the home's
        // rejoin means no further view change will ever re-trigger
        // failover. The claim rules keep this race-free — a claim against
        // an `Orphaned` record wins exactly once in the total order.
        if !stranded.is_empty() || !self.registry.orphans().is_empty() {
            self.handle_failover(&stranded, net);
        }
        self.release_handoffs_without_a_source(net);
        self.heal_quarantined(net);
    }

    /// Completes hand-offs this node was the source of but can no longer
    /// release: the record is still homed here and `Migrating` to a member,
    /// yet no local copy exists — the node crashed and restarted inside the
    /// suspicion timeout, so no view change orphans the record, and it
    /// either applied the `Migrate` without a copy to stop or learnt the
    /// record by transfer after its previous life's `Released` died with
    /// it. Ordering the `Released` lets the destination adopt from the SAN,
    /// as it would after a crash. Only with nothing of this node's own in
    /// flight — nothing unsequenced, nothing delivered but not yet applied
    /// (a sequencer delivers its own orders at once and applies them on its
    /// next tick): a `Released` it ordered itself has then been applied
    /// here, and the record no longer reads `Migrating`.
    fn release_handoffs_without_a_source(&mut self, net: &mut impl Fabric<Wire>) {
        if self.gcs.pending_orders() > 0 || self.gcs.has_events() {
            return;
        }
        let view = self.gcs.view();
        let unreleased: Vec<(String, NodeId)> = self
            .registry
            .records()
            .filter_map(|r| match r.status {
                InstanceStatus::Migrating { to }
                    if r.home == self.id
                        && view.contains(to)
                        && self.mgr.find_by_name(&r.name).is_none() =>
                {
                    Some((r.name.clone(), to))
                }
                _ => None,
            })
            .collect();
        for (name, to) in unreleased {
            self.order(net, AppPayload::Released { name, to }, None);
        }
    }

    /// The healing half of quarantine: once the SAN answers again, re-claim
    /// every quarantined instance homed here via the total order
    /// (`prior_home: self` makes the claim valid on every replica) — the
    /// winning claim flips the record back to `Placed` and the normal
    /// adoption path re-materializes the instance from the SAN.
    fn heal_quarantined(&mut self, net: &mut impl Fabric<Wire>) {
        if !self.store.is_available() {
            return;
        }
        let healable: Vec<String> = self
            .registry
            .records()
            .filter(|r| r.status == InstanceStatus::Quarantined && r.home == self.id)
            .filter(|r| !self.pending_adoptions.iter().any(|p| p.name == r.name))
            .map(|r| r.name.clone())
            .collect();
        for name in healable {
            let ctx = self.claim_context(&name, "heal", net.now().as_micros());
            self.order(
                net,
                AppPayload::Adopted {
                    name,
                    node: self.id,
                    prior_home: self.id,
                },
                ctx,
            );
        }
    }

    /// The trace context for a failover/heal claim on `name`: reuses the
    /// open claim root if an earlier claim is still unresolved (the sweep
    /// retries lost claims), otherwise mints a fresh `<kind>/<name>` root.
    fn claim_context(&mut self, name: &str, kind: &str, now_us: u64) -> Option<TraceContext> {
        let span = match self.claim_traces.get(name) {
            Some(&s) => s,
            None => {
                let s = self.recorder.root(&format!("{kind}/{name}"), now_us);
                self.claim_traces.insert(name.to_owned(), s);
                s
            }
        };
        self.recorder.context(span)
    }

    fn on_gcs_event(
        &mut self,
        event: GcsEvent<Arc<AppPayload>>,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        match event {
            GcsEvent::ViewChange { view, joined, left } => {
                self.events.push(NodeEvent::ViewChanged {
                    at: now,
                    members: view.members.clone(),
                    left: left.clone(),
                });
                // Classify departures: a node that announced Draining left
                // voluntarily and stops counting toward the quorum
                // universe; anything else is a crash.
                for l in &left {
                    if self.draining_peers.remove(l) {
                        self.departed_peers.insert(*l);
                    }
                }
                for j in &joined {
                    self.draining_peers.remove(j);
                    self.departed_peers.remove(j);
                }
                // State transfer for joiners, the one they get: the
                // lowest-id member that was *already* in the group sends its
                // registry, addressed to them (the new coordinator may well
                // be the freshly-restarted joiner, whose registry is empty).
                // A member still waiting for its own transfer has nothing to
                // ship; the joiners then ask again.
                let sync_sender = view
                    .members
                    .iter()
                    .filter(|m| !joined.contains(m))
                    .min()
                    .copied();
                if !joined.is_empty() && sync_sender == Some(self.id) && !self.awaiting_transfer() {
                    let records: Vec<InstanceRecord> = self.registry.records().cloned().collect();
                    self.metrics
                        .registry_sync_bytes
                        .add(registry::records_len(&records) as u64);
                    let sync = AppPayload::RegistrySync {
                        registry: records,
                        joined,
                    };
                    self.order(net, sync, None);
                }
                let effective_universe = self.gcs.universe() - self.departed_peers.len();
                if !left.is_empty() && view.has_majority(effective_universe) {
                    self.handle_failover(&left, net);
                }
            }
            GcsEvent::OrderedDeliver { msg, .. } => {
                // Fold the carried Lamport stamp into the local logical
                // clock even when this node opens no span of its own: a
                // later local root must still order after everything the
                // delivery happened-after.
                if let Some(ctx) = msg.trace {
                    self.recorder.observe(ctx);
                }
                self.apply_control(&msg.payload, msg.trace, net, now);
            }
        }
    }

    /// §3.2's decentralized redeployment: every survivor computes the same
    /// assignment from the same replicated registry and agreed view, then
    /// *claims* (via the total order) only the instances assigned to
    /// itself. The first claim per orphan wins on every node alike.
    fn handle_failover(&mut self, left: &[NodeId], net: &mut impl Fabric<Wire>) {
        // Claim both newly-orphaned records AND records still sitting in
        // Orphaned (an earlier claim may have been lost or overwritten):
        // the sweep retries until the registry converges.
        let mut orphans = self.registry.orphan_homes(left);
        orphans.extend(self.registry.orphans());
        orphans.sort();
        orphans.dedup();
        if orphans.is_empty() || self.state != NodeState::Running {
            return;
        }
        let candidates = {
            let mut c = self.placement_candidates();
            c.push(self.id);
            c.sort();
            c
        };
        let assignment = placement::assign_all(&orphans, &candidates, &self.registry);
        self.metrics
            .placement_decisions
            .add(assignment.len() as u64);
        for (name, dest) in assignment {
            if dest == self.id {
                let prior_home = self
                    .registry
                    .record(&name)
                    .map(|r| r.home)
                    .unwrap_or(self.id);
                let ctx = self.claim_context(&name, "failover", net.now().as_micros());
                self.order(
                    net,
                    AppPayload::Adopted {
                        name,
                        node: self.id,
                        prior_home,
                    },
                    ctx,
                );
            }
        }
    }

    fn apply_control(
        &mut self,
        payload: &AppPayload,
        trace: Option<TraceContext>,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        self.metrics.registry_ops.incr();
        // Snapshot pre-application status for claim/adoption decisions.
        let prior_status = payload
            .instance()
            .and_then(|n| self.registry.record(n))
            .map(|r| r.status);
        self.registry.apply(payload);
        match payload {
            AppPayload::Migrate { name, from, to } => {
                if *from == self.id && prior_status != Some(InstanceStatus::Orphaned) {
                    self.release_instance(name, *to, net, now, trace);
                }
            }
            AppPayload::Released { name, to } => {
                if *to == self.id && prior_status != Some(InstanceStatus::Orphaned) {
                    self.adopt(name, AdoptReason::Migration, now, trace);
                }
            }
            AppPayload::Adopted { name, node, .. } => {
                let (name, node) = (name.as_str(), *node);
                // Any delivered claim for `name` resolves the race this
                // node's own claim (if any) was part of: close its root.
                if let Some(span) = self.claim_traces.remove(name) {
                    self.recorder.end(span, now.as_micros());
                }
                // Decide by post-application state: did this claim win?
                let won = self
                    .registry
                    .record(name)
                    .map(|r| r.home == node && r.status == InstanceStatus::Placed)
                    .unwrap_or(false);
                if won {
                    if node == self.id {
                        let already_running = self
                            .mgr
                            .find_by_name(name)
                            .and_then(|i| self.mgr.instance(i))
                            .map(|i| i.is_running())
                            .unwrap_or(false);
                        if !already_running
                            && !self.pending_adoptions.iter().any(|p| p.name == name)
                        {
                            self.adopt(name, AdoptReason::Failover, now, trace);
                        }
                    } else if self.mgr.find_by_name(name).is_some() {
                        // A stale local copy (healed partition / lost
                        // race): the total order says it lives elsewhere.
                        self.drop_local(name);
                    }
                }
            }
            AppPayload::Draining { node } => {
                if *node != self.id {
                    self.draining_peers.insert(*node);
                }
            }
            AppPayload::Hello {
                node,
                digest,
                retry,
            } => {
                if *node == self.id {
                    // A first boot that followed its stream from the first
                    // message missed nothing: it booted with the group, when
                    // every registry is empty and nobody answers. (A
                    // restarted node 0 coordinates a fresh stream of its own
                    // and follows it from the start too; it is told apart by
                    // the host state it left in the SAN.)
                    if !self.restarted && self.gcs.delivered_from_start() {
                        self.transfer = Transfer::Answered;
                    }
                } else if self.gcs.view().contains(*node) && !self.awaiting_transfer() {
                    // A member that restarted under the suspicion timeout
                    // (a node outside the view is sent the sync of the view
                    // change that admits it): the lowest-id other member
                    // answers with a per-record delta against its digest,
                    // so the peer is not re-sent records it holds at the
                    // current revision. A retry is answered by every member
                    // that holds the registry, even with an empty delta, so
                    // that the asking stops; rev-gated merge-import makes
                    // the duplicates harmless.
                    let responder = self.gcs.view().members.iter().find(|m| *m != node);
                    let lowest = responder == Some(&self.id) && !self.registry.is_empty();
                    if *retry || lowest {
                        let (upserts, removes) = self.registry.export_delta(digest);
                        if *retry || !upserts.is_empty() || !removes.is_empty() {
                            self.ship_delta(net, *node, upserts, removes);
                        }
                    }
                }
            }
            AppPayload::RegistrySync { registry, joined } => {
                // Authoritative snapshot in the total order — the joiners'
                // transfer (restarts, healed minorities): everyone merges
                // the same snapshot at the same logical instant, then
                // reconciles local instances against it (partition heal).
                self.registry.import(registry);
                self.reconcile_with_registry(now);
                if joined.contains(&self.id) {
                    self.transfer = Transfer::Answered;
                }
            }
            AppPayload::RegistryDelta {
                to,
                upserts,
                removes,
            } => {
                // Ordered per-record delta: same merge semantics as a full
                // sync (rev-gated upserts, rev-equality-guarded removals),
                // applied by every member at the same logical instant.
                self.ship_what_moved(upserts, *to, net);
                self.registry.import_delta(upserts, removes);
                self.reconcile_with_registry(now);
                if *to == self.id {
                    self.transfer = Transfer::Answered;
                }
            }
            AppPayload::Quarantined { .. } => {
                // Registry bookkeeping only (done in `apply` above): the
                // quarantining node keeps its partially-restored copy
                // installed-but-stopped so the heal re-claim can restart it
                // in place.
            }
            AppPayload::Deployed { .. } | AppPayload::Undeployed { .. } => {}
        }
    }

    /// Orders a `RegistryDelta` addressed to `to`.
    fn ship_delta(
        &mut self,
        net: &mut impl Fabric<Wire>,
        to: NodeId,
        upserts: Vec<InstanceRecord>,
        removes: Vec<(String, u64)>,
    ) {
        self.metrics
            .registry_delta_bytes
            .add((registry::records_len(&upserts) + registry::removes_len(&removes)) as u64);
        let delta = AppPayload::RegistryDelta {
            to,
            upserts,
            removes,
        };
        self.order(net, delta, None);
    }

    /// A delta carries the records its addressee lacked or held older, as
    /// they stood where its sender applied the `Hello`. A write ordered
    /// between that point and the delta's own position reached every member
    /// but the addressee, which passed over a record it did not have yet;
    /// importing the delta then left it a revision behind, for good. Every
    /// member applies the same stream and sees the same gap, so the lowest
    /// member other than the addressee ships it what moved, in a delta of
    /// its own — corrected the same way should it be overtaken in turn.
    /// Nothing moved, nothing is sent. (A sync is not checked so: its
    /// addressees may be the other side of a healed partition, whose own
    /// newer records are no gap.)
    fn ship_what_moved(
        &mut self,
        shipped: &[InstanceRecord],
        to: NodeId,
        net: &mut impl Fabric<Wire>,
    ) {
        let sender = self.gcs.view().members.iter().find(|m| **m != to);
        if sender != Some(&self.id) || self.awaiting_transfer() {
            return;
        }
        let (upserts, removes) = self.registry.moved_since(shipped);
        if !upserts.is_empty() || !removes.is_empty() {
            self.ship_delta(net, to, upserts, removes);
        }
    }

    /// Destroys a stale local copy (keeping the SAN state — the instance
    /// lives on elsewhere).
    fn drop_local(&mut self, name: &str) {
        if let Some(iid) = self.mgr.find_by_name(name) {
            let _ = self.mgr.stop_instance(iid);
            let _ = self.mgr.destroy_instance(iid, false);
        }
        self.forget_monitored(name);
        self.throttled.remove(name);
    }

    /// After importing an authoritative registry snapshot, converge the
    /// local state to it in both directions: local copies the registry
    /// homes elsewhere are stale and dropped; instances the registry homes
    /// *here* but that are not running locally are (re-)adopted from the
    /// SAN. The second direction is what makes merge-time sync storms
    /// self-healing: whatever snapshot ends up last in the total order,
    /// its designated home re-materializes the instance.
    fn reconcile_with_registry(&mut self, now: SimTime) {
        let stale: Vec<String> = self
            .mgr
            .instances()
            .map(|i| &i.descriptor.name)
            .filter(|name| {
                // An instance with no record at all is kept: it may be a
                // local deploy whose `Deployed` is still in flight.
                self.registry
                    .record(name)
                    .map(|r| r.home != self.id)
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        for name in stale {
            self.drop_local(&name);
        }
        let missing: Vec<String> = self
            .registry
            .records()
            .filter(|r| {
                r.home == self.id
                    && r.status == InstanceStatus::Placed
                    && !self.probe_local(&r.name)
                    && !self.pending_adoptions.iter().any(|p| p.name == r.name)
            })
            .map(|r| r.name.clone())
            .collect();
        for name in missing {
            self.adopt(&name, AdoptReason::Failover, now, None);
        }
    }

    fn release_instance(
        &mut self,
        name: &str,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
        ctx: Option<TraceContext>,
    ) {
        let Some(iid) = self.mgr.find_by_name(name) else {
            return;
        };
        let phases = self.phases.clone();
        let _releasing = phases.enter(Phase::Release);
        let now_us = now.as_micros();
        let rel = match ctx {
            Some(c) => self.recorder.child(c, &format!("release/{name}"), now_us),
            None => TraceRef::NONE,
        };
        // Quiesce: stop the instance (in-flight work completes — the sim's
        // stop is synchronous, so this phase costs no simulated time).
        let quiesce = self
            .recorder
            .child_of(rel, &format!("quiesce/{name}"), now_us);
        let _ = self.mgr.stop_instance(iid);
        self.recorder.end(quiesce, now_us);
        // Persist: tear down the local copy, flushing its state to the SAN
        // (kept — the instance lives on at the destination).
        let persist = self
            .recorder
            .child_of(rel, &format!("persist/{name}"), now_us);
        let _ = self.mgr.destroy_instance(iid, false);
        self.recorder.end(persist, now_us);
        self.forget_monitored(name);
        self.throttled.remove(name);
        self.events.push(NodeEvent::Released {
            at: now,
            name: name.to_owned(),
            to,
        });
        // Close the release span *before* exporting the context the
        // `Released` order carries: the destination's adopt span then
        // starts strictly Lamport-after the release ended — the invariant
        // trace_check's adopt-before-release detector leans on.
        self.recorder.end(rel, now_us);
        let released_ctx = self.recorder.context(rel);
        self.order(
            net,
            AppPayload::Released {
                name: name.to_owned(),
                to,
            },
            released_ctx,
        );
    }

    /// Queues an adoption: re-materializing an instance costs simulated
    /// time — a SAN read of its persisted state plus a start cost per
    /// bundle. §3.2: *"The cost of this operation is therefore comparable
    /// to a normal startup of the platform, probably less, as we already
    /// have the basic services deployed on the underlying framework."*
    /// A pre-created hot standby (see [`crate::replication`]) skips the
    /// install half and pays only the start cost.
    fn adopt(&mut self, name: &str, reason: AdoptReason, now: SimTime, ctx: Option<TraceContext>) {
        let Some(rec) = self.registry.record(name) else {
            return;
        };
        let rev = rec.rev;
        let descriptor = match InstanceDescriptor::from_value(&rec.descriptor) {
            Ok(d) => d,
            Err(e) => {
                self.events.push(NodeEvent::AdoptFailed {
                    at: now,
                    name: name.to_owned(),
                    error: e,
                });
                return;
            }
        };
        let state_bytes = self
            .store
            .namespace_bytes_prefixed(&descriptor.state_namespace());
        let bundles = descriptor.bundles.len() as u64;
        let standby = self.mgr.find_by_name(name).is_some();
        let cost = if standby {
            // Bundles already installed: pay only the start sweep.
            (START_COST_PER_BUNDLE / 2) * bundles
        } else {
            self.kit.config.san.read_cost(state_bytes) + START_COST_PER_BUNDLE * bundles
        };
        let trace = match ctx {
            Some(c) => self
                .recorder
                .child(c, &format!("adopt/{name}"), now.as_micros()),
            None => TraceRef::NONE,
        };
        self.pending_adoptions.push(PendingAdoption {
            ready_at: now + cost,
            name: name.to_owned(),
            reason,
            attempt: 0,
            trace,
            parsed: Some((rev, descriptor)),
        });
    }

    fn process_pending_adoptions(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        // Nothing due: nothing moves and nothing is allocated.
        let due: Vec<PendingAdoption> = self
            .pending_adoptions
            .extract_if(.., |p| p.ready_at <= now)
            .collect();
        for mut p in due {
            // A queued adoption can be invalidated by messages ordered
            // *after* it was queued: a replayed snapshot may have enqueued
            // it, then a later claim re-homed the instance elsewhere (or an
            // undeploy removed it). Materializing a stale ticket would
            // create a second live copy, so re-check the replicated
            // registry at materialization time and drop tickets the total
            // order has since overruled.
            let still_ours = self
                .registry
                .record(&p.name)
                .map(|r| r.home == self.id && r.status == InstanceStatus::Placed)
                .unwrap_or(false);
            if !still_ours {
                self.recorder.end(p.trace, now.as_micros());
                self.metrics.adopt_overruled.incr();
                continue;
            }
            let outcome = match self.mgr.find_by_name(&p.name) {
                // Hot standby or a previous partially-restored attempt:
                // already installed, just (re)start it.
                Some(iid) => self.mgr.start_instance(iid).map(|_| iid),
                None => {
                    let Some(rec) = self.registry.record(&p.name) else {
                        self.recorder.end(p.trace, now.as_micros());
                        continue;
                    };
                    let descriptor = match p.parsed.take() {
                        Some((rev, d)) if rev == rec.rev => Ok(d),
                        _ => InstanceDescriptor::from_value(&rec.descriptor),
                    };
                    match descriptor {
                        Ok(d) => self.mgr.adopt_instance(d),
                        Err(e) => {
                            self.recorder.end(p.trace, now.as_micros());
                            self.events.push(NodeEvent::AdoptFailed {
                                at: now,
                                name: p.name,
                                error: e,
                            });
                            continue;
                        }
                    }
                }
            };
            match outcome {
                Ok(iid) => {
                    // Verify the adoption: activator failures during restore
                    // are swallowed (one bad bundle must not block the
                    // rest), so a transient SAN read
                    // during state recovery leaves autostart bundles dead
                    // while the instance *looks* adopted. Such a partial
                    // re-materialization is a failed adoption: stop it
                    // (keeping it installed — the retry restarts in place,
                    // re-running the activators against the SAN) and go
                    // through the same retry/quarantine discipline.
                    let degraded = self
                        .mgr
                        .instance(iid)
                        .map(|i| !i.framework().degraded_bundles().is_empty())
                        .unwrap_or(false);
                    if degraded {
                        let _ = self.mgr.stop_instance(iid);
                        self.retry_or_quarantine(
                            p,
                            "partial restore: autostart bundles failed to start".to_owned(),
                            true,
                            net,
                            now,
                        );
                    } else {
                        self.recorder.end(p.trace, now.as_micros());
                        self.events.push(NodeEvent::Adopted {
                            at: now,
                            name: p.name,
                            reason: p.reason,
                        });
                    }
                }
                Err(e) => {
                    let transient = e.is_transient_store();
                    self.retry_or_quarantine(p, e.to_string(), transient, net, now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // In-place bundle upgrades (hot swap)
    // ------------------------------------------------------------------

    /// Requests an in-place upgrade of the bundle named by
    /// `manifest.symbolic_name` inside local instance `name`. The swap is
    /// queued for the modeled blackout window — a SAN write of the bundle's
    /// persisted state plus a fixed revision-swap cost (150 µs) — and lands on
    /// a subsequent tick; the instance keeps serving its *other* bundles
    /// throughout, and the old revision keeps serving until the swap
    /// instant. Completion is observable as [`NodeEvent::BundleUpgraded`].
    ///
    /// Re-requesting while an earlier attempt is still retrying reuses the
    /// open `upgrade/<name>` trace root (the `claim_traces` discipline), so
    /// SAN-faulted upgrades never leak spans.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not running here.
    pub fn request_upgrade(
        &mut self,
        name: &str,
        manifest: BundleManifest,
        now: SimTime,
    ) -> Result<(), CoreError> {
        let Some(iid) = self.mgr.find_by_name(name) else {
            return Err(CoreError::NotPlaced(name.to_owned()));
        };
        self.wake();
        let sn = manifest.symbolic_name.to_string();
        let now_us = now.as_micros();
        let key = format!("{name}/{sn}");
        if !self.upgrade_traces.contains_key(&key) {
            let root = self.recorder.root(&format!("upgrade/{name}"), now_us);
            self.upgrade_traces.insert(key, root);
        }
        let state_bytes = self
            .mgr
            .instance(iid)
            .map(|i| {
                let ns = i.descriptor.state_namespace();
                self.store
                    .namespace_bytes_prefixed(&format!("{ns}/data/{sn}"))
            })
            .unwrap_or(0);
        let blackout = self.kit.config.san.write_cost(state_bytes) + UPGRADE_SWAP_COST;
        self.pending_upgrades.push(PendingUpgrade {
            ready_at: now + blackout,
            name: name.to_owned(),
            manifest,
            attempt: 0,
        });
        Ok(())
    }

    /// Number of upgrades still queued (pending or in backoff).
    pub fn pending_upgrades(&self) -> usize {
        self.pending_upgrades.len()
    }

    /// The trace context of the most recent *completed* upgrade of an
    /// instance hosted here — the hook the rolling-upgrade wave uses to
    /// attach its `undrain/` span causally after the new revision's
    /// adoption.
    pub fn upgrade_trace_context(&self, name: &str) -> Option<TraceContext> {
        self.finished_upgrade_traces
            .get(name)
            .and_then(|&root| self.recorder.context(root))
    }

    fn process_pending_upgrades(&mut self, now: SimTime) {
        let due: Vec<PendingUpgrade> = self
            .pending_upgrades
            .extract_if(.., |p| p.ready_at <= now)
            .collect();
        for p in due {
            let sn = p.manifest.symbolic_name.to_string();
            let key = format!("{}/{}", p.name, sn);
            let now_us = now.as_micros();
            // The instance may have migrated away or crashed between the
            // request and the swap instant: abandon the ticket cleanly.
            let Some(iid) = self.mgr.find_by_name(&p.name) else {
                if let Some(root) = self.upgrade_traces.remove(&key) {
                    self.recorder.end(root, now_us);
                }
                self.events.push(NodeEvent::UpgradeFailed {
                    at: now,
                    name: p.name,
                    bundle: sn,
                    error: "instance no longer placed here".to_owned(),
                });
                continue;
            };
            let state_bytes = self
                .mgr
                .instance(iid)
                .map(|i| {
                    let ns = i.descriptor.state_namespace();
                    self.store
                        .namespace_bytes_prefixed(&format!("{ns}/data/{sn}"))
                })
                .unwrap_or(0);
            let persist_cost = self.kit.config.san.write_cost(state_bytes);
            let blackout = persist_cost + UPGRADE_SWAP_COST;
            match self.mgr.upgrade_bundle(iid, &sn, p.manifest.clone()) {
                Ok(report) => {
                    // Stamp the handoff phases under the upgrade root with
                    // their modeled µs offsets: quiesce is synchronous,
                    // persist pays the SAN write, the new revision's adopt
                    // starts strictly after persist ends (the ordering
                    // trace_check's upgrade rules pin).
                    let root = self.upgrade_traces.remove(&key).unwrap_or(TraceRef::NONE);
                    let q = self
                        .recorder
                        .child_of(root, &format!("u_quiesce/{sn}"), now_us);
                    self.recorder.end(q, now_us);
                    let persist_end = now_us + persist_cost.as_micros();
                    let pr = self
                        .recorder
                        .child_of(root, &format!("u_persist/{sn}"), now_us);
                    self.recorder.end(pr, persist_end);
                    let adopt_end = now_us + blackout.as_micros();
                    let a = self
                        .recorder
                        .child_of(root, &format!("u_adopt/{sn}"), persist_end);
                    self.recorder.end(a, adopt_end);
                    self.recorder.end(root, adopt_end);
                    self.finished_upgrade_traces.insert(p.name.clone(), root);
                    self.metrics.upgrade_completed.incr();
                    self.metrics
                        .upgrade_blackout_us
                        .record(blackout.as_micros());
                    self.events.push(NodeEvent::BundleUpgraded {
                        at: now,
                        name: p.name,
                        bundle: sn,
                        from: report.from,
                        to: report.to,
                        blackout,
                    });
                }
                Err(e) => {
                    let failures = p.attempt + 1;
                    if e.is_transient_store() && !RETRY.exhausted(failures) {
                        // The framework rolled the old revision back; it
                        // keeps serving during the backoff. The upgrade
                        // root stays OPEN in `upgrade_traces` — the retry
                        // continues the same trace instead of minting (and
                        // leaking) a new root per attempt.
                        let backoff = RETRY.backoff(p.attempt);
                        self.metrics.upgrade_retries.incr();
                        self.events.push(NodeEvent::UpgradeRetried {
                            at: now,
                            name: p.name.clone(),
                            bundle: sn,
                            attempt: p.attempt,
                            error: e.to_string(),
                        });
                        self.pending_upgrades.push(PendingUpgrade {
                            ready_at: now + backoff,
                            attempt: failures,
                            ..p
                        });
                    } else {
                        if let Some(root) = self.upgrade_traces.remove(&key) {
                            self.recorder.end(root, now_us);
                        }
                        self.metrics.upgrade_failed.incr();
                        self.events.push(NodeEvent::UpgradeFailed {
                            at: now,
                            name: p.name,
                            bundle: sn,
                            error: e.to_string(),
                        });
                    }
                }
            }
        }
    }

    /// A materialization attempt failed. Transient failures are retried
    /// with exponential backoff + jitter on the simulated clock until the
    /// [`RetryPolicy`](dosgi_san::RetryPolicy) is exhausted, at which point
    /// the instance is **quarantined** — announced cluster-wide so every
    /// registry marks it down-but-owned — rather than panicking the node or
    /// flapping forever. Non-transient failures (corrupt snapshot, unknown
    /// bundle) surface immediately as `AdoptFailed`.
    fn retry_or_quarantine(
        &mut self,
        p: PendingAdoption,
        error: String,
        transient: bool,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        if !transient {
            self.recorder.end(p.trace, now.as_micros());
            self.events.push(NodeEvent::AdoptFailed {
                at: now,
                name: p.name,
                error,
            });
            return;
        }
        let failures = p.attempt + 1;
        if RETRY.exhausted(failures) {
            self.metrics.san_quarantines.incr();
            self.events.push(NodeEvent::Quarantined {
                at: now,
                name: p.name.clone(),
            });
            // The quarantine announcement continues the adoption's trace:
            // the eventual heal re-claim starts a new root, but this stamps
            // where the causal chain ended.
            let ctx = self.recorder.context(p.trace);
            self.recorder.end(p.trace, now.as_micros());
            self.order(
                net,
                AppPayload::Quarantined {
                    name: p.name,
                    node: self.id,
                },
                ctx,
            );
            return;
        }
        let backoff = RETRY.backoff(p.attempt);
        self.metrics.san_retries.incr();
        self.metrics
            .san_retry_backoff_us
            .record(backoff.as_micros());
        self.events.push(NodeEvent::AdoptRetried {
            at: now,
            name: p.name.clone(),
            attempt: p.attempt,
            error,
        });
        self.pending_adoptions.push(PendingAdoption {
            ready_at: now + backoff,
            name: p.name,
            reason: p.reason,
            attempt: failures,
            trace: p.trace,
            parsed: None,
        });
    }

    // ------------------------------------------------------------------
    // Monitoring + autonomic
    // ------------------------------------------------------------------

    fn forget_monitored(&mut self, name: &str) {
        self.monitor.forget(name);
        self.monitor_gauges.remove(name);
    }

    fn sample(&mut self, now: SimTime) {
        let due = self
            .last_sample
            .map(|at| now.since(at) >= self.kit.config.sample_interval)
            .unwrap_or(true);
        if !due {
            return;
        }
        self.last_sample = Some(now);
        for instance in self.mgr.instances() {
            let name = instance.descriptor.name.as_str();
            // Bridge the monitor's windowed series into the telemetry
            // registry as per-instance gauges. Integer-scaled from the raw
            // window counters (never through the f64 series) so snapshot
            // bytes stay deterministic: CPU share in per-mille of one core,
            // call rate in milli-calls per second.
            if let Some(w) = self.monitor.record(name, now, instance.usage()) {
                let window_us = w.window.as_micros().max(1);
                let cpu_pm = w.cpu.as_micros().saturating_mul(1000) / window_us;
                let call_mcps = w.calls.saturating_mul(1_000_000_000) / window_us;
                let t = &self.telemetry;
                let gauges = match self.monitor_gauges.get(name) {
                    Some(gauges) => gauges,
                    None => self
                        .monitor_gauges
                        .entry(name.to_owned())
                        .or_insert(MonitorGauges {
                            cpu_share_pm: t
                                .gauge_handle(format_args!("monitor.{name}.cpu_share_pm")),
                            memory_bytes: t
                                .gauge_handle(format_args!("monitor.{name}.memory_bytes")),
                            call_rate_mcps: t
                                .gauge_handle(format_args!("monitor.{name}.call_rate_mcps")),
                        }),
                };
                gauges.cpu_share_pm.set(cpu_pm as i64);
                gauges.memory_bytes.set(w.memory as i64);
                gauges.call_rate_mcps.set(call_mcps as i64);
            }
        }
    }

    fn run_autonomic(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        let Some(autonomic) = &mut self.autonomic else {
            return;
        };
        if !autonomic.due(now) || self.state != NodeState::Running {
            return;
        }
        let quotas: BTreeMap<&str, ResourceQuota> = self
            .mgr
            .instances()
            .map(|i| (i.descriptor.name.as_str(), i.descriptor.quota))
            .collect();
        let view = self.gcs.view();
        let node_count = view.members.len();
        let node_rank = view.members.iter().position(|m| *m == self.id).unwrap_or(0);
        let decisions = autonomic.evaluate(
            now,
            &self.monitor,
            &quotas,
            &NodeCapacity::standard(),
            node_count,
            node_rank,
        );
        for decision in decisions {
            self.events.push(NodeEvent::PolicyFired {
                at: now,
                decision: decision.clone(),
            });
            self.execute(decision.action, net, now);
        }
    }

    fn execute(&mut self, action: PolicyAction, net: &mut impl Fabric<Wire>, now: SimTime) {
        match action {
            PolicyAction::Migrate { subject } => {
                let candidates = self.placement_candidates();
                if let Some(dest) = placement::choose(&candidates, &self.registry, &BTreeMap::new())
                {
                    let _ = self.migrate_away(&subject, dest, net);
                }
            }
            PolicyAction::Stop { subject } => {
                if let Some(iid) = self.mgr.find_by_name(&subject) {
                    let _ = self.mgr.stop_instance(iid);
                }
            }
            PolicyAction::Restart { subject } => {
                if let Some(iid) = self.mgr.find_by_name(&subject) {
                    let _ = self.mgr.stop_instance(iid);
                    let _ = self.mgr.start_instance(iid);
                }
            }
            PolicyAction::Throttle { subject } => {
                self.throttled.insert(subject);
            }
            PolicyAction::HibernateNode => {
                // Announce the drain so peers stop placing instances here,
                // migrate everything away, then hibernate once empty AND
                // once every pending ordered message has been sequenced
                // (check_drained gates on both).
                self.hibernate_when_empty = true;
                let root = self.recorder.root("hibernate", now.as_micros());
                self.lifecycle_trace = root;
                let ctx = self.recorder.context(root);
                self.order(net, AppPayload::Draining { node: self.id }, ctx);
                self.migrate_all_local(net, root);
            }
            PolicyAction::Custom { name, .. } if name == "migrate_all" => {
                self.migrate_all_local(net, TraceRef::NONE);
            }
            PolicyAction::WakeNode
            | PolicyAction::ScaleOut
            | PolicyAction::ShedClass { .. }
            | PolicyAction::UpgradeWave
            | PolicyAction::Alert { .. }
            | PolicyAction::Custom { .. } => {
                // Alerts are visible through the PolicyFired event; wake,
                // scale-out, class shedding and upgrade waves are
                // cluster-level operations (the driver reacts — e.g. E15
                // wakes a standby replica or flips the admission layer's
                // shed switch, E14 starts a rolling `UpgradeWave`).
            }
        }
    }

    fn hibernate(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        self.gcs.leave(net);
        self.state = NodeState::Hibernated;
        self.recorder.end(self.lifecycle_trace, now.as_micros());
        self.lifecycle_trace = TraceRef::NONE;
        self.events.push(NodeEvent::Hibernated { at: now });
    }

    fn check_drained(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        // Leaving before our last control messages (Released!) are
        // sequenced would strand the instances we just handed off.
        let flushed = self.gcs.pending_orders() == 0;
        if self.state == NodeState::Draining && self.mgr.is_empty() && flushed {
            self.gcs.leave(net);
            self.state = NodeState::Stopped;
            self.recorder.end(self.lifecycle_trace, now.as_micros());
            self.lifecycle_trace = TraceRef::NONE;
            self.events.push(NodeEvent::Drained { at: now });
        }
        if self.hibernate_when_empty
            && self.mgr.is_empty()
            && flushed
            && self.state == NodeState::Running
        {
            self.hibernate_when_empty = false;
            self.hibernate(net, now);
        }
    }
}
