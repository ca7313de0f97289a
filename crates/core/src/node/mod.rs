//! One node of the dependable distributed OSGi environment: the paper's
//! Instance Manager, Migration Module, Monitoring Module and Autonomic
//! Module over a GCS endpoint. `DosgiNode` is one struct; each of its
//! machines is a file of `impl DosgiNode` holding that machine's
//! transitions, with its state, transitions and invariant in the file's
//! module doc:
//!
//! - `transfer`: getting the registry a node (re)started without;
//! - `handoff`: a migration's two ends, and the drain that ends a node's
//!   life in `Stopped` or `Hibernated`;
//! - `adoption`: the adoption tickets, the failover and heal claims, and
//!   the sweeps that keep the local copies converged on the registry;
//! - `hot_swap`: the queue of in-place bundle upgrades;
//! - `policy`: the watch records, sampling and the autonomic pass.
//!
//! This file holds the struct, its construction and accessors, the two
//! things two machines share — the retry tickets (adoptions and upgrades)
//! and the open trace roots (claims and upgrades) — the tick that runs the
//! machines in order, the wake deadline, and the dispatch of each ordered
//! message to its machine.

mod adoption;
mod handoff;
mod hot_swap;
mod policy;
mod transfer;

use crate::autonomic::AutonomicModule;
use crate::boot::BootKit;
use crate::events::{AdoptReason, NodeEvent};
use crate::msg::AppPayload;
use crate::registry::{ClusterRegistry, InstanceStatus};
use crate::watch::{Watch, Watched};
use crate::CoreError;
use adoption::Adoption;
use dosgi_gcs::{GcsConfig, GcsEvent, GcsWire, GroupNode, View};
use dosgi_net::{Envelope, Fabric, NodeId, SimDuration, SimTime};
use dosgi_osgi::BundleManifest;
use dosgi_san::{RetryPolicy, SharedStore, Value};
use dosgi_telemetry::{FlightRecorder, Phase, Phases, SpanName, Telemetry, TraceContext, TraceRef};
use dosgi_vosgi::{InstanceDescriptor, InstanceId, InstanceManager, SecurityPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use transfer::Transfer;

/// The wire type carried by the cluster's network. The payload is shared:
/// an ordered message is built once by the node that orders it, and every
/// copy the group layer keeps of it — retry queue, sequencer log, one per
/// member of the fan-out, one per replay — is a reference to that one value.
pub type Wire = GcsWire<Rc<AppPayload>>;

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

/// Simulated cost of installing + starting one bundle (re-materializing an
/// instance pays this per bundle; calibrated to a small 2008-era bundle
/// start).
pub const START_COST_PER_BUNDLE: SimDuration = SimDuration::from_millis(50);

/// How often a running node looks for instances stranded on departed
/// homes (see `sweep_stranded`).
const STRANDED_SWEEP_INTERVAL: SimDuration = SimDuration::from_millis(1_000);

/// Retry/backoff discipline for adoptions and upgrades against a faulty
/// SAN: a transient failure is retried with exponential backoff; once the
/// budget is exhausted an adoption is quarantined (kept in the registry,
/// re-claimed when the SAN heals) and an upgrade fails.
const RETRY: RetryPolicy = RetryPolicy::persistence();

/// The bytes the SAN holds in the namespace `ns` writes out and under it.
/// The namespace is written on the stack, as `osgi::persist`'s row keys
/// are, when it fits in 128 bytes (an instance's does for any name up to
/// about a hundred bytes): sizing an instance's state builds no string.
fn namespace_bytes(store: &SharedStore, ns: impl std::fmt::Display) -> u64 {
    use std::io::Write as _;
    let mut bytes = [0u8; 128];
    let mut out = &mut bytes[..];
    if write!(out, "{ns}").is_err() {
        return store.namespace_bytes_prefixed(&ns.to_string());
    }
    let free = out.len();
    let ns = std::str::from_utf8(&bytes[..bytes.len() - free]).expect("written from text");
    store.namespace_bytes_prefixed(ns)
}

/// One cluster node: host OSGi framework + Instance Manager + Migration
/// Module + Monitoring Module + Autonomic Module + GCS endpoint.
pub struct DosgiNode {
    id: NodeId,
    state: NodeState,
    // Shared with every node of the cluster; holds the node configuration.
    kit: Rc<BootKit>,
    mgr: InstanceManager,
    gcs: GroupNode<Rc<AppPayload>>,
    registry: ClusterRegistry,
    // One watch record per local instance: its window, gauges and policy
    // streaks. Brought up to the instance manager when its lifecycle
    // epoch has moved since `watched_at`; a departure drops its record at
    // once (`forget_local`).
    watched: Watched,
    watched_at: Option<u64>,
    autonomic: Option<AutonomicModule>,
    draining_peers: BTreeSet<NodeId>,
    departed_peers: BTreeSet<NodeId>,
    throttled: BTreeSet<String>,
    // Where the node's drain ends, and its open `shutdown`/`hibernate`
    // root; `None` while the node is not draining.
    drain: Option<Drain>,
    // When the next usage sample and stranded sweep are due: an interval
    // after the last one, at once for the first.
    sample_due: SimTime,
    sweep_due: SimTime,
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
    // Where a tick takes the group endpoint's events, swapped with its
    // queue: empty between ticks, kept for its capacity like the inbox.
    gcs_events: Vec<GcsEvent<Rc<AppPayload>>>,
    store: SharedStore,
    adoptions: Tickets<Adoption>,
    upgrades: Tickets<BundleManifest>,
    events: Vec<NodeEvent>,
    // Resolves the handles of instances met later.
    telemetry: Telemetry,
    metrics: Metrics,
    recorder: FlightRecorder,
    // Open failover/heal claim roots, keyed by instance: opened when this
    // node orders an `Adopted` claim, reused by the sweep's retries, ended
    // when a claim's delivery resolves the race (either way) in the total
    // order.
    claim_roots: OpenRoots<Arc<str>>,
    // Open `upgrade/<instance>` roots, keyed by instance and bundle:
    // opened when the upgrade is requested, reused by every re-request
    // and transient-fault retry, ended when the upgrade completes or
    // fails. This is what keeps a SAN-faulted upgrade from leaking an open
    // span per retry.
    upgrade_roots: OpenRoots<(Arc<str>, String)>,
    // The (ended) root of the most recent completed upgrade per instance:
    // the wave orchestrator joins its `undrain/` span to this trace so the
    // un-drain is causally ordered after the new revision's adoption.
    finished_upgrade_traces: BTreeMap<Arc<str>, TraceRef>,
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

/// Queued work on a named instance — an adoption or an upgrade — due at
/// `ready_at` and retried under [`RETRY`] after each transient failure.
/// `name` is the registry record's, shared.
struct Ticket<W> {
    ready_at: SimTime,
    name: Arc<str>,
    /// How many attempts already failed transiently.
    attempt: u32,
    work: W,
}

/// A queue of tickets.
struct Tickets<W>(Vec<Ticket<W>>);

impl<W> Tickets<W> {
    /// Queues a first attempt at `work` on `name`, due at `ready_at`.
    fn push(&mut self, ready_at: SimTime, name: Arc<str>, work: W) {
        self.0.push(Ticket {
            ready_at,
            name,
            attempt: 0,
            work,
        });
    }

    /// Takes the first ticket, in queue order, due at `now`. A ticket
    /// queued again meanwhile comes due a backoff later, so taking until
    /// `None` takes, in order, every ticket that was due; nothing is
    /// allocated.
    fn take_due(&mut self, now: SimTime) -> Option<Ticket<W>> {
        let due = self.0.iter().position(|t| t.ready_at <= now)?;
        Some(self.0.remove(due))
    }

    /// Queues `ticket` again after its attempt failed transiently, due
    /// [`RETRY`]'s backoff for that attempt from `now`, and returns the
    /// queued ticket's name, the failed attempt and the backoff. Once the
    /// retry budget is exhausted the ticket is handed back instead.
    fn retry(
        &mut self,
        mut ticket: Ticket<W>,
        now: SimTime,
    ) -> Result<(&Arc<str>, u32, SimDuration), Ticket<W>> {
        let failed = ticket.attempt;
        if RETRY.exhausted(failed + 1) {
            return Err(ticket);
        }
        let backoff = RETRY.backoff(failed);
        ticket.ready_at = now + backoff;
        ticket.attempt = failed + 1;
        self.0.push(ticket);
        let queued = &self.0[self.0.len() - 1];
        Ok((&queued.name, failed, backoff))
    }

    /// True if a ticket for `name` is queued.
    fn holds(&self, name: &str) -> bool {
        self.0.iter().any(|t| *t.name == *name)
    }

    /// The earlier of `at` and the instant the first ticket comes due.
    fn due_by(&self, at: SimTime) -> SimTime {
        self.0.iter().map(|t| t.ready_at).fold(at, SimTime::min)
    }
}

/// Trace roots kept open across retries, keyed by what they trace: the
/// first attempt opens one, every later attempt reuses it, and it is
/// taken out once, to be ended.
struct OpenRoots<K>(BTreeMap<K, TraceRef>);

impl<K: Ord> OpenRoots<K> {
    /// The open root for `key`; one named `name` is opened at `now_us` if
    /// there is none.
    fn open(&mut self, recorder: &FlightRecorder, key: K, name: SpanName, now_us: u64) -> TraceRef {
        *self
            .0
            .entry(key)
            .or_insert_with(|| recorder.root(name, now_us))
    }

    /// Takes `key`'s root out, [`TraceRef::NONE`] if none is open.
    fn take<Q: Ord + ?Sized>(&mut self, key: &Q) -> TraceRef
    where
        K: std::borrow::Borrow<Q>,
    {
        self.0.remove(key).unwrap_or(TraceRef::NONE)
    }
}

/// A drain under way: the state it ends in (`Stopped` after a shutdown,
/// `Hibernated` after consolidation) and its open root.
#[derive(Clone, Copy)]
struct Drain {
    end: NodeState,
    root: TraceRef,
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
        kit: &Rc<BootKit>,
        store: SharedStore,
        now: SimTime,
        phases: &Phases,
    ) -> Self {
        let taking = phases.enter(Phase::RestartKit);
        let kit = Rc::clone(kit);
        let autonomic = kit.autonomic();
        drop(taking);
        let (host, restarted) = phases.count_in(Phase::RestartHost, || {
            kit.host_framework(id, &store, phases)
        });
        let mut mgr = kit.manager(host, &store);
        mgr.set_phases(phases.clone());
        let mut gcs = GroupNode::new(id, peers, kit.config.gcs, now);
        gcs.set_phases(phases.clone());
        DosgiNode {
            id,
            state: NodeState::Running,
            gcs,
            kit,
            mgr,
            registry: ClusterRegistry::new(),
            watched: Watched::new(),
            watched_at: None,
            autonomic,
            draining_peers: BTreeSet::new(),
            departed_peers: BTreeSet::new(),
            throttled: BTreeSet::new(),
            drain: None,
            sample_due: SimTime::ZERO,
            sweep_due: SimTime::ZERO,
            transfer: Transfer::Unsent,
            restarted,
            wake_at: SimTime::ZERO,
            inbox: Vec::new(),
            gcs_events: Vec::new(),
            store,
            adoptions: Tickets(Vec::new()),
            upgrades: Tickets(Vec::new()),
            events: Vec::new(),
            telemetry: Telemetry::disabled(),
            metrics: Metrics::default(),
            recorder: FlightRecorder::disabled(),
            claim_roots: OpenRoots(BTreeMap::new()),
            upgrade_roots: OpenRoots(BTreeMap::new()),
            finished_upgrade_traces: BTreeMap::new(),
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
        self.watched.iter_mut().for_each(Watch::unpublish);
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

    /// Counts the node's tick phases, its releases, its adoptions'
    /// restores and its local calls into `phases` from now on.
    pub fn set_phases(&mut self, phases: Phases) {
        self.gcs.set_phases(phases.clone());
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

    /// Starts new change logs of the registry copy and of the instance
    /// manager ([`ClusterRegistry::changed`],
    /// [`InstanceManager::changed`]).
    pub(crate) fn clear_changed(&mut self) {
        self.registry.clear_changed();
        self.mgr.clear_changed();
    }

    /// True until this node holds the registry: until it has applied a
    /// transfer addressed to it, or — booted with the group — its own
    /// `Hello` with nothing ordered before it.
    pub fn awaiting_transfer(&self) -> bool {
        self.transfer != Transfer::Answered
    }

    /// The node's watch records: one per local instance, as of the last
    /// sampling or policy pass.
    pub fn watched(&self) -> &Watched {
        &self.watched
    }

    /// True if `name` is an SLA-throttled instance.
    pub fn is_throttled(&self, name: &str) -> bool {
        self.throttled.contains(name)
    }

    /// Debug visibility into the adoption queue: the instances this node
    /// has queued for (re-)materialization.
    #[doc(hidden)]
    pub fn pending_adoptions(&self) -> impl Iterator<Item = &str> {
        self.adoptions.0.iter().map(|t| &*t.name)
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

    /// Hands `payload` to the total order, carrying the causal context of
    /// span `under` ([`TraceRef::NONE`]: none). This is the one place an
    /// ordered message is allocated; from here on it is shared (see
    /// [`Wire`]).
    fn order(&mut self, net: &mut impl Fabric<Wire>, payload: AppPayload, under: TraceRef) {
        let trace = self.recorder.context(under);
        self.gcs.order_traced(net, Rc::new(payload), trace);
    }

    /// The current membership view.
    pub fn view(&self) -> &View {
        self.gcs.view()
    }

    /// Drains accumulated node events in place: the queue keeps its
    /// buffer.
    pub(crate) fn drain_events(&mut self) -> std::vec::Drain<'_, NodeEvent> {
        self.events.drain(..)
    }

    /// True if the instance is running locally.
    pub fn probe_local(&self, name: &str) -> bool {
        self.mgr
            .find_by_name(name)
            .and_then(|id| self.mgr.instance(id))
            .is_some_and(|i| i.is_running())
    }

    /// `name` as the registry shares it: its record's name or, for an
    /// instance whose `Deployed` is still in flight, a copy.
    fn shared_name(&self, name: &str) -> Arc<str> {
        self.registry
            .record(name)
            .map_or_else(|| name.into(), |r| Arc::clone(&r.name))
    }

    /// The local instance named `name`.
    fn local(&self, name: &str) -> Result<InstanceId, CoreError> {
        let iid = self.mgr.find_by_name(name);
        iid.ok_or_else(|| CoreError::NotPlaced(name.to_owned()))
    }

    /// Calls a service of a locally running instance, counted as
    /// `call.instance`.
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
        let calling = self.phases.enter(Phase::CallInstance);
        let iid = self.local(name)?;
        let reply = self.mgr.call_service(iid, interface, method, arg);
        drop(calling);
        if self.mgr.persist_dirty() {
            // A write-through failed; the tick retries it.
            self.wake();
        }
        Ok(reply?)
    }

    // ------------------------------------------------------------------
    // The instance manager's two cluster-wide operations
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
        let name: Arc<str> = descriptor.name.as_str().into();
        // The registry's copy grants nothing: a descriptor from the network
        // must not be able to grant itself permissions, so a node adopting
        // the instance runs it under its own deny-all default.
        let shared = Rc::new(InstanceDescriptor {
            policy: SecurityPolicy::deny_all(),
            ..descriptor.clone()
        });
        let iid = self.mgr.create_instance(descriptor)?;
        self.mgr.start_instance(iid)?;
        self.order(
            net,
            AppPayload::Deployed {
                name: Arc::clone(&name),
                descriptor: shared,
                home: self.id,
            },
            TraceRef::NONE,
        );
        self.events.push(NodeEvent::Deployed { at: now, name });
        Ok(())
    }

    /// Permanently removes a locally-placed instance: stops it, wipes its
    /// SAN state and announces the removal cluster-wide.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not running here.
    pub fn undeploy(&mut self, name: &str, net: &mut impl Fabric<Wire>) -> Result<(), CoreError> {
        let iid = self.local(name)?;
        self.wake();
        let _ = self.mgr.stop_instance(iid);
        self.mgr.destroy_instance(iid, true)?;
        self.forget_local(name);
        self.order(
            net,
            AppPayload::Undeployed {
                name: self.shared_name(name),
            },
            TraceRef::NONE,
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // The tick: the node's event loop
    // ------------------------------------------------------------------

    /// Processes incoming messages, runs the failure detector, samples
    /// usage and evaluates policies. The driver — the simulator's step —
    /// calls this as often as it likes; a call that finds no mail before
    /// the wake deadline returns at once, and is one that would have done
    /// nothing. Mail before the deadline goes to the group endpoint, and
    /// the tick stops there unless the endpoint is then due: its own
    /// deadline is the only one mail voids.
    pub fn tick(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if matches!(self.state, NodeState::Hibernated | NodeState::Stopped) {
            return;
        }
        let phases = self.phases.clone();
        phases.count_in(Phase::NetDrain, || net.drain(self.id, &mut self.inbox));
        let sleeping = now < self.wake_at;
        if self.inbox.is_empty() && sleeping {
            return;
        }
        // Inbound messages → protocol engine.
        phases.count_in(Phase::GcsHandle, || {
            for env in self.inbox.drain(..) {
                self.gcs.handle(net, env.from, env.payload, now);
            }
        });
        if sleeping {
            // No event waits and nothing of the endpoint's is due: the
            // stages below read nothing the mail changed.
            let gcs_due = self.gcs.next_deadline(now);
            if gcs_due > now {
                self.wake_at = self.wake_at.min(gcs_due);
                return;
            }
        }
        phases.count_in(Phase::GcsTick, || self.gcs.tick(net, now));
        // Protocol events → migration/failover logic.
        phases.count_in(Phase::ApplyControl, || {
            // Lent out beside `&mut self`, then put back.
            let mut events = std::mem::take(&mut self.gcs_events);
            self.gcs.take_events(&mut events);
            for event in events.drain(..) {
                self.on_gcs_event(event, net, now);
            }
            self.gcs_events = events;
            self.ask_first(net);
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

    /// The earliest instant at which a tick without mail may have something
    /// to do, as things stand at the end of the tick at `now`: the group
    /// endpoint's own deadline, the first queued adoption or upgrade to
    /// come due, the next usage sample, policy evaluation and stranded
    /// sweep. `now` — tick every time — while anything is in progress that
    /// a tick advances by itself: a drain waiting for the node to empty,
    /// persistence waiting for the SAN to answer.
    fn next_deadline(&self, now: SimTime) -> SimTime {
        if self.state != NodeState::Running || self.drain.is_some() || self.mgr.persist_dirty() {
            return now;
        }
        let mut at = self
            .gcs
            .next_deadline(now)
            .min(self.sample_due)
            .min(self.sweep_due);
        if let Some(autonomic) = &self.autonomic {
            at = at.min(autonomic.next_due());
        }
        self.upgrades.due_by(self.adoptions.due_by(at))
    }

    /// Write-behind convergence: lifecycle transitions never roll back on a
    /// transient SAN failure — the framework marks its snapshot/data areas
    /// dirty instead. Each tick retries the flush while something is dirty,
    /// gated on the SAN answering at all so a brown-out is not hammered
    /// every 5 ms; a clean tick asks the SAN nothing.
    fn flush_deferred_persistence(&mut self) {
        if self.mgr.persist_dirty() && self.store.is_available() {
            self.mgr.flush_persist_all();
        }
    }

    /// True if `view` holds a majority of the universe less the peers that
    /// left voluntarily: the primary component, the only one that claims.
    fn is_primary(&self, view: &View) -> bool {
        view.has_majority(self.gcs.universe() - self.departed_peers.len())
    }

    fn on_gcs_event(
        &mut self,
        event: GcsEvent<Rc<AppPayload>>,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        match event {
            GcsEvent::ViewChange { view, joined, left } => {
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
                self.ship_to_joiners(&view, joined, net);
                if !left.is_empty() && self.is_primary(&view) {
                    self.registry.orphan_homes(|n| left.contains(&n));
                    self.handle_failover(net);
                }
                // Last, so that it takes the view's lists: nothing above
                // pushes an event, so its place among the events is kept.
                self.events.push(NodeEvent::ViewChanged {
                    at: now,
                    members: view.members,
                    left,
                });
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

    /// Applies one ordered message to the registry copy, then hands it to
    /// the machine it concerns.
    fn apply_control(
        &mut self,
        payload: &AppPayload,
        trace: Option<TraceContext>,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        self.metrics.registry_ops.incr();
        // A hand-off the registry refused (an endpoint died first) is the
        // failover claim's to finish.
        let applied = self.registry.apply(payload);
        match payload {
            AppPayload::Migrate { name, from, to } => {
                if *from == self.id && applied {
                    self.release_instance(name, *to, net, now, trace);
                }
            }
            AppPayload::Released { name, to } => {
                if *to == self.id && applied {
                    self.adopt(name, AdoptReason::Migration, now, trace);
                }
            }
            AppPayload::Adopted { name, node, .. } => self.resolve_claim(name, *node, now, trace),
            AppPayload::Draining { node } => {
                if *node != self.id {
                    self.draining_peers.insert(*node);
                }
            }
            AppPayload::Hello { .. } | AppPayload::RegistryTransfer { .. } => {
                self.apply_transfer(payload, net, now)
            }
            // Registry bookkeeping only (done in `apply` above). The
            // quarantining node keeps its partially-restored copy
            // installed-but-stopped so the heal re-claim can restart it in
            // place.
            AppPayload::Quarantined { .. }
            | AppPayload::Deployed { .. }
            | AppPayload::Undeployed { .. } => {}
        }
    }
}

/// What the cluster's tests read and write of a node past its surface.
#[cfg(test)]
mod tests {
    use super::*;

    impl DosgiNode {
        /// The last policy pass's evaluation errors (none without a policy).
        pub(crate) fn policy_errors(&self) -> impl Iterator<Item = &str> {
            self.autonomic.iter().flat_map(AutonomicModule::last_errors)
        }

        /// True if a tick at `now` without mail would return at once.
        pub(crate) fn asleep_at(&self, now: SimTime) -> bool {
            now < self.wake_at
        }

        /// Writes the registry copy past the total order.
        pub(crate) fn registry_mut(&mut self) -> &mut ClusterRegistry {
            &mut self.registry
        }

        /// Number of upgrades still queued (pending or in backoff).
        pub(crate) fn pending_upgrades(&self) -> usize {
            self.upgrades.0.len()
        }
    }
}
