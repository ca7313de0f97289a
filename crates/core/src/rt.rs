//! # Real-clock cluster runtime
//!
//! [`DosgiCluster`](crate::DosgiCluster) drives every node from one loop
//! against the deterministic [`SimNet`](dosgi_net::SimNet) — perfect for
//! chaos sweeps and byte-stable trace fingerprints, useless for measuring
//! how the hot paths behave under *actual* concurrency.
//!
//! [`RealCluster`] is the second backend behind the same node logic: each
//! [`DosgiNode`] moves onto its own `std::thread`, owns a [`RealEndpoint`]
//! (lock-free `mpsc` links, a shared monotonic [`RealClock`]), and ticks the
//! identical protocol code the simulator runs. Nothing in `DosgiNode` knows
//! which backend it is on — the only coupling is the [`Fabric`] trait.
//!
//! ## Command plane
//!
//! Callers talk to worker threads through per-node command channels. There
//! is one command: a closure to run against the node and its endpoint
//! ([`RealCluster::on`]), which sends its result back on its own reply
//! channel; `deploy`, `migrate`, `call`, `probe`, `health` and
//! `take_events` are one-line callers of it, and it is the one way to
//! read a node from another thread. The worker loop is:
//!
//! 1. run pending commands,
//! 2. `node.tick(&mut endpoint, endpoint.now())` — heartbeats, view
//!    changes, total-order delivery, adoption, SLA sweeps,
//! 3. park briefly so an idle cluster does not spin at 100% CPU.
//!
//! Convergence is *eventual* — a deploy returns as soon as the home node
//! accepted it; use [`RealCluster::await_running`] to wait for the ordered
//! registration to propagate.
//!
//! ## Time
//!
//! All nodes share one [`RealClock`]; `SimTime` values are microseconds
//! since cluster start, so GCS timing configs tuned for the simulator
//! (heartbeats, failover deadlines) carry over unchanged. Only node 0's
//! worker stamps the shared store's fault clock, keeping that clock
//! monotonic without cross-thread coordination.

use crate::node::{NodeConfig, Wire};
use crate::BootKit;
use crate::CoreError;
use crate::DosgiNode;
use crate::NodeEvent;
use dosgi_net::{Fabric, NodeId, RealClock, RealEndpoint, RealNet, SimTime};
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::{HealthState, Phases};
use dosgi_vosgi::InstanceDescriptor;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a worker is asked to run: it has the node and its endpoint, and
/// sends whatever it computes back on a channel it captured.
type Job = Box<dyn FnOnce(&mut DosgiNode, &mut RealEndpoint<Wire>) + Send>;

/// One request to a node's worker thread, serviced on the worker's next
/// loop iteration.
enum Command {
    Run(Job),
    Shutdown,
}

/// A cluster of [`DosgiNode`]s, one OS thread per node, connected by a
/// [`RealNet`] and paced by a shared monotonic [`RealClock`].
pub struct RealCluster {
    ids: Vec<NodeId>,
    cmds: Vec<Sender<Command>>,
    workers: Vec<JoinHandle<()>>,
    store: SharedStore,
    clock: RealClock,
}

impl RealCluster {
    /// Spins up `n` nodes with identical configs on an in-memory store.
    pub fn new(n: usize, config: NodeConfig) -> Self {
        Self::with_store(n, config, SharedStore::new())
    }

    /// Spins up `n` nodes sharing `store`. Each node is constructed *on*
    /// its worker thread (the node itself never crosses threads), then
    /// ticked until [`shutdown`](Self::shutdown).
    pub fn with_store(n: usize, config: NodeConfig, store: SharedStore) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        let mut net: RealNet<Wire> = RealNet::new();
        let ids: Vec<NodeId> = (0..n).map(|_| net.register_node()).collect();
        let clock = net.clock().clone();
        // Built once, shared by every worker.
        let kit = Arc::new(BootKit::new(config));
        let mut cmds = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for &id in &ids {
            let (tx, rx) = channel::<Command>();
            let mut endpoint = net.endpoint(id);
            let peers = ids.clone();
            let kit = Arc::clone(&kit);
            let node_store = store.clone();
            let handle = std::thread::Builder::new()
                .name(format!("dosgi-node-{id}"))
                .spawn(move || {
                    let boot = endpoint.now();
                    let mut node = DosgiNode::new(
                        id,
                        peers,
                        &kit,
                        node_store.clone(),
                        boot,
                        &Phases::disabled(),
                    );
                    let is_timekeeper = id == NodeId(0);
                    loop {
                        // Service every queued command before the tick so a
                        // burst of requests pays one protocol round, not one
                        // round each.
                        let mut shutdown = false;
                        while let Ok(cmd) = rx.try_recv() {
                            match cmd {
                                Command::Run(f) => f(&mut node, &mut endpoint),
                                Command::Shutdown => shutdown = true,
                            }
                        }
                        if shutdown {
                            break;
                        }
                        let now = endpoint.now();
                        if is_timekeeper {
                            node_store.set_now(now);
                        }
                        node.tick(&mut endpoint, now);
                        // Events nobody collects must not grow without
                        // bound on a long-lived cluster.
                        if node.events_len() > 16_384 {
                            let _ = node.take_events();
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                })
                .expect("spawn node worker");
            cmds.push(tx);
            workers.push(handle);
        }
        RealCluster {
            ids,
            cmds,
            workers,
            store,
            clock,
        }
    }

    /// Node ids, in spawn order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The shared SAN handle.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Microseconds since cluster start, from the shared monotonic clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Runs `f` on node `node`'s worker thread, against the node and its
    /// endpoint, and returns what it returned: the one operator call the
    /// others are written in. Blocks until the worker's next loop
    /// iteration has run it.
    pub fn on<R: Send + 'static>(
        &self,
        node: NodeId,
        f: impl FnOnce(&mut DosgiNode, &mut RealEndpoint<Wire>) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = channel();
        self.cmds[node.0 as usize]
            .send(Command::Run(Box::new(move |node, net| {
                let _ = tx.send(f(node, net));
            })))
            .expect("worker alive");
        rx.recv().expect("worker replies")
    }

    /// Deploys `descriptor` on node `on`; returns once the home node
    /// accepted it (cluster-wide registration follows via total order).
    pub fn deploy(&self, on: NodeId, descriptor: InstanceDescriptor) -> Result<(), CoreError> {
        self.on(on, move |node, net| {
            let now = net.now();
            node.deploy(descriptor, net, now)
        })
    }

    /// Requests migration of `name` from `from` to `to`.
    pub fn migrate(&self, from: NodeId, name: &str, to: NodeId) -> Result<(), CoreError> {
        let name = name.to_owned();
        self.on(from, move |node, net| node.migrate_away(&name, to, net))
    }

    /// Invokes `interface::method(arg)` on instance `name`, which must be
    /// placed on node `on`.
    pub fn call(
        &self,
        on: NodeId,
        name: &str,
        interface: &str,
        method: &str,
        arg: &Value,
    ) -> Result<Value, CoreError> {
        let (name, interface, method, arg) = (
            name.to_owned(),
            interface.to_owned(),
            method.to_owned(),
            arg.clone(),
        );
        self.on(on, move |node, _| {
            node.call_local(&name, &interface, &method, &arg)
        })
    }

    /// True if instance `name` is currently running on node `on`.
    pub fn probe(&self, on: NodeId, name: &str) -> bool {
        let name = name.to_owned();
        self.on(on, move |node, _| node.probe_local(&name))
    }

    /// Node `on`'s current health, computed on the worker thread from the
    /// node's own view: quarantined instances homed there and total-order
    /// backlog pressure. Mirrors the sim driver's
    /// [`DosgiCluster::health_of`](crate::DosgiCluster::health_of) on the
    /// real-clock command plane.
    pub fn health(&self, on: NodeId) -> HealthState {
        self.on(on, |node, _| node_health(node))
    }

    /// Every node's health, indexed like [`ids`](Self::ids).
    pub fn health_scoreboard(&self) -> Vec<HealthState> {
        self.ids.iter().map(|&id| self.health(id)).collect()
    }

    /// Drains node `on`'s accumulated events.
    pub fn take_events(&self, on: NodeId) -> Vec<NodeEvent> {
        self.on(on, |node, _| node.take_events())
    }

    /// Polls until `name` probes true on `on`, or `timeout` elapses.
    /// Returns whether the instance was observed running.
    pub fn await_running(&self, on: NodeId, name: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.probe(on, name) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops every worker and joins the threads. Called implicitly on drop;
    /// explicit shutdown surfaces worker panics to the caller.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        for tx in &self.cmds {
            // A worker that already exited (panic) has dropped its receiver;
            // join below will surface that.
            let _ = tx.send(Command::Shutdown);
        }
        for handle in self.workers.drain(..) {
            if let Err(panic) = handle.join() {
                if std::thread::panicking() {
                    continue; // don't double-panic out of Drop
                }
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for RealCluster {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Total-order backlog regarded as "100% queue pressure" when deriving a
/// node's health. A healthy node drains its GCS pipeline every tick; a
/// backlog in the hundreds means delivery has wedged behind a partition
/// or a slow peer, which is exactly what the scoreboard should surface.
const GCS_BACKLOG_NOMINAL: usize = 256;

/// Node-local health, computed from state the worker thread already owns:
/// no alerts feed in (SLO engines attach to the sim driver's scraper, not
/// to individual real-clock workers), so health here is quarantined
/// instances homed on this node plus total-order backlog pressure scaled
/// against [`GCS_BACKLOG_NOMINAL`].
fn node_health(node: &DosgiNode) -> HealthState {
    let id = node.id();
    let quarantined = node
        .registry()
        .records()
        .filter(|r| r.status == crate::InstanceStatus::Quarantined && r.home == id)
        .count();
    let queue_pct = (node.gcs_pending() as u64 * 100) / GCS_BACKLOG_NOMINAL as u64;
    dosgi_telemetry::derive_health(0, quarantined, queue_pct.min(100))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn two_node_cluster() -> RealCluster {
        RealCluster::new(2, NodeConfig::default())
    }

    #[test]
    fn deploy_call_and_migrate_on_real_threads() {
        let cluster = two_node_cluster();
        let [a, b] = [cluster.ids()[0], cluster.ids()[1]];
        cluster
            .deploy(a, workloads::counter_instance("acme", "ctr-rt"))
            .expect("deploy accepted");
        assert!(cluster.await_running(a, "ctr-rt", Duration::from_secs(10)));

        for want in 1..=3 {
            let got = cluster
                .call(
                    a,
                    "ctr-rt",
                    workloads::COUNTER_SERVICE,
                    "incr",
                    &Value::Null,
                )
                .expect("local call works");
            assert_eq!(got, Value::Int(want));
        }

        cluster.migrate(a, "ctr-rt", b).expect("migrate accepted");
        assert!(
            cluster.await_running(b, "ctr-rt", Duration::from_secs(10)),
            "instance should re-materialize on the destination"
        );
        let got = cluster
            .call(
                b,
                "ctr-rt",
                workloads::COUNTER_SERVICE,
                "incr",
                &Value::Null,
            )
            .expect("state survived migration");
        assert_eq!(got, Value::Int(4), "count persisted across the hop");
        cluster.shutdown();
    }

    /// The command plane answers health queries: an idle healthy cluster
    /// scores `Ok` on every node, and the scoreboard is indexed like `ids`.
    #[test]
    fn health_scoreboard_over_command_plane() {
        let cluster = two_node_cluster();
        let a = cluster.ids()[0];
        cluster
            .deploy(a, workloads::counter_instance("acme", "ctr-health"))
            .expect("deploy accepted");
        assert!(cluster.await_running(a, "ctr-health", Duration::from_secs(10)));
        let board = cluster.health_scoreboard();
        assert_eq!(board.len(), cluster.ids().len());
        for (i, h) in board.iter().enumerate() {
            assert_eq!(*h, HealthState::Ok, "idle node {i} must be healthy");
        }
        assert_eq!(cluster.health(a), HealthState::Ok);
        cluster.shutdown();
    }

    /// Two genuinely concurrent client threads — one migrating an instance
    /// back and forth, one looking services up on both nodes through the
    /// command plane — must finish without deadlock or panic, each having
    /// made progress.
    #[test]
    fn concurrent_migrate_and_lookup_survive() {
        let cluster = two_node_cluster();
        let [a, b] = [cluster.ids()[0], cluster.ids()[1]];
        cluster
            .deploy(a, workloads::counter_instance("acme", "kv-hot"))
            .expect("deploy accepted");
        assert!(cluster.await_running(a, "kv-hot", Duration::from_secs(10)));

        let stop = std::sync::atomic::AtomicBool::new(false);
        // Nothing asserts inside the scope: a panic there would leave the
        // lookup thread spinning and the scope waiting for it.
        let (sweeps, converged) = std::thread::scope(|s| {
            let lookups = s.spawn(|| {
                let mut sweeps = 0u64;
                let mut done = false;
                while !done {
                    done = stop.load(std::sync::atomic::Ordering::Relaxed);
                    for node in [a, b] {
                        for interface in [workloads::LOG_SERVICE, workloads::COUNTER_SERVICE] {
                            std::hint::black_box(cluster.on(node, move |n, _| {
                                n.manager().host().registry().best(interface)
                            }));
                        }
                    }
                    sweeps += 1;
                }
                sweeps
            });

            let mut here = a;
            let mut converged = true;
            for _ in 0..4 {
                let to = if here == a { b } else { a };
                converged &= cluster.migrate(here, "kv-hot", to).is_ok()
                    && cluster.await_running(to, "kv-hot", Duration::from_secs(10));
                here = to;
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            (lookups.join().expect("lookup thread survives"), converged)
        });
        assert!(converged, "migrations must converge while lookups run");
        assert!(sweeps > 0, "lookup thread must have made progress");
        cluster.shutdown();
    }
}
