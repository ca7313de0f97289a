//! Cluster-wide rolling bundle upgrades (E14).
//!
//! [`UpgradeWave`] composes the node-local hot-swap path
//! ([`DosgiNode::request_upgrade`](crate::DosgiNode::request_upgrade))
//! into a one-node-at-a-time wave over a serving cluster: the in-flight
//! node is drained at the traffic layer (an [`IpvsDirector`] — abstracted
//! behind [`WaveHooks`] so the wave itself stays traffic-layer agnostic),
//! every local instance hosting the target bundle is hot-swapped in place,
//! and the node is un-drained before the wave moves on. Because the drain
//! is work-conserving (queued requests still complete) and the per-bundle
//! blackout is µs-scale, a wave over a loaded cluster drops **zero**
//! in-SLO requests — the E14 deliverable.
//!
//! The wave is a *non-blocking* state machine stepped once per driver
//! iteration, deliberately: a nemesis can kill the in-flight node mid-wave
//! and the wave must skip it (per-node deadline) rather than wedge.
//!
//! [`IpvsDirector`]: dosgi_ipvs::IpvsDirector

use crate::cluster::DosgiCluster;
use crate::events::NodeEvent;
use dosgi_net::{NodeId, SimDuration, SimTime};
use dosgi_osgi::{BundleManifest, Version};
use dosgi_telemetry::TraceContext;

/// Traffic-layer callbacks around each node's upgrade window. The E14
/// driver backs these with an [`IpvsDirector`](dosgi_ipvs::IpvsDirector)
/// (`drain_node_traced` / `undrain_node_traced`); chaos runs use
/// [`NoTrafficHooks`].
pub trait WaveHooks {
    /// Steer new traffic away from `node` (queued work still completes).
    fn drain(&mut self, node: NodeId, now_us: u64);
    /// Re-admit traffic to `node`. `ctx` is the completed upgrade's trace
    /// context when one exists — implementations that record spans should
    /// join it so "un-drain after adopt" stays causally checkable.
    fn undrain(&mut self, node: NodeId, ctx: Option<TraceContext>, now_us: u64);
}

/// Hooks that do nothing (no traffic layer in front of the cluster).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrafficHooks;

impl WaveHooks for NoTrafficHooks {
    fn drain(&mut self, _node: NodeId, _now_us: u64) {}
    fn undrain(&mut self, _node: NodeId, _ctx: Option<TraceContext>, _now_us: u64) {}
}

/// One completed per-instance upgrade inside a wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveUpgrade {
    /// The instance whose bundle was swapped.
    pub instance: String,
    /// The node it happened on.
    pub node: usize,
    /// Version before.
    pub from: Version,
    /// Version after.
    pub to: Version,
    /// The modeled per-upgrade blackout (µs-scale).
    pub blackout: SimDuration,
}

/// The outcome of a finished wave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveReport {
    /// Every successful per-instance upgrade, in completion order.
    pub upgraded: Vec<WaveUpgrade>,
    /// Per-instance failures (`(instance, error)`).
    pub failed: Vec<(String, String)>,
    /// Nodes skipped because they died or blew the per-node deadline.
    pub skipped_nodes: Vec<usize>,
}

enum WaveStep {
    /// About to drain the current node and queue its upgrades.
    Drain,
    /// Waiting for the queued upgrades to land (or the deadline).
    Wait { expected: Vec<String> },
    /// All nodes visited.
    Finished,
}

/// A rolling upgrade wave: visits `nodes` in order, upgrading every local
/// instance that hosts the target bundle to `manifest`. Drive it with
/// [`step`](Self::step) once per simulation iteration.
pub struct UpgradeWave {
    manifest: BundleManifest,
    nodes: Vec<usize>,
    pos: usize,
    step: WaveStep,
    deadline: SimTime,
    node_deadline: SimDuration,
    /// The most recently completed instance on the current node — its
    /// trace context parents the un-drain span.
    last_done: Option<String>,
    report: WaveReport,
}

impl UpgradeWave {
    /// A wave over `nodes` (visited in the given order) swapping the
    /// bundle named by `manifest.symbolic_name` to `manifest`. A node that
    /// has not finished within `node_deadline` (died mid-upgrade, wedged
    /// SAN) is skipped so the wave cannot stall the cluster.
    pub fn new(manifest: BundleManifest, nodes: Vec<usize>, node_deadline: SimDuration) -> Self {
        UpgradeWave {
            manifest,
            nodes,
            pos: 0,
            step: WaveStep::Drain,
            deadline: SimTime::ZERO,
            node_deadline,
            last_done: None,
            report: WaveReport::default(),
        }
    }

    /// True once every node has been visited.
    pub fn is_done(&self) -> bool {
        matches!(self.step, WaveStep::Finished)
    }

    /// The report so far (complete once [`is_done`](Self::is_done)).
    pub fn report(&self) -> &WaveReport {
        &self.report
    }

    /// Consumes the wave, returning its report.
    pub fn into_report(self) -> WaveReport {
        self.report
    }

    /// Advances the wave by one increment. Call once per driver iteration,
    /// after [`DosgiCluster::step`] with the events that step produced
    /// (from [`DosgiCluster::take_events`]). Returns `true` when the wave
    /// has finished.
    pub fn step(
        &mut self,
        cluster: &mut DosgiCluster,
        events: &[(NodeId, NodeEvent)],
        hooks: &mut dyn WaveHooks,
    ) -> bool {
        let now = cluster.now();
        let now_us = now.as_micros();
        match &mut self.step {
            WaveStep::Finished => return true,
            WaveStep::Drain => {
                let Some(&idx) = self.nodes.get(self.pos) else {
                    self.step = WaveStep::Finished;
                    return true;
                };
                if cluster.node(idx).is_none() {
                    self.report.skipped_nodes.push(idx);
                    self.advance(hooks, idx, now_us);
                    return self.is_done();
                }
                hooks.drain(NodeId(idx as u32), now_us);
                let sn = self.manifest.symbolic_name.to_string();
                let targets: Vec<String> = cluster
                    .node(idx)
                    .map(|n| {
                        n.manager()
                            .instances()
                            .filter(|i| i.descriptor.bundles.contains(&sn))
                            .map(|i| i.descriptor.name.clone())
                            .collect()
                    })
                    .unwrap_or_default();
                if let Some(node) = cluster.node_mut(idx) {
                    for t in &targets {
                        if let Err(e) = node.request_upgrade(t, self.manifest.clone(), now) {
                            self.report.failed.push((t.clone(), e.to_string()));
                        }
                    }
                }
                self.deadline = now + self.node_deadline;
                self.last_done = None;
                self.step = WaveStep::Wait { expected: targets };
            }
            WaveStep::Wait { expected } => {
                let idx = self.nodes[self.pos];
                for (nid, ev) in events {
                    if nid.0 as usize != idx {
                        continue;
                    }
                    match ev {
                        NodeEvent::BundleUpgraded {
                            name,
                            from,
                            to,
                            blackout,
                            ..
                        } if expected.iter().any(|n| **n == **name) => {
                            expected.retain(|n| **n != **name);
                            self.last_done = Some(name.to_string());
                            self.report.upgraded.push(WaveUpgrade {
                                instance: name.to_string(),
                                node: idx,
                                from: *from,
                                to: *to,
                                blackout: *blackout,
                            });
                        }
                        NodeEvent::UpgradeFailed { name, error, .. }
                            if expected.iter().any(|n| **n == **name) =>
                        {
                            expected.retain(|n| **n != **name);
                            self.report.failed.push((name.to_string(), error.clone()));
                        }
                        _ => {}
                    }
                }
                let node_dead = cluster.node(idx).is_none();
                if expected.is_empty() {
                    let ctx = match (&self.last_done, cluster.node(idx)) {
                        (Some(done), Some(node)) => node.upgrade_trace_context(done),
                        _ => None,
                    };
                    self.advance_with_ctx(hooks, idx, ctx, now_us);
                } else if node_dead || now >= self.deadline {
                    for name in expected.drain(..) {
                        self.report.failed.push((
                            name,
                            if node_dead {
                                "node died mid-upgrade".to_owned()
                            } else {
                                "upgrade deadline exceeded".to_owned()
                            },
                        ));
                    }
                    self.report.skipped_nodes.push(idx);
                    self.advance(hooks, idx, now_us);
                }
            }
        }
        self.is_done()
    }

    fn advance(&mut self, hooks: &mut dyn WaveHooks, idx: usize, now_us: u64) {
        self.advance_with_ctx(hooks, idx, None, now_us);
    }

    fn advance_with_ctx(
        &mut self,
        hooks: &mut dyn WaveHooks,
        idx: usize,
        ctx: Option<TraceContext>,
        now_us: u64,
    ) {
        // Always lift the drain — even for a skipped/dead node, so a later
        // restart comes back into rotation without manual intervention.
        hooks.undrain(NodeId(idx as u32), ctx, now_us);
        self.pos += 1;
        self.step = if self.pos >= self.nodes.len() {
            WaveStep::Finished
        } else {
            WaveStep::Drain
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, DosgiCluster};
    use crate::workloads;
    use dosgi_net::SimDuration;

    fn wave_cluster(n: usize, instances: usize) -> DosgiCluster {
        let mut cluster = DosgiCluster::new(n, ClusterConfig::default(), 99);
        for i in 0..instances {
            cluster
                .deploy(
                    workloads::counter_instance_with(
                        &format!("cust-{i}"),
                        &format!("ctr-{i}"),
                        workloads::COUNTER_WRITE_THROUGH,
                    ),
                    i % n,
                )
                .expect("deploy");
        }
        cluster.run_for(SimDuration::from_secs(1));
        cluster
    }

    fn drive(cluster: &mut DosgiCluster, wave: &mut UpgradeWave, limit: SimDuration) {
        let deadline = cluster.now() + limit;
        let mut hooks = NoTrafficHooks;
        while cluster.now() < deadline {
            cluster.step();
            let events = cluster.take_events();
            if wave.step(cluster, &events, &mut hooks) {
                return;
            }
        }
        panic!("wave did not finish within {limit:?}");
    }

    #[test]
    fn wave_upgrades_every_instance_without_downtime() {
        let mut cluster = wave_cluster(3, 6);
        // Touch every counter so there is real state to hand off.
        for i in 0..6 {
            let name = format!("ctr-{i}");
            for _ in 0..=i {
                cluster
                    .call(
                        &name,
                        workloads::COUNTER_SERVICE,
                        "incr",
                        &dosgi_san::Value::Null,
                    )
                    .expect("increment");
            }
        }
        let manifest = workloads::counter_manifest_at(
            workloads::COUNTER_WRITE_THROUGH,
            dosgi_osgi::Version::new(1, 1, 0),
        );
        let mut wave = UpgradeWave::new(manifest, vec![0, 1, 2], SimDuration::from_secs(10));
        drive(&mut cluster, &mut wave, SimDuration::from_secs(30));
        let report = wave.into_report();
        assert_eq!(report.upgraded.len(), 6, "failed: {:?}", report.failed);
        assert!(report.failed.is_empty());
        assert!(report.skipped_nodes.is_empty());
        for u in &report.upgraded {
            assert_eq!(u.from, dosgi_osgi::Version::new(1, 0, 0));
            assert_eq!(u.to, dosgi_osgi::Version::new(1, 1, 0));
            assert!(
                u.blackout < SimDuration::from_millis(5),
                "blackout stays µs-scale: {:?}",
                u.blackout
            );
        }
        // State survived the swap: counter i was incremented i+1 times.
        for i in 0..6 {
            let got = cluster
                .call(
                    &format!("ctr-{i}"),
                    workloads::COUNTER_SERVICE,
                    "get",
                    &dosgi_san::Value::Null,
                )
                .expect("get after upgrade");
            assert_eq!(got, dosgi_san::Value::Int(i as i64 + 1));
        }
        // And every instance still probes as serving.
        for i in 0..6 {
            assert!(cluster.probe(&format!("ctr-{i}")));
        }
    }

    /// Failover claims' open-root discipline, for upgrades: an upgrade
    /// that fails transiently against a faulty SAN is retried with
    /// backoff, and every retry continues the SAME open `upgrade/` root —
    /// when the SAN heals and the swap lands, exactly one upgrade root
    /// exists in the trace and nothing is left open. (Regression test for
    /// the one-leaked-span-per-retry failure mode.)
    #[test]
    fn san_faulted_upgrade_retries_reuse_one_trace_root() {
        let mut cluster = wave_cluster(2, 1);
        cluster
            .call(
                "ctr-0",
                workloads::COUNTER_SERVICE,
                "incr",
                &dosgi_san::Value::Null,
            )
            .expect("incr");
        let home = cluster.home_of("ctr-0").expect("placed");
        cluster.set_fault_plan(dosgi_san::FaultPlan::flaky(1.0, 7));
        let manifest = workloads::counter_manifest_at(
            workloads::COUNTER_WRITE_THROUGH,
            dosgi_osgi::Version::new(1, 1, 0),
        );
        cluster.upgrade_bundle("ctr-0", manifest).expect("request");
        // Let at least two retries fail against the dead SAN.
        let mut retries = 0;
        let deadline = cluster.now() + SimDuration::from_secs(5);
        while retries < 2 && cluster.now() < deadline {
            cluster.step();
            for (_, ev) in cluster.take_events() {
                if matches!(ev, NodeEvent::UpgradeRetried { .. }) {
                    retries += 1;
                }
            }
        }
        assert!(retries >= 2, "expected transient retries, got {retries}");
        cluster.clear_faults();
        let deadline = cluster.now() + SimDuration::from_secs(10);
        let mut upgraded = false;
        while !upgraded && cluster.now() < deadline {
            cluster.step();
            for (_, ev) in cluster.take_events() {
                if matches!(ev, NodeEvent::BundleUpgraded { .. }) {
                    upgraded = true;
                }
            }
        }
        assert!(upgraded, "upgrade lands once the SAN heals");
        let recorder = cluster.node(home).expect("alive").recorder();
        let roots: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| e.name.starts_with("upgrade/"))
            .collect();
        assert_eq!(
            roots.len(),
            1,
            "retries reuse the open root instead of minting per attempt: {roots:?}"
        );
        let open = recorder.open_events();
        assert!(
            open.is_empty(),
            "spans left open after completion: {open:?}"
        );
        assert_eq!(recorder.rejected(), 0, "no span was closed twice");
        // The handoff phase children all landed under that one root.
        let events = recorder.events();
        let root = &roots[0];
        for phase in ["u_quiesce/", "u_persist/", "u_adopt/"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.name.starts_with(phase) && e.trace_id == root.trace_id),
                "{phase} child recorded in the upgrade trace"
            );
        }
        // State survived the faulted handoff.
        let got = cluster
            .call(
                "ctr-0",
                workloads::COUNTER_SERVICE,
                "get",
                &dosgi_san::Value::Null,
            )
            .expect("get");
        assert_eq!(got, dosgi_san::Value::Int(1));
    }

    /// An upgrade whose instance migrates away before the swap instant is
    /// abandoned, and an abandoned upgrade is a failed one: one
    /// `UpgradeFailed`, its `upgrade/` root ended, and
    /// `core.upgrade.failed` counting it.
    #[test]
    fn an_upgrade_abandoned_by_a_migration_counts_as_failed() {
        let mut cluster = wave_cluster(2, 1);
        let home = cluster.home_of("ctr-0").expect("placed");
        let manifest = workloads::counter_manifest_at(
            workloads::COUNTER_WRITE_THROUGH,
            dosgi_osgi::Version::new(1, 1, 0),
        );
        cluster.upgrade_bundle("ctr-0", manifest).expect("request");
        cluster.migrate("ctr-0", 1 - home).expect("migrate");
        let mut failed = Vec::new();
        let deadline = cluster.now() + SimDuration::from_secs(2);
        while cluster.now() < deadline {
            cluster.step();
            for (node, ev) in cluster.take_events() {
                match ev {
                    NodeEvent::UpgradeFailed { error, .. } => failed.push((node, error)),
                    NodeEvent::BundleUpgraded { .. } => panic!("the swap landed: {ev:?}"),
                    _ => {}
                }
            }
        }
        assert_eq!(
            failed,
            vec![(
                NodeId(home as u32),
                "instance no longer placed here".to_owned()
            )]
        );
        assert_eq!(cluster.home_of("ctr-0"), Some(1 - home));
        let recorder = cluster.node(home).expect("alive").recorder();
        let roots = recorder
            .events()
            .into_iter()
            .filter(|e| e.name.starts_with("upgrade/"))
            .count();
        assert_eq!(roots, 1, "one upgrade root, ended");
        assert!(recorder.open_events().is_empty());
        assert_eq!(cluster.telemetry().counter("core.upgrade.failed"), 1);
    }

    #[test]
    fn wave_skips_a_node_killed_mid_upgrade() {
        let mut cluster = wave_cluster(3, 3);
        let manifest = workloads::counter_manifest_at(
            workloads::COUNTER_WRITE_THROUGH,
            dosgi_osgi::Version::new(1, 2, 0),
        );
        let mut wave = UpgradeWave::new(manifest, vec![0, 1, 2], SimDuration::from_secs(5));
        let mut hooks = NoTrafficHooks;
        // Kick the wave into node 0's Wait state, then kill node 0.
        cluster.step();
        let events = cluster.take_events();
        wave.step(&mut cluster, &events, &mut hooks);
        cluster.crash_node(0);
        let deadline = cluster.now() + SimDuration::from_secs(40);
        while cluster.now() < deadline && !wave.is_done() {
            cluster.step();
            let events = cluster.take_events();
            wave.step(&mut cluster, &events, &mut hooks);
        }
        assert!(wave.is_done(), "wave must not wedge on a dead node");
        let report = wave.into_report();
        assert!(
            report.skipped_nodes.contains(&0),
            "dead node skipped: {report:?}"
        );
        // The other two nodes' instances still upgraded (ctr-0 may have
        // failed over to one of them after the crash and been missed by
        // this wave — that is the expected at-most-once wave semantics).
        let upgraded_nodes: std::collections::BTreeSet<usize> =
            report.upgraded.iter().map(|u| u.node).collect();
        assert!(upgraded_nodes.contains(&1) && upgraded_nodes.contains(&2));
        // The cluster converged: every instance is serving somewhere.
        cluster.run_for(SimDuration::from_secs(5));
        for i in 0..3 {
            assert!(cluster.probe(&format!("ctr-{i}")), "ctr-{i} serving");
        }
    }
}
