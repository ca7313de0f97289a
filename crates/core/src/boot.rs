//! What a node boots from: the cluster-invariant boot kit, and the two
//! ways a host framework comes up.
//!
//! Every node of a cluster carries the same bundle repository, activator
//! factory, host bundles and compiled policy. A [`BootKit`] builds them
//! once; every node the cluster boots or restarts shares it.
//!
//! A host framework comes up one of two ways. A node whose host namespace
//! holds state — a restarted node — restores it with
//! [`Framework::restore`], the path an adoption takes: the OSGi
//! framework state is persistent so that a restarted framework comes back
//! as it was. A first boot installs and starts the host bundles on a
//! framework with no store, then attaches the store, which writes the
//! snapshot in one batch. A restore that fails — a transient SAN error, or a
//! first-boot batch torn before its header row, which holds no framework —
//! takes the first-boot path, over whatever rows the SAN holds.

use crate::autonomic::AutonomicModule;
use crate::node::NodeConfig;
use crate::workloads;
use dosgi_net::NodeId;
use dosgi_osgi::{ActivatorFactory, BundleManifest, Framework, FrameworkConfig, FrameworkMetrics};
use dosgi_san::SharedStore;
use dosgi_telemetry::Phases;
use dosgi_vosgi::{BundleRepository, InstanceManager};
use std::sync::Arc;

/// The parts of a node that are the same on every node of a cluster,
/// built once and shared by every node it boots.
#[derive(Debug)]
pub struct BootKit {
    // What the node reads of its configuration after boot comes from here.
    pub(crate) config: NodeConfig,
    repository: Arc<BundleRepository>,
    factory: Arc<ActivatorFactory>,
    // The repository's own manifests, shared.
    host_bundles: Vec<Arc<BundleManifest>>,
    // Compiled, never evaluated: each node takes a copy, which shares the
    // script and owns its own streaks.
    autonomic: Option<AutonomicModule>,
}

impl BootKit {
    /// Builds the kit of nodes configured by `config`: the standard
    /// repository and factory, the host bundles, and `config.policy`
    /// compiled.
    ///
    /// # Panics
    ///
    /// Panics if the policy script does not compile.
    pub fn new(config: NodeConfig) -> Self {
        let autonomic = config.policy.as_ref().map(|script| {
            AutonomicModule::new(script, config.policy_interval)
                .expect("node policy script must compile")
        });
        let repository = workloads::standard_repository();
        let host_bundles = workloads::host_bundles()
            .iter()
            .map(|m| {
                let name = m.symbolic_name.as_str();
                Arc::clone(
                    repository
                        .manifest(name)
                        .expect("host bundles are catalogued"),
                )
            })
            .collect();
        BootKit {
            repository: Arc::new(repository),
            factory: Arc::new(workloads::standard_factory()),
            host_bundles,
            autonomic,
            config,
        }
    }

    /// A node's own autonomic module, if the configuration has a policy.
    pub(crate) fn autonomic(&self) -> Option<AutonomicModule> {
        self.autonomic.clone()
    }

    /// An instance manager around `host`, sharing the kit's repository
    /// and factory, with `store` attached.
    pub(crate) fn manager(&self, host: Framework, store: &SharedStore) -> InstanceManager {
        let mut mgr = InstanceManager::new(
            host,
            Arc::clone(&self.repository),
            Arc::clone(&self.factory),
        );
        mgr.attach_store(store.clone());
        mgr
    }

    /// Node `id`'s host framework, and whether the SAN held host state for
    /// it: a restarted node's framework is restored, anything else boots
    /// for the first time (see the module docs). Whether the node
    /// restarted is read past the fault layer, so a node restarted during
    /// a brown-out is a restarted node even when its restore fails. The
    /// restore shares the repository's manifests and counts its parts in
    /// `phases`, as an adoption does.
    pub(crate) fn host_framework(
        &self,
        id: NodeId,
        store: &SharedStore,
        phases: &Phases,
    ) -> (Framework, bool) {
        let ns = format!("host/{id}");
        let restarted = store.namespace_bytes_prefixed(&ns) > 0;
        if restarted {
            let (config, uncounted) = (FrameworkConfig::new(&ns), FrameworkMetrics::default());
            let known = &*self.repository;
            let restored = Framework::restore_counted(
                config,
                store.clone(),
                &ns,
                &self.factory,
                known,
                uncounted,
                phases,
            );
            if let Ok(host) = restored {
                return (host, true);
            }
        }
        let mut host = Framework::new(&ns);
        for manifest in &self.host_bundles {
            let activator = self.factory.create(manifest);
            let bid = host
                .install(Arc::clone(manifest), activator)
                .expect("fresh framework");
            host.start(bid).expect("host bundles start");
        }
        // One batch. A node booting during a SAN fault keeps its snapshot
        // dirty; the tick's flush loop converges it once the SAN answers.
        let _ = host.attach_store(store.clone(), &ns);
        (host, restarted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::SimTime;
    use dosgi_osgi::{BundleId, BundleState};
    use dosgi_san::{FaultPlan, Value};

    const ID: NodeId = NodeId(3);
    const NS: &str = "host/n3";

    /// What a host framework is, as far as anything can tell: its bundles'
    /// ids, names and states, the services they registered, and the
    /// `next_bundle` its SAN header hands out next.
    type Shape = (Vec<(BundleId, String, BundleState)>, Vec<String>, Value);

    fn shape(host: &Framework, store: &SharedStore) -> Shape {
        let bundles = host
            .bundles()
            .map(|b| (b.id, b.manifest.symbolic_name.to_string(), b.state));
        let services = [
            workloads::LOG_SERVICE,
            workloads::HTTP_SERVICE,
            workloads::METRICS_SERVICE,
        ]
        .into_iter()
        .filter(|s| host.best_service(s).is_some())
        .map(str::to_owned);
        let header = store.peek(NS, "header").expect("a header row");
        let next = header.get("next_bundle").expect("next_bundle").clone();
        (bundles.collect(), services.collect(), next)
    }

    /// A first boot writes its whole snapshot in one `put_many`; a restart
    /// reads it back, restores what was active and writes no row.
    #[test]
    fn a_first_boot_is_one_batch_and_a_restart_writes_no_row() {
        let kit = BootKit::new(NodeConfig::default());
        let store = SharedStore::new();
        let (host, restarted) = kit.host_framework(ID, &store, &Phases::disabled());
        let first = store.stats();
        assert!(!restarted);
        assert_eq!(
            (first.writes, first.reads),
            (4, 0),
            "3 bundle rows + header"
        );
        let booted = shape(&host, &store);
        assert_eq!(booted.1.len(), 3, "every host service registered");
        drop(host);
        let (host, restarted) = kit.host_framework(ID, &store, &Phases::disabled());
        let restart = store.stats();
        assert!(restarted);
        assert_eq!(restart.writes, first.writes, "a restart writes no row");
        assert_eq!(restart.reads - first.reads, 4);
        assert_eq!(shape(&host, &store), booted);
    }

    /// The crash-point table of a first boot's one batch, and a restart in
    /// a brown-out. Every strict prefix of the batch laid over an empty SAN
    /// holds no framework (no header row): the node boots as a first boot
    /// over it, counts as restarted wherever a row landed, and comes up as
    /// the first-booted node did — the three host bundles `ACTIVE` under the
    /// same ids, the same services, the same `next_bundle`. A node
    /// restarted while the SAN refuses its restore read boots the same way;
    /// its snapshot lands once the SAN answers. (Trusting a header-less
    /// snapshot restores the rows that landed, and fails this table.)
    #[test]
    fn every_prefix_of_a_first_boot_batch_boots_as_a_first_boot() {
        let kit = BootKit::new(NodeConfig::default());
        let store = SharedStore::new();
        let (host, _) = kit.host_framework(ID, &store, &Phases::disabled());
        let booted = shape(&host, &store);
        let batch = store.read_namespace(NS).expect("no faults armed");
        assert_eq!(batch.last().map(|(k, _)| k.as_str()), Some("header"));
        for landed in 0..batch.len() {
            let store = SharedStore::new();
            if landed > 0 {
                store
                    .put_many(NS, &batch[..landed])
                    .expect("no faults armed");
            }
            let (host, restarted) = kit.host_framework(ID, &store, &Phases::disabled());
            assert_eq!(restarted, landed > 0, "{landed} rows landed");
            assert_eq!(shape(&host, &store), booted, "{landed} rows landed");
        }

        let store = SharedStore::new();
        store.put_many(NS, &batch).expect("no faults armed");
        let until = SimTime::from_secs(5);
        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, until));
        let (mut host, restarted) = kit.host_framework(ID, &store, &Phases::disabled());
        assert!(restarted, "a restart in a brown-out is a restart");
        assert!(host.persist_dirty(), "the snapshot waits for the SAN");
        store.set_now(until);
        host.flush_persist().expect("the SAN answers again");
        assert_eq!(shape(&host, &store), booted);
    }
}
