//! The standard bundles, services and instance descriptors used by the
//! examples, tests and experiments.
//!
//! §4 of the paper: *"we already tested it by running multiple virtual
//! instances that use services from the underlying environment namely the
//! log service, the HTTP service and the JMX server service."* These are
//! exactly the host bundles provided here, plus two customer applications:
//!
//! * `org.app.web` — a **stateless** web handler (restart-anywhere);
//! * `org.app.counter` — a **stateful** counter, in three durability
//!   variants used by the E9 replication ablation:
//!   [`COUNTER_ON_STOP`] (persist only on orderly stop — the paper's
//!   baseline, running context lost on crash), [`COUNTER_WRITE_THROUGH`]
//!   (persist every update) and [`COUNTER_CHECKPOINT`] (persist every
//!   [`CHECKPOINT_EVERY`] updates).

use dosgi_net::SimDuration;
use dosgi_osgi::{
    ActivatorFactory, BundleManifest, CallContext, FnActivator, ManifestBuilder, ServiceError,
    Version,
};
use dosgi_san::Value;
use dosgi_vosgi::{BundleRepository, InstanceDescriptor, ResourceQuota};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Host log service bundle.
pub const LOG_BUNDLE: &str = "org.dosgi.log";
/// Host log service interface.
pub const LOG_SERVICE: &str = "org.dosgi.log.Logger";
/// Host HTTP service bundle.
pub const HTTP_BUNDLE: &str = "org.dosgi.http";
/// Host HTTP service interface.
pub const HTTP_SERVICE: &str = "org.dosgi.http.Server";
/// Host metrics (JMX analogue) bundle.
pub const METRICS_BUNDLE: &str = "org.dosgi.metrics";
/// Host metrics service interface.
pub const METRICS_SERVICE: &str = "org.dosgi.metrics.Collector";

/// Stateless customer web application bundle.
pub const WEB_BUNDLE: &str = "org.app.web";
/// The web application's service interface.
pub const WEB_SERVICE: &str = "org.app.web.Handler";

/// Stateful counter, persisted only on orderly stop.
pub const COUNTER_ON_STOP: &str = "org.app.counter";
/// Stateful counter, persisted on every update.
pub const COUNTER_WRITE_THROUGH: &str = "org.app.counter-wt";
/// Stateful counter, persisted every [`CHECKPOINT_EVERY`] updates.
pub const COUNTER_CHECKPOINT: &str = "org.app.counter-ck";
/// The counter service interface (same for all variants).
pub const COUNTER_SERVICE: &str = "org.app.counter.Counter";
/// Checkpoint period (in updates) of [`COUNTER_CHECKPOINT`].
pub const CHECKPOINT_EVERY: i64 = 8;

/// Simulated CPU cost of one log call.
pub const LOG_COST: SimDuration = SimDuration::from_micros(20);
/// Default simulated CPU cost of one HTTP/web request.
pub const REQUEST_COST: SimDuration = SimDuration::from_micros(500);

fn log_manifest() -> BundleManifest {
    ManifestBuilder::new(LOG_BUNDLE, Version::new(1, 0, 0))
        .export_package(
            "org.dosgi.log.api",
            Version::new(1, 0, 0),
            ["Logger", "Level"],
        )
        .build()
        .expect("static manifest")
}

fn http_manifest() -> BundleManifest {
    ManifestBuilder::new(HTTP_BUNDLE, Version::new(1, 0, 0))
        .export_package(
            "org.dosgi.http.api",
            Version::new(1, 0, 0),
            ["Server", "Request", "Response"],
        )
        .build()
        .expect("static manifest")
}

fn metrics_manifest() -> BundleManifest {
    ManifestBuilder::new(METRICS_BUNDLE, Version::new(1, 0, 0))
        .export_package(
            "org.dosgi.metrics.api",
            Version::new(1, 0, 0),
            ["Collector"],
        )
        .build()
        .expect("static manifest")
}

fn web_manifest() -> BundleManifest {
    ManifestBuilder::new(WEB_BUNDLE, Version::new(1, 0, 0))
        .private_package("org.app.web.impl", ["Handler"])
        .build()
        .expect("static manifest")
}

fn counter_manifest(name: &str) -> BundleManifest {
    counter_manifest_at(name, Version::new(1, 0, 0))
}

/// A counter bundle manifest at an explicit `version`: the replacement
/// revision a hot upgrade swaps in (same symbolic name, so the factory
/// hands out the same activator and the data area carries over).
pub fn counter_manifest_at(name: &str, version: Version) -> BundleManifest {
    ManifestBuilder::new(name, version)
        .private_package("org.app.counter.impl", ["Counter"])
        .stateful(true)
        .build()
        .expect("static manifest")
}

/// The bundle catalogue every node carries: host services + customer apps.
pub fn standard_repository() -> BundleRepository {
    [
        log_manifest(),
        http_manifest(),
        metrics_manifest(),
        web_manifest(),
        counter_manifest(COUNTER_ON_STOP),
        counter_manifest(COUNTER_WRITE_THROUGH),
        counter_manifest(COUNTER_CHECKPOINT),
    ]
    .into_iter()
    .collect()
}

/// Builds the activator factory for every standard bundle.
pub fn standard_factory() -> ActivatorFactory {
    let mut f = ActivatorFactory::new();

    f.register(LOG_BUNDLE, |_| {
        Box::new(FnActivator::on_start(|ctx| {
            ctx.register_service(
                &[LOG_SERVICE],
                Box::new(
                    |ctx: &mut CallContext<'_>, method: &str, arg: &Value| match method {
                        "log" => {
                            ctx.charge_cpu(LOG_COST);
                            Ok(Value::map().with("ok", true).with("echo", arg.clone()))
                        }
                        other => Err(ServiceError::Failed(format!("log has no {other}"))),
                    },
                ),
            );
            Ok(())
        }))
    });

    f.register(HTTP_BUNDLE, |_| {
        Box::new(FnActivator::on_start(|ctx| {
            ctx.register_service(
                &[HTTP_SERVICE],
                Box::new(
                    |ctx: &mut CallContext<'_>, method: &str, arg: &Value| match method {
                        "request" => {
                            let work = arg
                                .get("work_us")
                                .and_then(Value::as_int)
                                .unwrap_or(REQUEST_COST.as_micros() as i64);
                            ctx.charge_cpu(SimDuration::from_micros(work.max(0) as u64));
                            Ok(Value::map().with("status", 200i64))
                        }
                        other => Err(ServiceError::Failed(format!("http has no {other}"))),
                    },
                ),
            );
            Ok(())
        }))
    });

    f.register(METRICS_BUNDLE, |_| {
        Box::new(FnActivator::on_start(|ctx| {
            let samples = Arc::new(AtomicI64::new(0));
            let s = samples.clone();
            ctx.register_service(
                &[METRICS_SERVICE],
                Box::new(
                    move |ctx: &mut CallContext<'_>, method: &str, _: &Value| match method {
                        "collect" => {
                            ctx.charge_cpu(SimDuration::from_micros(50));
                            let n = s.fetch_add(1, Ordering::Relaxed) + 1;
                            Ok(Value::map().with("samples", n))
                        }
                        other => Err(ServiceError::Failed(format!("metrics has no {other}"))),
                    },
                ),
            );
            Ok(())
        }))
    });

    f.register(WEB_BUNDLE, |_| {
        Box::new(FnActivator::on_start(|ctx| {
            let served = Arc::new(AtomicI64::new(0));
            let s = served.clone();
            ctx.register_service(
                &[WEB_SERVICE],
                Box::new(
                    move |ctx: &mut CallContext<'_>, method: &str, arg: &Value| match method {
                        "handle" => {
                            let work = arg
                                .get("work_us")
                                .and_then(Value::as_int)
                                .unwrap_or(REQUEST_COST.as_micros() as i64);
                            ctx.charge_cpu(SimDuration::from_micros(work.max(0) as u64));
                            // Per-request allocation churn for the memory gauge.
                            ctx.alloc(4096);
                            ctx.free(4096);
                            let n = s.fetch_add(1, Ordering::Relaxed) + 1;
                            Ok(Value::map().with("status", 200i64).with("served", n))
                        }
                        other => Err(ServiceError::Failed(format!("web has no {other}"))),
                    },
                ),
            );
            Ok(())
        }))
    });

    for (bundle, mode) in [
        (COUNTER_ON_STOP, Durability::OnStop),
        (COUNTER_WRITE_THROUGH, Durability::WriteThrough),
        (COUNTER_CHECKPOINT, Durability::Checkpoint(CHECKPOINT_EVERY)),
    ] {
        f.register(bundle, move |_| Box::new(CounterActivator::new(mode)));
    }

    f
}

/// When the stateful counter persists its running context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Durability {
    OnStop,
    WriteThrough,
    Checkpoint(i64),
}

/// The stateful counter: in-memory count (the "running context" of §3.2)
/// plus a durability policy for the persistent state.
struct CounterActivator {
    mode: Durability,
    count: Arc<AtomicI64>,
}

impl CounterActivator {
    fn new(mode: Durability) -> Self {
        CounterActivator {
            mode,
            count: Arc::new(AtomicI64::new(0)),
        }
    }
}

impl dosgi_osgi::Activator for CounterActivator {
    fn start(&mut self, ctx: &mut dosgi_osgi::BundleContext<'_>) -> Result<(), String> {
        // Recover persisted state (SAN-backed, so this works on any node).
        // A failed read MUST fail the start: falling back to 0 would
        // silently lose the persisted running context.
        let initial = ctx
            .store_get("count")
            .map_err(|e| format!("recover count: {e}"))?
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        self.count.store(initial, Ordering::SeqCst);
        let count = self.count.clone();
        let mode = self.mode;
        ctx.register_service(
            &[COUNTER_SERVICE],
            Box::new(
                move |ctx: &mut CallContext<'_>, method: &str, _: &Value| match method {
                    "incr" => {
                        ctx.charge_cpu(SimDuration::from_micros(30));
                        let n = count.fetch_add(1, Ordering::SeqCst) + 1;
                        match mode {
                            Durability::WriteThrough => ctx.store_put("count", Value::Int(n)),
                            Durability::Checkpoint(k) if n % k == 0 => {
                                ctx.store_put("count", Value::Int(n))
                            }
                            _ => {}
                        }
                        Ok(Value::Int(n))
                    }
                    "get" => Ok(Value::Int(count.load(Ordering::SeqCst))),
                    other => Err(ServiceError::Failed(format!("counter has no {other}"))),
                },
            ),
        );
        Ok(())
    }

    fn stop(&mut self, ctx: &mut dosgi_osgi::BundleContext<'_>) -> Result<(), String> {
        // Orderly shutdown persists the running context — this is why the
        // paper's graceful migration loses nothing while a crash does. On a
        // SAN fault the in-memory area is still updated and marked dirty;
        // the departure path flushes it before releasing the instance.
        ctx.store_put("count", Value::Int(self.count.load(Ordering::SeqCst)))
            .map_err(|e| format!("persist count: {e}"))
    }
}

/// A stateless web-serving customer instance sharing the host log service.
pub fn web_instance(customer: &str, name: &str) -> InstanceDescriptor {
    InstanceDescriptor::builder(customer, name)
        .bundle(WEB_BUNDLE)
        .share_package("org.dosgi.log.api")
        .share_service(LOG_SERVICE)
        .quota(ResourceQuota::standard())
        .build()
}

/// A stateful counter instance (baseline durability: persist on stop).
pub fn counter_instance(customer: &str, name: &str) -> InstanceDescriptor {
    counter_instance_with(customer, name, COUNTER_ON_STOP)
}

/// A stateful counter instance with an explicit durability variant
/// ([`COUNTER_ON_STOP`], [`COUNTER_WRITE_THROUGH`] or
/// [`COUNTER_CHECKPOINT`]).
pub fn counter_instance_with(customer: &str, name: &str, bundle: &str) -> InstanceDescriptor {
    InstanceDescriptor::builder(customer, name)
        .bundle(bundle)
        .quota(ResourceQuota::standard())
        .build()
}

/// The host bundles every node starts (log + http + metrics), as
/// `(manifest, must_start)` pairs.
pub fn host_bundles() -> Vec<BundleManifest> {
    vec![log_manifest(), http_manifest(), metrics_manifest()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_osgi::Framework;

    fn framework_with(bundle: &str) -> Framework {
        let mut fw = Framework::new("t");
        let repo = standard_repository();
        let factory = standard_factory();
        let m = repo.manifest(bundle).unwrap().clone();
        let a = factory.create(&m);
        let id = fw.install(m, a).unwrap();
        fw.start(id).unwrap();
        fw
    }

    #[test]
    fn repository_contains_all_bundles() {
        let repo = standard_repository();
        for b in [
            LOG_BUNDLE,
            HTTP_BUNDLE,
            METRICS_BUNDLE,
            WEB_BUNDLE,
            COUNTER_ON_STOP,
            COUNTER_WRITE_THROUGH,
            COUNTER_CHECKPOINT,
        ] {
            assert!(repo.contains(b), "{b}");
        }
        assert_eq!(host_bundles().len(), 3);
    }

    #[test]
    fn log_service_responds_and_charges() {
        let mut fw = framework_with(LOG_BUNDLE);
        let sid = fw.best_service(LOG_SERVICE).unwrap();
        let out = fw.call_service(sid, "log", &Value::from("hello")).unwrap();
        assert_eq!(out.get("ok"), Some(&Value::Bool(true)));
        assert!(fw.ledger().total().cpu >= LOG_COST);
        assert!(fw.call_service(sid, "bogus", &Value::Null).is_err());
    }

    #[test]
    fn http_service_costs_scale_with_work() {
        let mut fw = framework_with(HTTP_BUNDLE);
        let sid = fw.best_service(HTTP_SERVICE).unwrap();
        fw.call_service(sid, "request", &Value::map().with("work_us", 1000i64))
            .unwrap();
        let cpu = fw.ledger().total().cpu;
        assert_eq!(cpu, SimDuration::from_millis(1));
    }

    #[test]
    fn web_service_counts_requests() {
        let mut fw = framework_with(WEB_BUNDLE);
        let sid = fw.best_service(WEB_SERVICE).unwrap();
        let r1 = fw.call_service(sid, "handle", &Value::Null).unwrap();
        let r2 = fw.call_service(sid, "handle", &Value::Null).unwrap();
        assert_eq!(r1.get("served"), Some(&Value::Int(1)));
        assert_eq!(r2.get("served"), Some(&Value::Int(2)));
        assert_eq!(r2.get("status"), Some(&Value::Int(200)));
    }

    #[test]
    fn counter_persists_on_stop_and_recovers() {
        let store = dosgi_san::SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "inst/x").unwrap();
        let repo = standard_repository();
        let factory = standard_factory();
        let m = repo.manifest(COUNTER_ON_STOP).unwrap().clone();
        let id = fw.install(m.clone(), factory.create(&m)).unwrap();
        fw.start(id).unwrap();
        let sid = fw.best_service(COUNTER_SERVICE).unwrap();
        for _ in 0..5 {
            fw.call_service(sid, "incr", &Value::Null).unwrap();
        }
        fw.shutdown();
        drop(fw);

        // Restore elsewhere: count recovered because stop persisted it.
        let fw2 = Framework::restore(
            dosgi_osgi::FrameworkConfig::new("b"),
            store,
            "inst/x",
            &factory,
        )
        .unwrap();
        let mut fw2 = fw2;
        let sid = fw2.best_service(COUNTER_SERVICE).unwrap();
        let got = fw2.call_service(sid, "get", &Value::Null).unwrap();
        assert_eq!(got, Value::Int(5));
    }

    #[test]
    fn write_through_counter_survives_unclean_loss() {
        let store = dosgi_san::SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "inst/x").unwrap();
        let repo = standard_repository();
        let factory = standard_factory();
        let m = repo.manifest(COUNTER_WRITE_THROUGH).unwrap().clone();
        let id = fw.install(m.clone(), factory.create(&m)).unwrap();
        fw.start(id).unwrap();
        let sid = fw.best_service(COUNTER_SERVICE).unwrap();
        for _ in 0..5 {
            fw.call_service(sid, "incr", &Value::Null).unwrap();
        }
        // CRASH: no shutdown; the framework object is simply dropped. The
        // framework state snapshot was persisted on lifecycle transitions
        // and the counter wrote through on every incr.
        drop(fw);
        let mut fw2 = Framework::restore(
            dosgi_osgi::FrameworkConfig::new("b"),
            store,
            "inst/x",
            &factory,
        )
        .unwrap();
        let sid = fw2.best_service(COUNTER_SERVICE).unwrap();
        assert_eq!(
            fw2.call_service(sid, "get", &Value::Null).unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn on_stop_counter_loses_context_on_crash() {
        let store = dosgi_san::SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "inst/x").unwrap();
        let repo = standard_repository();
        let factory = standard_factory();
        let m = repo.manifest(COUNTER_ON_STOP).unwrap().clone();
        let id = fw.install(m.clone(), factory.create(&m)).unwrap();
        fw.start(id).unwrap();
        let sid = fw.best_service(COUNTER_SERVICE).unwrap();
        for _ in 0..5 {
            fw.call_service(sid, "incr", &Value::Null).unwrap();
        }
        drop(fw); // crash
        let mut fw2 = Framework::restore(
            dosgi_osgi::FrameworkConfig::new("b"),
            store,
            "inst/x",
            &factory,
        )
        .unwrap();
        let sid = fw2.best_service(COUNTER_SERVICE).unwrap();
        // The paper's point: the running context is gone.
        assert_eq!(
            fw2.call_service(sid, "get", &Value::Null).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn checkpoint_counter_loses_at_most_one_period() {
        let store = dosgi_san::SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "inst/x").unwrap();
        let repo = standard_repository();
        let factory = standard_factory();
        let m = repo.manifest(COUNTER_CHECKPOINT).unwrap().clone();
        let id = fw.install(m.clone(), factory.create(&m)).unwrap();
        fw.start(id).unwrap();
        let sid = fw.best_service(COUNTER_SERVICE).unwrap();
        for _ in 0..19 {
            fw.call_service(sid, "incr", &Value::Null).unwrap();
        }
        drop(fw); // crash after 19 increments; last checkpoint at 16
        let mut fw2 = Framework::restore(
            dosgi_osgi::FrameworkConfig::new("b"),
            store,
            "inst/x",
            &factory,
        )
        .unwrap();
        let sid = fw2.best_service(COUNTER_SERVICE).unwrap();
        assert_eq!(
            fw2.call_service(sid, "get", &Value::Null).unwrap(),
            Value::Int(16)
        );
    }

    #[test]
    fn descriptors_reference_known_bundles() {
        let repo = standard_repository();
        for d in [
            web_instance("acme", "acme-web"),
            counter_instance("acme", "acme-counter"),
            counter_instance_with("acme", "acme-wt", COUNTER_WRITE_THROUGH),
        ] {
            for b in &d.bundles {
                assert!(repo.contains(b), "{b}");
            }
        }
        let d = web_instance("acme", "acme-web");
        assert_eq!(d.shared_services, vec![LOG_SERVICE]);
    }
}
