//! Cross-crate integration tests: the happy paths of the platform —
//! multi-tenant serving, shared host services, graceful migration and
//! graceful node shutdown.

use dosgi_core::{
    migration, workloads, ClusterConfig, CoreError, DosgiCluster, InstanceStatus, NodeEvent,
};
use dosgi_net::{NodeId, SimDuration};
use dosgi_san::Value;

fn cluster(n: usize, seed: u64) -> DosgiCluster {
    DosgiCluster::new(n, ClusterConfig::default(), seed)
}

/// Let the group converge on its initial view before acting.
fn warm_up(c: &mut DosgiCluster) {
    c.run_for(SimDuration::from_millis(500));
}

#[test]
fn deploy_and_serve_multiple_tenants() {
    let mut c = cluster(3, 1);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "acme-web"), 0)
        .unwrap();
    c.deploy(workloads::web_instance("globex", "globex-web"), 1)
        .unwrap();
    c.run_for(SimDuration::from_millis(500));

    assert!(c.probe("acme-web"));
    assert!(c.probe("globex-web"));
    assert_eq!(c.home_of("acme-web"), Some(0));
    assert_eq!(c.home_of("globex-web"), Some(1));

    // Requests are served and isolated per tenant.
    for i in 0..5 {
        let out = c
            .call(
                "acme-web",
                workloads::WEB_SERVICE,
                "handle",
                &Value::map().with("work_us", 200i64),
            )
            .unwrap();
        assert_eq!(out.get("status"), Some(&Value::Int(200)));
        assert_eq!(out.get("served"), Some(&Value::Int(i + 1)));
    }
    let out = c
        .call("globex-web", workloads::WEB_SERVICE, "handle", &Value::Null)
        .unwrap();
    assert_eq!(out.get("served"), Some(&Value::Int(1)), "tenants isolated");
}

#[test]
fn duplicate_names_rejected_cluster_wide() {
    let mut c = cluster(3, 2);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(300));
    let err = c
        .deploy(workloads::web_instance("other", "web"), 1)
        .unwrap_err();
    assert!(matches!(err, CoreError::DuplicateInstance(_)));
}

#[test]
fn registry_replicates_to_every_node() {
    let mut c = cluster(3, 3);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "acme-web"), 0)
        .unwrap();
    c.deploy(workloads::counter_instance("acme", "acme-counter"), 2)
        .unwrap();
    c.run_for(SimDuration::from_millis(500));

    for i in 0..3 {
        let node = c.node(i).unwrap();
        let reg = node.registry();
        assert_eq!(reg.len(), 2, "node {i} sees both instances");
        assert_eq!(reg.record("acme-web").unwrap().home, NodeId(0));
        assert_eq!(reg.record("acme-counter").unwrap().home, NodeId(2));
        assert_eq!(
            reg.record("acme-web").unwrap().status,
            InstanceStatus::Placed
        );
    }
}

#[test]
fn graceful_migration_moves_instance_and_state() {
    let mut c = cluster(3, 4);
    warm_up(&mut c);
    c.deploy(workloads::counter_instance("acme", "ctr"), 0)
        .unwrap();
    c.run_for(SimDuration::from_millis(300));
    for _ in 0..7 {
        c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .unwrap();
    }

    c.migrate("ctr", 2).unwrap();
    c.run_for(SimDuration::from_secs(2));

    assert_eq!(c.home_of("ctr"), Some(2), "instance moved");
    assert!(c.probe("ctr"));
    // Graceful migration = orderly stop = running context persisted: the
    // count survives the move (paper §3.2's stateful-bundle story).
    let got = c
        .call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
        .unwrap();
    assert_eq!(got, Value::Int(7));

    // The hand-off latency is observable and small (sub-second here).
    let events = c.take_events();
    let latency = migration::migration_latency(&events, "ctr").expect("measured");
    assert!(latency < SimDuration::from_secs(1), "latency {latency}");
    assert!(!latency.is_zero());
}

#[test]
fn migration_to_dead_or_self_is_rejected() {
    let mut c = cluster(3, 5);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(300));
    assert!(matches!(
        c.migrate("web", 0),
        Err(CoreError::BadMigration(_))
    ));
    c.crash_node(2);
    assert!(matches!(
        c.migrate("web", 2),
        Err(CoreError::BadMigration(_))
    ));
    assert!(matches!(
        c.migrate("ghost", 1),
        Err(CoreError::NotPlaced(_))
    ));
}

#[test]
fn graceful_shutdown_drains_all_instances() {
    let mut c = cluster(3, 6);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("a", "web-a"), 0).unwrap();
    c.deploy(workloads::counter_instance("b", "ctr-b"), 0)
        .unwrap();
    c.run_for(SimDuration::from_millis(500));

    c.graceful_shutdown(0);
    c.run_for(SimDuration::from_secs(3));

    // Both instances moved off node 0 and are serving again.
    assert!(c.probe("web-a"));
    assert!(c.probe("ctr-b"));
    assert_ne!(c.home_of("web-a"), Some(0));
    assert_ne!(c.home_of("ctr-b"), Some(0));
    // The drained node recorded its orderly departure.
    let events = c.take_events();
    assert!(events
        .iter()
        .any(|(n, e)| *n == NodeId(0) && matches!(e, NodeEvent::Drained { .. })));
    // Survivors agree node 0 left the view.
    for i in 1..3 {
        assert_eq!(c.node(i).unwrap().view().members.len(), 2);
    }
}

#[test]
fn shared_host_service_reachable_from_instances() {
    let mut c = cluster(2, 7);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(300));

    // The web instance's descriptor shares the host log service (Fig. 4).
    let home = c.home_of("web").unwrap();
    let node = c.node_mut(home).unwrap();
    let iid = node.manager().find_by_name("web").unwrap();
    let out = node
        .manager_mut()
        .call_service(iid, workloads::LOG_SERVICE, "log", &Value::from("hi"))
        .unwrap();
    assert_eq!(out.get("ok"), Some(&Value::Bool(true)));
}

#[test]
fn monitoring_sees_per_instance_usage() {
    let mut c = cluster(2, 8);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(300));
    // Generate load, then let sampling windows close.
    for _ in 0..50 {
        c.call(
            "web",
            workloads::WEB_SERVICE,
            "handle",
            &Value::map().with("work_us", 2000i64),
        )
        .unwrap();
        c.run_for(SimDuration::from_millis(100));
    }
    let node = c.node(0).unwrap();
    let latest = node.monitor().latest("web").expect("sampled");
    assert!(latest.cpu_share > 0.0, "cpu visible: {latest:?}");
    assert!(latest.call_rate > 0.0);
    assert_eq!(node.monitor().subjects(), vec!["web"]);
}

#[test]
fn availability_probes_feed_the_sla_tracker() {
    let mut c = cluster(2, 9);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_secs(2));
    let rec = c.sla().record("web");
    assert!(rec.up >= SimDuration::from_secs(1));
    assert_eq!(rec.outages, 0);
    assert_eq!(rec.availability(), 1.0);
}

#[test]
fn undisturbed_cluster_is_quiet_and_deterministic() {
    let run = |seed: u64| {
        let mut c = cluster(3, seed);
        warm_up(&mut c);
        c.deploy(workloads::web_instance("a", "w"), 1).unwrap();
        c.run_for(SimDuration::from_secs(2));
        let stats = c.net_mut().stats();
        (c.now(), stats.sent, stats.delivered)
    };
    // Same seed, same everything.
    assert_eq!(run(42), run(42));
    // No view churn in a healthy cluster: each node keeps the full view.
    let mut c = cluster(3, 10);
    warm_up(&mut c);
    c.run_for(SimDuration::from_secs(2));
    for i in 0..3 {
        assert_eq!(c.node(i).unwrap().view().members.len(), 3);
    }
}

#[test]
fn open_loop_load_sees_exactly_the_downtime_window() {
    use dosgi_core::loadgen::{RateSchedule, ScheduledLoadGenerator};

    let mut c = cluster(3, 30);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(500));

    // Open-loop Poisson clients at 200 req/s for 5 simulated seconds, with
    // a crash of the hosting node 1 s in.
    let mut gen = ScheduledLoadGenerator::new(RateSchedule::constant(200.0), 99, c.now());
    let crash_after = c.now() + SimDuration::from_secs(1);
    let end = c.now() + SimDuration::from_secs(5);
    let (mut ok, mut failed) = (0u64, 0u64);
    let mut crashed = false;
    while c.now() < end {
        c.step();
        if !crashed && c.now() >= crash_after {
            c.crash_node(0);
            crashed = true;
        }
        for _ in 0..gen.arrivals_until(c.now()) {
            match c.call("web", workloads::WEB_SERVICE, "handle", &Value::Null) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
    }
    assert!(c.probe("web"), "failed over during the run");
    // The failure rate must match the observed downtime fraction: with
    // ~225ms downtime out of 5s and 200 req/s, expect ~45 failures.
    let rec = c.sla().record("web");
    let expected = rec.down.as_secs_f64() * 200.0;
    assert!(failed > 0, "the outage was load-visible");
    assert!(
        (failed as f64) < expected * 2.0 + 20.0,
        "failures {failed} should track downtime ({expected:.0} expected)"
    );
    assert!(ok > 800, "most requests succeeded: {ok}");
}
