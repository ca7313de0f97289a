//! Failure-injection integration tests: crashes, failover, partitions,
//! restarts, compound failures, and the replication extension.

use dosgi_core::{migration, replication, workloads, ClusterConfig, DosgiCluster};
use dosgi_gcs::GcsConfig;
use dosgi_net::{NodeId, Partition, SimDuration};
use dosgi_san::Value;

fn cluster(n: usize, seed: u64) -> DosgiCluster {
    DosgiCluster::new(n, ClusterConfig::default(), seed)
}

fn warm_up(c: &mut DosgiCluster) {
    c.run_for(SimDuration::from_millis(500));
}

#[test]
fn crash_fails_over_stateless_instance() {
    let mut c = cluster(3, 11);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(500));
    assert_eq!(c.home_of("web"), Some(0));

    let crash_at = c.now();
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(3));

    // The instance came back on a survivor.
    assert!(c.probe("web"), "redeployed after failover");
    let new_home = c.home_of("web").unwrap();
    assert_ne!(new_home, 0);
    // And it serves requests again.
    let out = c
        .call("web", workloads::WEB_SERVICE, "handle", &Value::Null)
        .unwrap();
    assert_eq!(out.get("status"), Some(&Value::Int(200)));

    // Failover latency is dominated by detection + agreement; with LAN GCS
    // defaults it lands well under 2 seconds.
    let events = c.take_events();
    let latency = migration::failover_latency(&events, "web", crash_at).expect("adopted");
    assert!(latency < SimDuration::from_secs(2), "latency {latency}");
    // Downtime was observed by the SLA tracker.
    let rec = c.sla().record("web");
    assert_eq!(rec.outages, 1);
    assert!(rec.down > SimDuration::ZERO);
}

#[test]
fn crash_loses_uncheckpointed_running_context() {
    let mut c = cluster(3, 12);
    warm_up(&mut c);
    c.deploy(workloads::counter_instance("acme", "ctr"), 0)
        .unwrap();
    c.run_for(SimDuration::from_millis(500));
    for _ in 0..9 {
        c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .unwrap();
    }
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(3));
    assert!(c.probe("ctr"));
    // The paper's §3.2 semantics: a crashed stateful bundle's running
    // context is lost; only persisted state survives (none was persisted).
    let got = c
        .call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
        .unwrap();
    assert_eq!(got, Value::Int(0));
}

#[test]
fn write_through_context_survives_crash() {
    let mut c = cluster(3, 13);
    warm_up(&mut c);
    c.deploy(
        workloads::counter_instance_with("acme", "ctr", workloads::COUNTER_WRITE_THROUGH),
        0,
    )
    .unwrap();
    c.run_for(SimDuration::from_millis(500));
    for _ in 0..9 {
        c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .unwrap();
    }
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(3));
    let got = c
        .call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
        .unwrap();
    assert_eq!(got, Value::Int(9), "write-through loses nothing");
}

#[test]
fn checkpointed_context_loses_at_most_one_period() {
    let mut c = cluster(3, 14);
    warm_up(&mut c);
    c.deploy(
        workloads::counter_instance_with("acme", "ctr", workloads::COUNTER_CHECKPOINT),
        0,
    )
    .unwrap();
    c.run_for(SimDuration::from_millis(500));
    for _ in 0..19 {
        c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .unwrap();
    }
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(3));
    let got = c
        .call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
        .unwrap();
    // Checkpoints every 8: 19 increments → last checkpoint at 16.
    assert_eq!(got, Value::Int(16));
}

#[test]
fn multiple_orphans_spread_across_survivors() {
    let mut c = cluster(4, 15);
    warm_up(&mut c);
    for i in 0..4 {
        c.deploy(workloads::web_instance("acme", &format!("web-{i}")), 0)
            .unwrap();
    }
    c.run_for(SimDuration::from_millis(500));
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(4));
    let homes: Vec<usize> = (0..4)
        .map(|i| c.home_of(&format!("web-{i}")).expect("placed"))
        .collect();
    for (i, h) in homes.iter().enumerate() {
        assert_ne!(*h, 0, "web-{i} left the dead node");
        assert!(c.probe(&format!("web-{i}")));
    }
    // FewestInstances placement spreads 4 orphans over 3 survivors: no
    // survivor takes more than 2.
    for survivor in 1..4 {
        let n = homes.iter().filter(|h| **h == survivor).count();
        assert!(n <= 2, "survivor {survivor} took {n}");
    }
}

#[test]
fn coordinator_crash_is_survivable() {
    // Node 0 is both the GCS coordinator and the sequencer; killing it
    // exercises view agreement + sequencer failover + instance failover at
    // once.
    let mut c = cluster(3, 16);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(500));
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(4));
    assert!(c.probe("web"));
    for i in 1..3 {
        assert_eq!(c.node(i).unwrap().view().coordinator(), Some(NodeId(1)));
    }
}

#[test]
fn source_crash_mid_migration_recovers_via_failover() {
    let mut c = cluster(3, 17);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(500));
    // Order the migration, then kill the source before it can complete.
    c.migrate("web", 1).unwrap();
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(4));
    assert!(c.probe("web"), "stranded migration recovered");
    assert_ne!(c.home_of("web"), Some(0));
}

#[test]
fn destination_crash_mid_migration_recovers_via_failover() {
    let mut c = cluster(3, 18);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(500));
    c.migrate("web", 2).unwrap();
    c.crash_node(2);
    c.run_for(SimDuration::from_secs(4));
    assert!(c.probe("web"), "stranded migration recovered");
    let home = c.home_of("web").unwrap();
    assert_ne!(home, 2, "not on the dead destination");
}

#[test]
fn minority_partition_does_not_fail_over() {
    let mut c = cluster(5, 19);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(500));

    // Split 2 vs 3; the instance's home (n0) is in the minority.
    c.partition(Partition::split([
        vec![NodeId(0), NodeId(1)],
        vec![NodeId(2), NodeId(3), NodeId(4)],
    ]));
    c.run_for(SimDuration::from_secs(3));

    // The minority peer (n1) must not have adopted the instance — only a
    // majority component may act on suspected failures.
    assert!(
        !c.node(1).unwrap().probe_local("web"),
        "minority node adopted despite no quorum"
    );
    // The majority side is allowed to adopt it (n0 looks dead from there).
    let majority_copies = (2..5)
        .filter(|i| c.node(*i).unwrap().probe_local("web"))
        .count();
    assert!(majority_copies <= 1, "at most one majority adoption");

    // After healing, the cluster reconverges to one authoritative home.
    c.heal();
    c.run_for(SimDuration::from_secs(3));
    assert!(c.probe("web"));
    for i in 0..5 {
        assert_eq!(
            c.node(i).unwrap().view().members.len(),
            5,
            "node {i} healed"
        );
    }
}

#[test]
fn restarted_node_rejoins_and_syncs_registry() {
    let mut c = cluster(3, 20);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 1).unwrap();
    c.run_for(SimDuration::from_millis(500));
    c.crash_node(2);
    c.run_for(SimDuration::from_secs(2));

    c.restart_node(2);
    c.run_for(SimDuration::from_secs(3));
    // Back in the view…
    assert_eq!(c.node(0).unwrap().view().members.len(), 3);
    // …and caught up on the replicated registry via its view change's
    // RegistryTransfer.
    let reg = c.node(2).unwrap().registry();
    assert_eq!(reg.record("web").unwrap().home, NodeId(1));
}

#[test]
fn cascading_failures_without_majority_stop_failover() {
    let mut c = cluster(3, 21);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_millis(500));

    c.crash_node(0);
    c.run_for(SimDuration::from_secs(3));
    assert!(c.probe("web"), "first failover worked");
    let second_home = c.home_of("web").unwrap();

    // Crash the new home too: the single survivor is not a majority of the
    // 3-node universe, so it must NOT adopt (split-brain discipline).
    c.crash_node(second_home);
    c.run_for(SimDuration::from_secs(3));
    assert!(!c.probe("web"), "no majority, no failover");
    let survivor = (0..3).find(|i| c.node(*i).is_some()).unwrap();
    assert!(!c.node(survivor).unwrap().probe_local("web"));
}

#[test]
fn hot_standby_beats_cold_rematerialization() {
    // Two identical clusters; one pre-creates a standby for the instance.
    let run = |standby: bool, seed: u64| {
        let mut c = cluster(3, seed);
        warm_up(&mut c);
        c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(500));
        if standby {
            // Place the standby where failover will land: FewestInstances
            // picks the least-loaded survivor (node 1).
            replication::prepare_standby(&mut c, "web", 1).unwrap();
            c.run_for(SimDuration::from_millis(200));
        }
        let crash_at = c.now();
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(3));
        assert!(c.probe("web"));
        let events = c.take_events();
        migration::failover_latency(&events, "web", crash_at).expect("adopted")
    };
    let cold = run(false, 22);
    let hot = run(true, 22);
    assert!(
        hot < cold,
        "standby failover ({hot}) should beat cold re-materialization ({cold})"
    );
}

#[test]
fn fast_failure_detection_shrinks_downtime() {
    let run = |gcs: GcsConfig, seed: u64| {
        let mut config = ClusterConfig::default();
        config.node.gcs = gcs;
        let mut c = DosgiCluster::new(3, config, seed);
        warm_up(&mut c);
        c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(500));
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(4));
        assert!(c.probe("web"));
        c.sla().record("web").down
    };
    // 50ms heartbeat / 200ms timeout, then 10ms / 40ms.
    let slow = run(GcsConfig::lan(), 23);
    let fast = run(
        GcsConfig::lan().with_heartbeat(SimDuration::from_millis(10)),
        23,
    );
    assert!(
        fast < slow,
        "aggressive detection ({fast}) should beat LAN defaults ({slow})"
    );
}

#[test]
fn lossy_network_still_converges() {
    let config = ClusterConfig {
        link: dosgi_net::LinkConfig::lossy(0.05),
        ..ClusterConfig::default()
    };
    let mut c = DosgiCluster::new(3, config, 24);
    warm_up(&mut c);
    c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
    c.run_for(SimDuration::from_secs(1));
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(6));
    assert!(c.probe("web"), "failover despite 5% message loss");
}

#[test]
fn consolidation_then_wake_and_scale_back_out() {
    // §4's full elasticity loop: idle instances consolidate onto one node
    // (freed nodes hibernate), then demand returns, the operator wakes a
    // node and moves load back onto it.
    let mut config = ClusterConfig::default();
    config.node.policy = Some(format!(
        "{}{}",
        dosgi_core::autonomic::DEFAULT_POLICY,
        dosgi_core::autonomic::CONSOLIDATION_POLICY
    ));
    let mut c = DosgiCluster::new(3, config, 31);
    c.run_for(SimDuration::from_secs(1));
    for i in 0..3 {
        c.deploy(workloads::web_instance("idle", &format!("idle-{i}")), i)
            .unwrap();
    }
    // Idle long enough for the rolling consolidation to finish.
    c.run_for(SimDuration::from_secs(25));
    assert!(c.hibernated_nodes() >= 1, "someone hibernated");
    for i in 0..3 {
        assert!(c.probe(&format!("idle-{i}")), "idle-{i} still served");
    }

    // Demand returns: wake a hibernated node and move an instance onto it.
    let sleeping = (0..3)
        .find(|i| {
            c.node(*i)
                .map(|n| n.state() == dosgi_core::NodeState::Hibernated)
                .unwrap_or(false)
        })
        .expect("a hibernated node exists");
    // Waking is a restart: empty volatile state, and the SAN still holds
    // everything durable.
    c.restart_node(sleeping);
    c.run_for(SimDuration::from_secs(2));

    c.migrate("idle-0", sleeping).unwrap();
    // Demand is back: drive load so the instances are no longer idle and
    // the consolidation rule stops firing (node_cpu >= 5%).
    let end = c.now() + SimDuration::from_secs(4);
    let mut landed = false;
    while c.now() < end {
        for i in 0..3 {
            let _ = c.call(
                &format!("idle-{i}"),
                workloads::WEB_SERVICE,
                "handle",
                &Value::map().with("work_us", 40_000i64),
            );
        }
        c.run_for(SimDuration::from_millis(100));
        landed |= c.home_of("idle-0") == Some(sleeping);
    }
    assert!(landed, "idle-0 ran on the woken node");
    for i in 0..3 {
        assert!(c.probe(&format!("idle-{i}")), "idle-{i} serving under load");
    }
}

// ---------------------------------------------------------------------
// Storage faults (the fallible SAN) combined with node failures.
// ---------------------------------------------------------------------

/// A node crash *during* a SAN brown-out: the failover claim still wins
/// (claims ride the GCS, not the SAN), but re-materialization cannot read
/// the persisted state. The adopter retries with backoff, exhausts the
/// retry budget, quarantines the instance — and heals it automatically
/// once the SAN answers again, with the write-through state intact. At no
/// point does a second live copy appear.
#[test]
fn crash_during_san_brownout_quarantines_then_heals() {
    use dosgi_core::{InstanceStatus, NodeEvent};
    use dosgi_san::FaultPlan;

    let mut c = cluster(3, 21);
    warm_up(&mut c);
    c.deploy(
        workloads::counter_instance_with("acme", "ctr", workloads::COUNTER_WRITE_THROUGH),
        0,
    )
    .unwrap();
    c.run_for(SimDuration::from_millis(500));
    for _ in 0..5 {
        c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .unwrap();
    }

    // SAN goes dark, then the home crashes while it is dark.
    let far = c.now() + SimDuration::from_secs(3600);
    c.set_fault_plan(FaultPlan::none().with_brownout(c.now(), far));
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(4));

    let events = c.take_events();
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, NodeEvent::AdoptRetried { name, .. } if &**name == "ctr")),
        "adoption was retried against the dark SAN"
    );
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, NodeEvent::Quarantined { name, .. } if &**name == "ctr")),
        "retry budget exhausted: instance quarantined"
    );
    let survivor = c.running_nodes()[0];
    assert_eq!(
        c.node(survivor)
            .unwrap()
            .registry()
            .record("ctr")
            .unwrap()
            .status,
        InstanceStatus::Quarantined
    );
    // No live copy anywhere — and in particular not two.
    let live = (0..c.len())
        .filter(|i| c.node(*i).map(|n| n.probe_local("ctr")).unwrap_or(false))
        .count();
    assert_eq!(live, 0, "no live copy while quarantined");

    // SAN heals: the quarantined home re-claims and re-materializes.
    c.clear_faults();
    c.run_for(SimDuration::from_secs(4));
    assert!(c.probe("ctr"), "re-materialized after SAN heal");
    let live: Vec<usize> = (0..c.len())
        .filter(|i| c.node(*i).map(|n| n.probe_local("ctr")).unwrap_or(false))
        .collect();
    assert_eq!(live.len(), 1, "exactly one live copy: {live:?}");
    // Write-through state survived the whole ordeal.
    let out = c
        .call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
        .unwrap();
    assert_eq!(out, Value::Int(6), "counter resumed from persisted state");
}

/// A crash while the SAN is merely *flaky* (transient failures, 30% rate):
/// the retry/backoff discipline absorbs the errors and failover completes
/// without quarantine — availability degrades gracefully instead of
/// panicking or duplicating.
#[test]
fn crash_during_flaky_san_fails_over_via_retries() {
    use dosgi_san::FaultPlan;

    let mut c = cluster(3, 22);
    warm_up(&mut c);
    c.deploy(
        workloads::counter_instance_with("acme", "ctr", workloads::COUNTER_WRITE_THROUGH),
        0,
    )
    .unwrap();
    c.run_for(SimDuration::from_millis(500));
    for _ in 0..3 {
        c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .unwrap();
    }

    c.set_fault_plan(FaultPlan::flaky(0.30, 0xF1A57));
    c.crash_node(0);
    c.run_for(SimDuration::from_secs(6));
    c.clear_faults();
    c.run_for(SimDuration::from_secs(2));

    assert!(c.probe("ctr"), "failed over through the flakiness");
    let live: Vec<usize> = (0..c.len())
        .filter(|i| c.node(*i).map(|n| n.probe_local("ctr")).unwrap_or(false))
        .collect();
    assert_eq!(live.len(), 1, "exactly one live copy: {live:?}");
    let out = c
        .call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
        .unwrap();
    assert_eq!(out, Value::Int(4), "no acknowledged increment lost");
}

/// Regression for the rejoin-replay growth: with node 0 — the sequencer —
/// never restarted, a crash → adopt → restart → rejoin round costs the
/// same at round 50 as at round 5. Before joiners started at the
/// sequencer's stream position, each rejoin replayed the whole ordered
/// history, so registry ops and messages per round grew with the cluster's
/// age (round 5: 58 ops, 1 167 messages; round 50: 283 and 1 392).
#[test]
fn failover_round_costs_the_same_at_round_5_and_round_50() {
    let rounds = dosgi_core::chaos::failover_round_costs(50);
    assert_eq!(
        rounds[4], rounds[49],
        "[ordered deliveries, registry ops, messages sent] at round 5 vs round 50"
    );
}
