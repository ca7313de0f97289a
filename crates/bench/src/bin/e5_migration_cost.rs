//! **E5 — §3.2: "The cost of this operation is therefore comparable to a
//! normal startup of the platform, probably less."**
//!
//! Measures (in simulated time) the hand-off latency of a graceful
//! migration as the instance's persisted state grows, and compares it with
//! the modeled cold platform start (JVM + framework + base services +
//! customer bundles) and warm deploy (platform already up). The paper's
//! claim holds if migration ≈ warm deploy ≪ cold platform start.

use dosgi_bench::{print_table, shown, write_telemetry_snapshot};
use dosgi_core::{migration, workloads, ClusterConfig, DosgiCluster, START_COST_PER_BUNDLE};
use dosgi_net::SimDuration;
use dosgi_san::Value;
use dosgi_telemetry::Telemetry;

/// Modeled cold platform start (2008 numbers): JVM boot + OSGi framework
/// boot + host bundles + the customer's bundles.
fn cold_start(customer_bundles: u64) -> SimDuration {
    let jvm_boot = SimDuration::from_millis(2_000);
    let framework_boot = SimDuration::from_millis(400);
    let host_bundles = 3;
    jvm_boot + framework_boot + START_COST_PER_BUNDLE * (host_bundles + customer_bundles)
}

fn main() {
    let config = ClusterConfig::default();
    let cold = cold_start(1);
    let warm_deploy = START_COST_PER_BUNDLE; // 1 bundle, platform up

    let telemetry = Telemetry::new();
    let mut rows = Vec::new();
    let mut last_trace = None;
    for state_kib in [0u64, 64, 256, 1024, 4096] {
        let mut c =
            DosgiCluster::new_with_telemetry(3, config.clone(), 500 + state_kib, telemetry.clone());
        c.run_for(SimDuration::from_millis(500));
        c.deploy(workloads::counter_instance("bank", "ctr"), 0)
            .unwrap();
        c.run_for(SimDuration::from_millis(500));

        // Grow the instance's persisted state: write blobs into the
        // counter bundle's data area via the SAN (as the application
        // would).
        if state_kib > 0 {
            let ns = "instance/ctr/data/org.app.counter";
            let blob = vec![0u8; 1024];
            for i in 0..state_kib {
                c.store()
                    .put(ns, &format!("blob-{i}"), Value::Bytes(blob.clone()))
                    .expect("no faults armed in this benchmark");
            }
        }
        for _ in 0..5 {
            c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
                .unwrap();
        }

        // Measure the SAN traffic of the migration round itself: source
        // stop + final persist, destination restore. Change-detecting
        // writes and per-bundle snapshot rows mean only state that actually
        // changed since the last flush moves.
        c.store().reset_stats();
        c.migrate("ctr", 1).unwrap();
        c.run_for(SimDuration::from_secs(8));
        let san = c.store().stats();
        assert_eq!(c.home_of("ctr"), Some(1), "migrated");
        assert_eq!(
            c.call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
                .unwrap(),
            Value::Int(5),
            "state intact"
        );
        let events = c.take_events();
        let latency = migration::migration_latency(&events, "ctr").expect("measured");
        let downtime = c.sla().record("ctr").down;
        c.record_telemetry_gauges();
        // Keep only the last cluster's causal trace: each iteration builds a
        // fresh cluster whose per-node span sequences restart, so merging
        // across iterations would collide span ids.
        last_trace = Some(c.trace_log());
        rows.push(vec![
            format!("{state_kib} KiB"),
            format!("{latency}"),
            format!("{downtime}"),
            format!("{}", cold),
            format!("{:.1}%", 100.0 * latency.as_secs_f64() / cold.as_secs_f64()),
            format!("{}", san.bytes_written),
            format!("{}", san.bytes_read),
            format!(
                "{} ({:.0}%)",
                san.bytes_skipped,
                100.0 * san.bytes_skipped as f64
                    / (san.bytes_written + san.bytes_skipped).max(1) as f64
            ),
        ]);
    }
    print_table(
        "E5: graceful migration cost vs persisted state size (simulated time)",
        &[
            "state",
            "hand-off latency",
            "observed downtime",
            "cold platform start",
            "migration/cold",
            "SAN B written",
            "SAN B read",
            "SAN B skipped (saved)",
        ],
        &rows,
    );

    println!("\nwarm deploy on a running platform (1 bundle): {warm_deploy}");
    println!("cold platform start (JVM+framework+base+1 bundle): {cold}");
    println!(
        "\nShape check (paper §3.2): migration ≈ warm start ≪ cold start — the \
         destination already runs the platform and base services, so only the \
         instance's bundles start and its state is read from the SAN."
    );
    write_telemetry_snapshot(&telemetry, "e5_migration", 500);
    // Export the 4 MiB run's causal trace: the canonical migration timeline
    // (quiesce → persist → registry hand-off → adopt) for `trace_check`.
    if let Some(trace) = last_trace {
        let dir = dosgi_testkit::workspace_root().join("results");
        match std::fs::create_dir_all(&dir).and_then(|()| trace.write_to(&dir, "e5_migration", 500))
        {
            Ok(path) => println!("causal trace: {}", shown(&path)),
            Err(e) => eprintln!("could not write causal trace: {e}"),
        }
    }
}
