//! **E14 — live bundle hot-swap and rolling upgrades under traffic.**
//!
//! The paper's platform promises customers that maintenance is invisible:
//! a bundle revision is swapped *in place* — quiesce the old version,
//! persist its state through the SAN, adopt it in the new version — while
//! the node keeps serving every other bundle. Two measurements pin that
//! claim, both deterministic on the simulated clock:
//!
//! 1. **Per-upgrade blackout vs state size** — the service interruption of
//!    one in-place hot-swap (final state persist + activator swap) against
//!    the same instance's whole-instance migration hand-off. At
//!    counter-scale state the blackout is µs-scale and **≥100× below**
//!    the migration path; at megabyte state both converge towards the
//!    SAN transfer cost, which is the honest bound.
//! 2. **A rolling wave over a loaded 8-node cluster** — an open-loop
//!    Poisson workload (half of aggregate capacity) runs through an ipvs
//!    director with admission control while an [`UpgradeWave`] visits all
//!    eight nodes: drain (work-conserving — queued requests still
//!    complete), hot-swap every local instance, un-drain, move on. The
//!    wave must complete with **zero shed requests and zero missed
//!    SLO deadlines**, every counter's state intact, and every per-bundle
//!    blackout µs-scale.
//!
//! The run's merged causal trace (node recorders + the director's drain /
//! un-drain spans) is exported to `results/trace_e14_hot_swap.json` and
//! checked by the `trace_check` bin against the upgrade-ordering rules:
//! adopt only after quiesce+persist closed, no serving inside a quiesce
//! window, un-drain only after every adopt. Metrics land in
//! `results/telemetry_e14.json`.

use dosgi_bench::{print_table, shown, write_telemetry_snapshot};
use dosgi_core::loadgen::{ClassMix, RateSchedule, ScheduledLoadGenerator};
use dosgi_core::upgrade::{UpgradeWave, WaveHooks};
use dosgi_core::{workloads, ClusterConfig, DosgiCluster, NodeEvent};
use dosgi_ipvs::{replicated_service, AdmissionConfig, IpvsDirector, Scheduler};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SocketAddr};
use dosgi_osgi::Version;
use dosgi_san::Value;
use dosgi_telemetry::{FlightRecorder, Telemetry, TraceContext, TraceLog};

const SEED: u64 = 14;
const VIP: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 140), Port(80));
/// One backend's deterministic service capacity (requests/second).
const CAPACITY: u64 = 2_000;
const NODES: usize = 8;

/// Steps the cluster until the next `BundleUpgraded` event and returns its
/// blackout, or `None` if `limit` passes first.
fn await_upgrade(c: &mut DosgiCluster, limit: SimDuration) -> Option<SimDuration> {
    let deadline = c.now() + limit;
    while c.now() < deadline {
        c.step();
        for (_, ev) in c.take_events() {
            match ev {
                NodeEvent::BundleUpgraded { blackout, .. } => return Some(blackout),
                NodeEvent::UpgradeFailed { error, .. } => {
                    panic!("upgrade failed on a fault-free SAN: {error}")
                }
                _ => {}
            }
        }
    }
    None
}

/// E14a: one instance, growing state. Hot-swap blackout vs the
/// whole-instance migration hand-off for the same state size.
fn blackout_vs_migration() {
    let mut rows = Vec::new();
    let mut small_ratio = 0f64;
    for &kib in &[0usize, 64, 256, 1024] {
        let mut c = DosgiCluster::new(2, ClusterConfig::default(), SEED);
        c.run_for(SimDuration::from_millis(500));
        c.deploy(
            workloads::counter_instance_with("bank", "ctr", workloads::COUNTER_WRITE_THROUGH),
            0,
        )
        .expect("deploy");
        c.run_for(SimDuration::from_secs(1));
        // Bulk state riding in the bundle's data area, 1 KiB per row.
        let ns = format!("instance/ctr/data/{}", workloads::COUNTER_WRITE_THROUGH);
        let blob = vec![0u8; 1024];
        for i in 0..kib {
            c.store()
                .put(&ns, &format!("blob-{i}"), Value::Bytes(blob.clone()))
                .expect("no faults armed");
        }
        for _ in 0..5 {
            c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
                .expect("incr");
        }
        // The hot swap: 1.0.0 -> 1.1.0 in place.
        c.upgrade_bundle(
            "ctr",
            workloads::counter_manifest_at(workloads::COUNTER_WRITE_THROUGH, Version::new(1, 1, 0)),
        )
        .expect("request upgrade");
        let blackout = await_upgrade(&mut c, SimDuration::from_secs(10)).expect("upgrade lands");
        assert_eq!(
            c.call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
                .expect("get"),
            Value::Int(5),
            "state survived the swap at {kib} KiB"
        );
        // The comparison path: migrate the same instance (same state) to
        // the other node and clock the hand-off.
        let t0 = c.now().as_micros();
        c.migrate("ctr", 1).expect("migrate");
        let deadline = c.now() + SimDuration::from_secs(30);
        while c.now() < deadline && !(c.home_of("ctr") == Some(1) && c.probe("ctr")) {
            c.step();
        }
        assert_eq!(c.home_of("ctr"), Some(1), "migration completed");
        let migration_us = c.now().as_micros() - t0;
        let blackout_us = blackout.as_micros();
        let ratio = migration_us as f64 / blackout_us.max(1) as f64;
        if kib == 0 {
            small_ratio = ratio;
        }
        rows.push(vec![
            format!("{kib} KiB"),
            format!("{blackout_us} µs"),
            format!("{:.1} ms", migration_us as f64 / 1000.0),
            format!("{ratio:.0}x"),
        ]);
    }
    print_table(
        "E14a: in-place hot-swap blackout vs whole-instance migration",
        &[
            "state",
            "swap blackout",
            "migration hand-off",
            "migration/blackout",
        ],
        &rows,
    );
    assert!(
        small_ratio >= 100.0,
        "at counter-scale state the hot-swap blackout must be >=100x below \
         the migration hand-off, got {small_ratio:.0}x"
    );
}

/// [`WaveHooks`] backed by the ipvs director: drain/un-drain the in-flight
/// node with causal spans, the un-drain joining the finished upgrade's
/// trace so `trace_check` can verify "un-drain after adopt".
struct DirectorHooks<'a> {
    d: &'a mut IpvsDirector,
}

impl WaveHooks for DirectorHooks<'_> {
    fn drain(&mut self, node: NodeId, now_us: u64) {
        self.d.drain_node_traced(node, None, now_us);
    }
    fn undrain(&mut self, node: NodeId, ctx: Option<TraceContext>, now_us: u64) {
        self.d.undrain_node_traced(node, ctx, now_us);
    }
}

/// E14b: the rolling wave over a loaded cluster.
fn rolling_wave_under_traffic(telemetry: &Telemetry) {
    let mut cluster =
        DosgiCluster::new_with_telemetry(NODES, ClusterConfig::default(), SEED, telemetry.clone());
    cluster.run_for(SimDuration::from_millis(500));
    for i in 0..NODES {
        cluster
            .deploy(
                workloads::counter_instance_with(
                    &format!("cust-{i}"),
                    &format!("ctr-{i}"),
                    workloads::COUNTER_WRITE_THROUGH,
                ),
                i,
            )
            .expect("deploy");
    }
    cluster.run_for(SimDuration::from_secs(1));

    let mut d = IpvsDirector::new();
    d.set_telemetry(telemetry.clone());
    d.set_recorder(FlightRecorder::new(NODES as u64));
    let backends: Vec<NodeId> = (0..NODES).map(|i| NodeId(i as u32)).collect();
    d.add_service(
        replicated_service(VIP, Scheduler::RoundRobin, &backends)
            .with_admission(AdmissionConfig::per_second(CAPACITY, 64)),
    );
    // Half of aggregate capacity: loaded, not overloaded — any shed or
    // missed deadline during the wave is the wave's fault.
    let rate = (NODES as u64 * CAPACITY) as f64 / 2.0;
    let mut gen = ScheduledLoadGenerator::new(RateSchedule::constant(rate), SEED, cluster.now());
    let mut mix = ClassMix::standard_web(SEED);
    let mut client = 0u64;
    let mut good = 0u64;
    let mut missed = 0u64;
    let mut acked = [0i64; NODES];

    let manifest =
        workloads::counter_manifest_at(workloads::COUNTER_WRITE_THROUGH, Version::new(1, 1, 0));
    let mut wave = UpgradeWave::new(manifest, (0..NODES).collect(), SimDuration::from_secs(10));
    let mut tick = 0usize;
    // 2s of pre-load, then the wave starts; keep serving 2s after it ends.
    let mut cooldown_until = None;
    loop {
        cluster.step();
        let now = cluster.now();
        let now_us = now.as_micros();
        for _ in 0..gen.arrivals_until(now) {
            client += 1;
            let _ = d.admit(client, VIP, mix.sample(), now_us);
        }
        for c in d.drain(VIP, now_us) {
            if c.missed_deadline() {
                missed += 1;
            } else {
                good += 1;
            }
        }
        // Real cluster traffic too: one increment per tick, round-robin
        // over the instances — including the one being hot-swapped.
        let i = tick % NODES;
        if cluster
            .call(
                &format!("ctr-{i}"),
                workloads::COUNTER_SERVICE,
                "incr",
                &Value::Null,
            )
            .is_ok()
        {
            acked[i] += 1;
        }
        tick += 1;
        let events = cluster.take_events();
        if tick >= 400 && cooldown_until.is_none() {
            let mut hooks = DirectorHooks { d: &mut d };
            if wave.step(&mut cluster, &events, &mut hooks) {
                cooldown_until = Some(now + SimDuration::from_secs(2));
            }
        }
        if let Some(until) = cooldown_until {
            if now >= until {
                break;
            }
        }
    }

    let report = wave.into_report();
    let stats = d.stats();
    let rows: Vec<Vec<String>> = report
        .upgraded
        .iter()
        .map(|u| {
            vec![
                u.instance.clone(),
                format!("n{}", u.node),
                format!("{} -> {}", u.from, u.to),
                format!("{} µs", u.blackout.as_micros()),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E14b: rolling wave over {NODES} loaded nodes ({rate:.0}/s offered, \
             {good} in-SLO completions, {} shed, {missed} SLO misses)",
            stats.shed
        ),
        &["instance", "node", "swap", "blackout"],
        &rows,
    );

    assert_eq!(
        report.upgraded.len(),
        NODES,
        "every instance hot-swapped: {:?}",
        report.failed
    );
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert!(
        report.skipped_nodes.is_empty(),
        "skipped: {:?}",
        report.skipped_nodes
    );
    assert_eq!(stats.shed, 0, "the wave must not shed a single request");
    assert_eq!(missed, 0, "the wave must not cost a single SLO deadline");
    assert!(good > 0, "traffic actually flowed");
    for u in &report.upgraded {
        assert!(
            u.blackout < SimDuration::from_millis(5),
            "{}: blackout {:?} is not µs-scale",
            u.instance,
            u.blackout
        );
    }
    // Every acknowledged increment survived its instance's hot swap.
    for (i, &acked) in acked.iter().enumerate() {
        let got = cluster
            .call(
                &format!("ctr-{i}"),
                workloads::COUNTER_SERVICE,
                "get",
                &Value::Null,
            )
            .expect("get after the wave");
        assert_eq!(
            got,
            Value::Int(acked),
            "ctr-{i} lost state across its hot swap"
        );
        assert!(cluster.probe(&format!("ctr-{i}")), "ctr-{i} serving");
    }

    // Export the merged causal trace: node recorders + the director's
    // drain/un-drain spans, for the trace_check upgrade-ordering rules.
    let mut recorders: Vec<&FlightRecorder> = Vec::new();
    for i in 0..NODES {
        if let Some(n) = cluster.node(i) {
            recorders.push(n.recorder());
        }
    }
    recorders.push(d.recorder());
    let log = TraceLog::merge(recorders);
    assert!(
        log.events.iter().any(|e| e.name.starts_with("u_adopt/")),
        "the wave's handoff spans are in the merged trace"
    );
    assert!(
        log.events.iter().any(|e| e.name.starts_with("undrain/")),
        "the director's un-drain spans are in the merged trace"
    );
    let dir = dosgi_testkit::workspace_root().join("results");
    match log.write_to(&dir, "e14_hot_swap", SEED) {
        Ok(p) => println!("causal trace: {}", shown(&p)),
        Err(e) => panic!("could not write the e14 trace: {e}"),
    }
}

fn main() {
    let telemetry = Telemetry::new();
    blackout_vs_migration();
    rolling_wave_under_traffic(&telemetry);
    write_telemetry_snapshot(&telemetry, "e14", SEED);
    println!(
        "\nShape check (paper §3.2, upgrades): an in-place hot-swap blacks out \
         one bundle for microseconds — two orders of magnitude under the \
         migration path — and a rolling wave over a loaded cluster upgrades \
         every node without shedding a request or missing an SLO deadline."
    );
}
