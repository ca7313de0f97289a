//! **CI perf guard**: the exact rows.
//!
//! Every row replays a deterministic scenario — fixed seed, simulated clock —
//! whose counts are exactly reproducible, and holds them against a committed
//! baseline under `results/` with a 10% tolerance: a move is a change in what
//! the code does, never noise.
//!
//! | row | scenario | guarded (↑ ceiling, ↓ floor) | baseline |
//! |---|---|---|---|
//! | `e5` | E5 migration round: a counter with a 256 KiB data area handed 0 → 1 | `bytes_written` ↑, `bytes_read` ↑ (blowing change detection or per-row persistence is a bug) | `perf_baseline_e5.json` |
//! | `migrate_reads` | one benchmark-shaped `migrate` round (incr → migrate → adopted → incr) of a counter whose data area holds 64, then 256, 1 KiB rows it never reads | SAN `rows_read` ↑ and `bytes_read` ↑, which must be *equal* for the two areas and at most 4 rows: what an adoption reads is what its calls ask for, not the area | `perf_baseline_migrate_reads.json` |
//! | `handoff` | the two ends of a hand-off at the instance manager: a one-bundle persist-on-stop counter beside 4, then 1 024, 1 KiB rows it never reads, released (stop + destroy keeping its state) and adopted | SAN operations and rows written by each end ↑, rows read by the adoption ↑: 1 area flush + 1 `put_many` to release, 1 `read_namespace` + 1 area read + 1 `put_many` to adopt — more operations, or anything that differs between the two areas, is broken | `perf_baseline_handoff.json` |
//! | `admission` | E15 admission hot path: one backend at 2 000/s, 64-deep queue, 2× open-loop Poisson load, class mix, 10 simulated seconds | `completed` ↓ (a drain that stops being work-conserving), `shed` ↑ (shedding more at the same load); `offered` recorded | `perf_baseline_e15_admission.json` |
//! | `hot_swap` | E14 counter-scale in-place upgrade 1.0.0 → 1.1.0 on a fault-free SAN | modeled `blackout_us` ↑ (an extra flush, a fatter persist, a slower swap) | `perf_baseline_e14.json` |
//! | `failover_rounds` | 40 crash → adopt → restart → rejoin rounds, node 0 (the sequencer) never restarted | `ordered_delivered` ↑, `registry_ops` ↑, `net_sent` ↑ per round, and round 40 must cost *exactly* what round 5 cost (a rejoin that replays history, or a sequencer that stops truncating, grows them with the cluster's age) | `perf_baseline_failover_rounds.json` |
//!
//! Wall-clock cost is not guarded here: the stand-alone `benchmark/` package
//! measures it (calibrated, ten repetitions), and steady-state allocation
//! counts are pinned by the `alloc_guard` tests.
//!
//! To accept an intentional change, regenerate the baselines with
//! `PERF_GUARD_WRITE_BASELINE=1 cargo run --release -p dosgi-bench --bin
//! perf_guard` and commit the new JSON.

use dosgi_core::loadgen::{ClassMix, RateSchedule, ScheduledLoadGenerator};
use dosgi_core::{workloads, ClusterConfig, DosgiCluster, NodeEvent};
use dosgi_ipvs::{replicated_service, AdmissionConfig, IpvsDirector, Scheduler};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SimTime, SocketAddr};
use dosgi_osgi::{Framework, Version};
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::Telemetry;
use dosgi_testkit::Json;
use dosgi_vosgi::InstanceManager;

const TOLERANCE: f64 = 0.10;

/// How a measured field is held against its baseline value.
#[derive(Clone, Copy)]
enum Bound {
    /// May not exceed the baseline by more than [`TOLERANCE`].
    Ceiling,
    /// May not fall below the baseline by more than [`TOLERANCE`].
    Floor,
    /// Written to the baseline for the reader; not compared.
    Recorded,
}
use Bound::{Ceiling, Floor, Recorded};

/// One guarded scenario, measured.
struct Row {
    /// Label in the output (`perf_guard[<name>]`).
    name: String,
    /// What was measured, in words.
    summary: String,
    /// Baseline file under `results/`.
    file: String,
    /// The string fields heading the baseline file.
    tags: Vec<(&'static str, String)>,
    fields: Vec<(&'static str, u64, Bound)>,
    /// What is wrong with the measurement on its own terms, baseline or not.
    broken: Option<&'static str>,
}

/// A settled three-node cluster with a persist-on-stop counter on node 0
/// whose data area holds `blobs` 1 KiB rows beside its count.
fn counter_with_area(blobs: usize) -> DosgiCluster {
    let mut c = DosgiCluster::new(3, ClusterConfig::default(), 500);
    c.run_for(SimDuration::from_millis(500));
    c.deploy(workloads::counter_instance("bank", "ctr"), 0)
        .unwrap();
    c.run_for(SimDuration::from_millis(500));
    let ns = "instance/ctr/data/org.app.counter";
    let blob = vec![0u8; 1024];
    for i in 0..blobs {
        c.store()
            .put(ns, &format!("blob-{i}"), Value::Bytes(blob.clone()))
            .expect("no faults armed");
    }
    c
}

fn incr(c: &mut DosgiCluster) -> Value {
    c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
        .unwrap()
}

/// The deterministic migration round: a counter with a 256 KiB data area
/// on node 0, five increments, then migrated to node 1. Returns the SAN
/// bytes written/read during the round itself.
fn measure_migration() -> (u64, u64) {
    let mut c = counter_with_area(256);
    for _ in 0..5 {
        incr(&mut c);
    }
    c.store().reset_stats();
    c.migrate("ctr", 1).unwrap();
    c.run_for(SimDuration::from_secs(8));
    let s = c.store().stats();
    assert_eq!(c.home_of("ctr"), Some(1), "migrated");
    assert_eq!(
        c.call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
            .unwrap(),
        Value::Int(5),
        "state intact"
    );
    (s.bytes_written, s.bytes_read)
}

/// One round of the benchmark's `migrate` workload — incr, migrate, wait
/// for the adoption, incr — on a counter beside `blobs` rows it never
/// reads. Returns the SAN rows and bytes read during the round.
fn measure_migrate_reads(blobs: usize) -> (u64, u64) {
    let mut c = counter_with_area(blobs);
    c.store().reset_stats();
    assert_eq!(incr(&mut c), Value::Int(1));
    c.migrate("ctr", 1).unwrap();
    c.run_for(SimDuration::from_secs(8));
    assert_eq!(c.home_of("ctr"), Some(1), "migrated");
    assert_eq!(incr(&mut c), Value::Int(2), "state intact");
    let s = c.store().stats();
    (s.reads, s.bytes_read)
}

/// Both ends of a hand-off at the instance manager, for a persist-on-stop
/// counter beside `blobs` 1 KiB rows it never reads: SAN operations and rows
/// written by the release (stop, then destroy keeping the state), then SAN
/// operations, rows written and rows read by the adoption that follows.
fn measure_handoff(blobs: usize) -> [u64; 5] {
    let (store, telemetry) = (SharedStore::new(), Telemetry::new());
    store.set_telemetry(telemetry.clone());
    let (repo, factory) = (
        workloads::standard_repository(),
        workloads::standard_factory(),
    );
    let mut mgr = InstanceManager::new(Framework::new("host"), repo, factory);
    mgr.attach_store(store.clone());
    let descriptor = workloads::counter_instance("bank", "ctr");
    let id = mgr.create_instance(descriptor.clone()).expect("fresh");
    mgr.start_instance(id).expect("starts");
    for i in 0..blobs {
        let (key, row) = (format!("blob-{i}"), Value::Bytes(vec![0u8; 1024]));
        store
            .put("instance/ctr/data/org.app.counter", &key, row)
            .expect("no faults armed");
    }
    let ops = || telemetry.counter("san.ops");
    store.reset_stats();
    let before = ops();
    mgr.stop_instance(id).expect("stops");
    mgr.destroy_instance(id, false).expect("leaves its state");
    let (released, release) = (ops(), store.stats());
    mgr.adopt_instance(descriptor).expect("adopts");
    let adopt = store.stats();
    [
        released - before,
        release.writes,
        ops() - released,
        adopt.writes - release.writes,
        adopt.reads - release.reads,
    ]
}

/// The deterministic E15 admission round: one backend at 2000/s with a
/// 64-deep queue under 2× open-loop load for 10 simulated seconds.
/// Returns (offered, completed, shed).
fn measure_admission() -> (u64, u64, u64) {
    let vip = SocketAddr::new(IpAddr::new(10, 0, 0, 200), Port(80));
    let mut d = IpvsDirector::new();
    d.add_service(
        replicated_service(vip, Scheduler::RoundRobin, &[NodeId(0)])
            .with_admission(AdmissionConfig::per_second(2_000, 64)),
    );
    let mut gen = ScheduledLoadGenerator::new(RateSchedule::constant(4_000.0), 15, SimTime::ZERO);
    let mut mix = ClassMix::standard_web(15);
    let mut client = 0u64;
    let mut now_us = 0u64;
    while now_us < 10_000_000 {
        now_us += 5_000;
        for _ in 0..gen.arrivals_until(SimTime::from_micros(now_us)) {
            client += 1;
            let _ = d.admit(client, vip, mix.sample(), now_us);
        }
        d.drain(vip, now_us);
    }
    let s = d.stats();
    (client, s.completed, s.shed)
}

/// The deterministic E14 hot-swap round: a counter with 5 increments of
/// state, upgraded in place 1.0.0 → 1.1.0 on a fault-free SAN. Returns
/// the modeled blackout in µs.
fn measure_hot_swap() -> u64 {
    let mut c = DosgiCluster::new(2, ClusterConfig::default(), 14);
    c.run_for(SimDuration::from_millis(500));
    c.deploy(
        workloads::counter_instance_with("bank", "ctr", workloads::COUNTER_WRITE_THROUGH),
        0,
    )
    .unwrap();
    c.run_for(SimDuration::from_secs(1));
    for _ in 0..5 {
        c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .unwrap();
    }
    c.upgrade_bundle(
        "ctr",
        workloads::counter_manifest_at(workloads::COUNTER_WRITE_THROUGH, Version::new(1, 1, 0)),
    )
    .unwrap();
    let deadline = c.now() + SimDuration::from_secs(10);
    while c.now() < deadline {
        c.step();
        for (_, ev) in c.take_events() {
            if let NodeEvent::BundleUpgraded { blackout, .. } = ev {
                assert_eq!(
                    c.call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
                        .unwrap(),
                    Value::Int(5),
                    "state intact"
                );
                return blackout.as_micros();
            }
        }
    }
    panic!("hot swap did not land on a fault-free SAN");
}

/// Runs every scenario: the table in the module docs, as data.
fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let (written, read) = measure_migration();
    rows.push(Row {
        name: "e5".to_owned(),
        summary: format!("e5 migration round: {written} B written, {read} B read"),
        file: "perf_baseline_e5.json".to_owned(),
        tags: vec![("scenario", "e5_migration_round".to_owned())],
        fields: vec![
            ("bytes_written", written, Ceiling),
            ("bytes_read", read, Ceiling),
        ],
        broken: None,
    });

    let (small, large) = (measure_migrate_reads(64), measure_migrate_reads(256));
    let (rows_read, bytes_read) = large;
    rows.push(Row {
        name: "migrate_reads".to_owned(),
        summary: format!(
            "migrate round [rows, bytes] read: {small:?} beside 64 rows, {large:?} beside 256"
        ),
        file: "perf_baseline_migrate_reads.json".to_owned(),
        tags: vec![("scenario", "migrate_round_reads".to_owned())],
        fields: vec![
            ("rows_read", rows_read, Ceiling),
            ("bytes_read", bytes_read, Ceiling),
        ],
        broken: (small != large || rows_read > 4).then_some(
            "a migrate round reads rows no call asked for — the data area is a row cache, \
             not a copy of the SAN",
        ),
    });

    const ENDS: [&str; 5] = [
        "release_ops",
        "release_rows_written",
        "adopt_ops",
        "adopt_rows_written",
        "adopt_rows_read",
    ];
    let (small, large) = (measure_handoff(4), measure_handoff(1024));
    rows.push(Row {
        name: "handoff".to_owned(),
        summary: format!(
            "hand-off ends [{}]: {small:?} beside 4 rows, {large:?} beside 1024",
            ENDS.join(", ")
        ),
        file: "perf_baseline_handoff.json".to_owned(),
        tags: vec![("scenario", "handoff_ends".to_owned())],
        fields: ENDS
            .iter()
            .zip(large)
            .map(|(&l, v)| (l, v, Ceiling))
            .collect(),
        broken: (small != large || large[0] > 2 || large[2] > 3).then_some(
            "an end of a hand-off costs more than one read and one write of what differs \
             (and the bundle's own row), or scales with the state beside it",
        ),
    });

    let (offered, completed, shed) = measure_admission();
    rows.push(Row {
        name: "admission".to_owned(),
        summary: format!(
            "e15 2x overload round: {offered} offered, {completed} completed, {shed} shed"
        ),
        file: "perf_baseline_e15_admission.json".to_owned(),
        tags: vec![("scenario", "e15_admission_2x_overload".to_owned())],
        fields: vec![
            ("offered", offered, Recorded),
            ("completed", completed, Floor),
            ("shed", shed, Ceiling),
        ],
        broken: None,
    });

    let blackout_us = measure_hot_swap();
    rows.push(Row {
        name: "hot_swap".to_owned(),
        summary: format!("e14 counter-scale swap blackout: {blackout_us} µs"),
        file: "perf_baseline_e14.json".to_owned(),
        tags: vec![("scenario", "e14_hot_swap_blackout".to_owned())],
        fields: vec![("blackout_us", blackout_us, Ceiling)],
        broken: None,
    });

    const LABELS: [&str; 3] = ["ordered_delivered", "registry_ops", "net_sent"];
    let rounds = dosgi_core::chaos::failover_round_costs(40);
    let (early, late) = (rounds[4], rounds[39]);
    rows.push(Row {
        name: "failover_rounds".to_owned(),
        summary: format!(
            "per round [{}]: round 5 {early:?}, round 40 {late:?}",
            LABELS.join(", ")
        ),
        file: "perf_baseline_failover_rounds.json".to_owned(),
        tags: vec![("scenario", "failover_round_40".to_owned())],
        fields: LABELS
            .iter()
            .zip(late)
            .map(|(&l, v)| (l, v, Ceiling))
            .collect(),
        broken: (early != late).then_some(
            "a failover round costs more as the cluster ages — rejoin must be O(members), \
             not O(history)",
        ),
    });
    rows
}

/// Holds one row against its committed baseline, or rewrites the baseline
/// from it. Returns `false` on a regression, a missing baseline or a broken
/// row.
fn guard(row: &Row, write_baseline: bool) -> bool {
    let tag = format!("perf_guard[{}]", row.name);
    println!("{tag}: {}", row.summary);
    if let Some(why) = row.broken {
        eprintln!("{tag}: {why}");
    }
    let path = dosgi_testkit::workspace_root()
        .join("results")
        .join(&row.file);

    if write_baseline {
        let tags = row.tags.iter().map(|(k, v)| format!("  \"{k}\": \"{v}\""));
        let fields = row.fields.iter().map(|(k, v, _)| format!("  \"{k}\": {v}"));
        let body: Vec<String> = tags.chain(fields).collect();
        std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))).expect("write baseline");
        println!("{tag}: baseline rewritten at {}", path.display());
        return row.broken.is_none();
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{tag}: no baseline at {} ({e})", path.display());
            eprintln!("perf_guard: generate one with PERF_GUARD_WRITE_BASELINE=1");
            return false;
        }
    };
    let json = Json::parse(&text).expect("baseline JSON parses");
    let mut regressed_any = false;
    for &(field, now, bound) in &row.fields {
        let base = json
            .get(field)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("baseline has {field}"));
        let (kind, limit, regressed) = match bound {
            Ceiling => {
                let limit = (base as f64 * (1.0 + TOLERANCE)).ceil() as u64;
                ("limit", limit, now > limit)
            }
            Floor => {
                let floor = (base as f64 * (1.0 - TOLERANCE)).floor() as u64;
                ("floor", floor, now < floor)
            }
            Recorded => continue,
        };
        regressed_any |= regressed;
        let status = if regressed { "REGRESSION" } else { "ok" };
        println!("{tag}: {field}: {now} vs baseline {base} ({kind} {limit}) {status}");
    }
    if regressed_any {
        eprintln!(
            "{tag}: regressed >{:.0}% vs {}",
            TOLERANCE * 100.0,
            path.display()
        );
        eprintln!("perf_guard: if intentional, regenerate with PERF_GUARD_WRITE_BASELINE=1");
    }
    row.broken.is_none() && !regressed_any
}

fn main() {
    let write_baseline = std::env::var("PERF_GUARD_WRITE_BASELINE").is_ok();
    let failed = rows()
        .iter()
        .filter(|row| !guard(row, write_baseline))
        .count();
    if failed > 0 {
        std::process::exit(1);
    }
    if !write_baseline {
        println!(
            "perf_guard: within tolerance on the e5 migration round, the migrate round's reads, the \
             hand-off's two ends, the admission hot path, the hot-swap blackout and the flat \
             failover round"
        );
    }
}
