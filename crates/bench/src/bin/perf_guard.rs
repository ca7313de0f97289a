//! **CI perf guard** for the delta persistence fast path.
//!
//! Replays the deterministic E5 migration scenario (fixed seed, simulated
//! clock — byte counts are exactly reproducible) on **every registered SAN
//! backend** and compares the SAN bytes written/read during the migration
//! round against the committed per-backend baseline
//! (`results/perf_baseline_e5.json` for the map backend,
//! `results/perf_baseline_e5_<backend>.json` for the rest). A regression
//! of more than 10% on either axis fails the build: blowing the
//! change-detection or per-row persistence win is a bug, not noise.
//!
//! Because faults, stats, and change detection live in the `SharedStore`
//! wrapper rather than the backends, a conformant backend observes the
//! *same* byte counts — the per-backend baselines double as a coarse
//! conformance check and will catch a backend that silently re-routes or
//! amplifies traffic.
//!
//! To accept an intentional change, regenerate the baselines with
//! `PERF_GUARD_WRITE_BASELINE=1 cargo run --release -p dosgi-bench --bin
//! perf_guard` and commit the new JSON.

//! The guard also covers the **E14 hot-swap blackout**: the deterministic
//! counter-scale in-place upgrade (fixed seed, fault-free SAN) whose
//! modeled service interruption is exactly reproducible. The blackout has
//! a ceiling (+10% against `results/perf_baseline_e14.json`): a change
//! that widens the swap window — an extra flush, a fatter persist, a
//! slower swap — fails CI rather than silently eroding the µs-scale claim.

//! The guard also covers the **E15 admission-control hot path**: a fixed
//! 2× overload scenario (open-loop Poisson arrivals, class mix, bounded
//! queues) whose completed/shed counts are exactly reproducible on the
//! simulated clock. `completed` has a floor (a drain that stops being
//! work-conserving tanks throughput) and `shed` a ceiling (admission that
//! sheds more at the same load has regressed), both ±10% against
//! `results/perf_baseline_e15_admission.json`.

//! The guard also covers the **E16 series-scrape cost**: the median
//! wall-clock nanoseconds of one [`SeriesScraper`] pass over a 1 000-metric
//! registry. The committed baseline (`results/perf_baseline_e16_scrape.json`)
//! stores a 3×-derated ceiling measured at baseline time — wall time is
//! noisy, so only a scrape that blows *through* that generous ceiling
//! fails: the observability layer must never silently eat the hot path.

//! The guard also covers the **failover round cost**: 40 crash → adopt →
//! restart → rejoin rounds on the simulator with node 0, the sequencer,
//! never restarted. Ordered deliveries, registry ops and messages sent per
//! round are exact counts; round 40 must cost exactly what round 5 cost
//! (a rejoin that replays history, or a sequencer that stops truncating,
//! grows them with the cluster's age), and neither may exceed
//! `results/perf_baseline_failover_rounds.json` by more than 10%.

use dosgi_core::loadgen::{ClassMix, RateSchedule, ScheduledLoadGenerator};
use dosgi_core::{workloads, ClusterConfig, DosgiCluster};
use dosgi_ipvs::{replicated_service, AdmissionConfig, IpvsDirector, Scheduler};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SimTime, SocketAddr};
use dosgi_san::{BackendKind, Value};
use dosgi_testkit::Json;

const TOLERANCE: f64 = 0.10;

fn baseline_file(kind: BackendKind) -> String {
    match kind {
        BackendKind::Map => "perf_baseline_e5.json".to_owned(),
        other => format!("perf_baseline_e5_{}.json", other.name()),
    }
}

/// The deterministic migration round: deploy a counter with a 256 KiB data
/// area on node 0, settle, then migrate it to node 1. Returns the SAN
/// bytes written/read during the round itself.
fn measure(kind: BackendKind) -> (u64, u64) {
    let config = ClusterConfig {
        backend: kind,
        ..ClusterConfig::default()
    };
    let mut c = DosgiCluster::new(3, config, 500);
    c.run_for(SimDuration::from_millis(500));
    c.deploy(workloads::counter_instance("bank", "ctr"), 0)
        .unwrap();
    c.run_for(SimDuration::from_millis(500));
    let ns = "instance/ctr/data/org.app.counter";
    let blob = vec![0u8; 1024];
    for i in 0..256 {
        c.store()
            .put(ns, &format!("blob-{i}"), Value::Bytes(blob.clone()))
            .expect("no faults armed");
    }
    for _ in 0..5 {
        c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .unwrap();
    }
    c.store().reset_stats();
    c.migrate("ctr", 1).unwrap();
    c.run_for(SimDuration::from_secs(8));
    // Stats snapshot covers exactly the migration round (the verifying
    // `get` below would add the lazy data-area hydration read).
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

/// Guard one backend against its committed baseline. Returns `false` on a
/// regression (or a missing baseline).
fn guard(kind: BackendKind, write_baseline: bool) -> bool {
    let (written, read) = measure(kind);
    println!("perf_guard[{kind}]: e5 migration round: {written} B written, {read} B read");
    let path = dosgi_testkit::workspace_root()
        .join("results")
        .join(baseline_file(kind));

    if write_baseline {
        let body = format!(
            "{{\n  \"scenario\": \"e5_migration_round\",\n  \"backend\": \"{kind}\",\n  \"bytes_written\": {written},\n  \"bytes_read\": {read}\n}}\n"
        );
        std::fs::create_dir_all(path.parent().expect("results dir has a parent"))
            .expect("create results dir");
        std::fs::write(&path, body).expect("write baseline");
        println!(
            "perf_guard[{kind}]: baseline rewritten at {}",
            path.display()
        );
        return true;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "perf_guard[{kind}]: no baseline at {} ({e})",
                path.display()
            );
            eprintln!("perf_guard: generate one with PERF_GUARD_WRITE_BASELINE=1");
            return false;
        }
    };
    let json = Json::parse(&text).expect("baseline JSON parses");
    let base_written = json
        .get("bytes_written")
        .and_then(Json::as_u64)
        .expect("baseline has bytes_written");
    let base_read = json
        .get("bytes_read")
        .and_then(Json::as_u64)
        .expect("baseline has bytes_read");

    let mut ok = true;
    for (label, now, base) in [
        ("bytes_written", written, base_written),
        ("bytes_read", read, base_read),
    ] {
        let limit = (base as f64 * (1.0 + TOLERANCE)).ceil() as u64;
        let status = if now > limit {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        println!("perf_guard[{kind}]: {label}: {now} vs baseline {base} (limit {limit}) {status}");
    }
    if !ok {
        eprintln!(
            "perf_guard[{kind}]: SAN byte cost regressed >{:.0}% vs {}",
            TOLERANCE * 100.0,
            path.display()
        );
        eprintln!("perf_guard: if intentional, regenerate with PERF_GUARD_WRITE_BASELINE=1");
    }
    ok
}

/// The deterministic E14 hot-swap round: a counter with 5 increments of
/// state, upgraded in place 1.0.0 → 1.1.0 on a fault-free SAN. Returns
/// the modeled blackout in µs — exact and replayable.
fn measure_hot_swap() -> u64 {
    use dosgi_core::NodeEvent;
    use dosgi_osgi::Version;

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

/// Guard the hot-swap blackout: the modeled interruption must not widen
/// beyond the committed baseline (+10%).
fn guard_hot_swap(write_baseline: bool) -> bool {
    let blackout_us = measure_hot_swap();
    println!("perf_guard[hot_swap]: e14 counter-scale swap blackout: {blackout_us} µs");
    let path = dosgi_testkit::workspace_root()
        .join("results")
        .join("perf_baseline_e14.json");

    if write_baseline {
        let body = format!(
            "{{\n  \"scenario\": \"e14_hot_swap_blackout\",\n  \"blackout_us\": {blackout_us}\n}}\n"
        );
        std::fs::create_dir_all(path.parent().expect("results dir has a parent"))
            .expect("create results dir");
        std::fs::write(&path, body).expect("write baseline");
        println!(
            "perf_guard[hot_swap]: baseline rewritten at {}",
            path.display()
        );
        return true;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "perf_guard[hot_swap]: no baseline at {} ({e})",
                path.display()
            );
            eprintln!("perf_guard: generate one with PERF_GUARD_WRITE_BASELINE=1");
            return false;
        }
    };
    let json = Json::parse(&text).expect("baseline JSON parses");
    let base = json
        .get("blackout_us")
        .and_then(Json::as_u64)
        .expect("baseline has blackout_us");
    let limit = (base as f64 * (1.0 + TOLERANCE)).ceil() as u64;
    let ok = blackout_us <= limit;
    let status = if ok { "ok" } else { "REGRESSION" };
    println!(
        "perf_guard[hot_swap]: blackout_us: {blackout_us} vs baseline {base} (limit {limit}) {status}"
    );
    if !ok {
        eprintln!(
            "perf_guard[hot_swap]: swap blackout widened >{:.0}% vs {}",
            TOLERANCE * 100.0,
            path.display()
        );
        eprintln!("perf_guard: if intentional, regenerate with PERF_GUARD_WRITE_BASELINE=1");
    }
    ok
}

/// The deterministic E15 admission round: one backend at 2000/s with a
/// 64-deep queue under 2× open-loop load for 10 simulated seconds.
/// Returns (offered, completed, shed) — exact, replayable counts.
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

/// Guard the admission hot path: `completed` must not fall below, and
/// `shed` must not rise above, the committed baseline (±10%).
fn guard_admission(write_baseline: bool) -> bool {
    let (offered, completed, shed) = measure_admission();
    println!(
        "perf_guard[admission]: e15 2x overload round: {offered} offered, \
         {completed} completed, {shed} shed"
    );
    let path = dosgi_testkit::workspace_root()
        .join("results")
        .join("perf_baseline_e15_admission.json");

    if write_baseline {
        let body = format!(
            "{{\n  \"scenario\": \"e15_admission_2x_overload\",\n  \"offered\": {offered},\n  \"completed\": {completed},\n  \"shed\": {shed}\n}}\n"
        );
        std::fs::create_dir_all(path.parent().expect("results dir has a parent"))
            .expect("create results dir");
        std::fs::write(&path, body).expect("write baseline");
        println!(
            "perf_guard[admission]: baseline rewritten at {}",
            path.display()
        );
        return true;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "perf_guard[admission]: no baseline at {} ({e})",
                path.display()
            );
            eprintln!("perf_guard: generate one with PERF_GUARD_WRITE_BASELINE=1");
            return false;
        }
    };
    let json = Json::parse(&text).expect("baseline JSON parses");
    let base_completed = json
        .get("completed")
        .and_then(Json::as_u64)
        .expect("baseline has completed");
    let base_shed = json
        .get("shed")
        .and_then(Json::as_u64)
        .expect("baseline has shed");

    let mut ok = true;
    let floor = (base_completed as f64 * (1.0 - TOLERANCE)).floor() as u64;
    let status = if completed < floor {
        ok = false;
        "REGRESSION"
    } else {
        "ok"
    };
    println!(
        "perf_guard[admission]: completed: {completed} vs baseline {base_completed} (floor {floor}) {status}"
    );
    let limit = (base_shed as f64 * (1.0 + TOLERANCE)).ceil() as u64;
    let status = if shed > limit {
        ok = false;
        "REGRESSION"
    } else {
        "ok"
    };
    println!(
        "perf_guard[admission]: shed: {shed} vs baseline {base_shed} (limit {limit}) {status}"
    );
    if !ok {
        eprintln!(
            "perf_guard[admission]: admission hot path regressed >{:.0}% vs {}",
            TOLERANCE * 100.0,
            path.display()
        );
        eprintln!("perf_guard: if intentional, regenerate with PERF_GUARD_WRITE_BASELINE=1");
    }
    ok
}

/// The E13 real-clock throughput guard: a reduced version of the
/// `e13_throughput` sweep. Wall-clock numbers are noisy, so the committed
/// baseline stores **pre-derated floors** (half the ops/sec measured at
/// baseline time); the usual ±10% tolerance then applies to those floors.
/// Two ratio floors ride along: 4-thread migration speedup (the runtime's
/// concurrency must keep overlapping latency) and the real-vs-sim
/// single-thread admission ratio (the real-clock abstraction must not tax
/// the hot path).
fn guard_e13(write_baseline: bool) -> bool {
    use std::time::Duration;

    let mig1 = dosgi_bench::e13::migration_ops_per_sec(1, Duration::from_millis(800));
    let mig4 = dosgi_bench::e13::migration_ops_per_sec(4, Duration::from_millis(800));
    let sim = dosgi_bench::e13::admission_tight_ops_per_sec(false, Duration::from_millis(200));
    let real = dosgi_bench::e13::admission_tight_ops_per_sec(true, Duration::from_millis(200));
    let speedup = mig4 / mig1;
    let ratio = real / sim;
    println!(
        "perf_guard[e13]: migration {mig1:.1} ops/s @1T, {mig4:.1} ops/s @4T \
         (speedup {speedup:.2}x); tight admission real/sim ratio {ratio:.2}"
    );
    let path = dosgi_testkit::workspace_root()
        .join("results")
        .join("perf_baseline_e13.json");

    if write_baseline {
        let body = format!(
            "{{\n  \"scenario\": \"e13_real_clock_throughput\",\n  \
             \"migration_1t_floor\": {},\n  \"migration_4t_floor\": {},\n  \
             \"speedup_4t_floor_x100\": 200,\n  \"tight_ratio_floor_x100\": 50\n}}\n",
            (mig1 * 0.5) as u64,
            (mig4 * 0.5) as u64,
        );
        std::fs::create_dir_all(path.parent().expect("results dir has a parent"))
            .expect("create results dir");
        std::fs::write(&path, body).expect("write baseline");
        println!("perf_guard[e13]: baseline rewritten at {}", path.display());
        return true;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf_guard[e13]: no baseline at {} ({e})", path.display());
            eprintln!("perf_guard: generate one with PERF_GUARD_WRITE_BASELINE=1");
            return false;
        }
    };
    let json = Json::parse(&text).expect("baseline JSON parses");
    let field = |name: &str| {
        json.get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("baseline has {name}"))
    };

    let mut ok = true;
    for (label, now, floor) in [
        ("migration_1t_ops", mig1, field("migration_1t_floor") as f64),
        ("migration_4t_ops", mig4, field("migration_4t_floor") as f64),
        (
            "speedup_4t_x100",
            speedup * 100.0,
            field("speedup_4t_floor_x100") as f64,
        ),
        (
            "tight_ratio_x100",
            ratio * 100.0,
            field("tight_ratio_floor_x100") as f64,
        ),
    ] {
        let limit = floor * (1.0 - TOLERANCE);
        let status = if now < limit {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "perf_guard[e13]: {label}: {now:.1} vs floor {floor:.1} (limit {limit:.1}) {status}"
        );
    }
    if !ok {
        eprintln!(
            "perf_guard[e13]: real-clock throughput regressed below the derated \
             floors in {}",
            path.display()
        );
        eprintln!("perf_guard: if intentional, regenerate with PERF_GUARD_WRITE_BASELINE=1");
    }
    ok
}

/// Guard the failover round: flat from round 5 to round 40, and no dearer
/// than the committed baseline (+10%).
fn guard_failover_rounds(write_baseline: bool) -> bool {
    const LABELS: [&str; 3] = ["ordered_delivered", "registry_ops", "net_sent"];
    let rounds = dosgi_core::chaos::failover_round_costs(40);
    let (early, late) = (rounds[4], rounds[39]);
    println!(
        "perf_guard[failover_rounds]: per round [{}]: round 5 {early:?}, round 40 {late:?}",
        LABELS.join(", ")
    );
    let mut ok = early == late;
    if !ok {
        eprintln!(
            "perf_guard[failover_rounds]: a failover round costs more as the cluster ages — \
             rejoin must be O(members), not O(history)"
        );
    }
    let path = dosgi_testkit::workspace_root()
        .join("results")
        .join("perf_baseline_failover_rounds.json");
    if write_baseline {
        let fields: Vec<String> = LABELS
            .iter()
            .zip(late)
            .map(|(l, v)| format!("  \"{l}\": {v}"))
            .collect();
        let body = format!(
            "{{\n  \"scenario\": \"failover_round_40\",\n{}\n}}\n",
            fields.join(",\n")
        );
        std::fs::write(&path, body).expect("write baseline");
        println!(
            "perf_guard[failover_rounds]: baseline rewritten at {}",
            path.display()
        );
        return ok;
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "perf_guard[failover_rounds]: no baseline at {} ({e})",
                path.display()
            );
            eprintln!("perf_guard: generate one with PERF_GUARD_WRITE_BASELINE=1");
            return false;
        }
    };
    let json = Json::parse(&text).expect("baseline JSON parses");
    for (label, now) in LABELS.iter().zip(late) {
        let base = json
            .get(label)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("baseline has {label}"));
        let limit = (base as f64 * (1.0 + TOLERANCE)).ceil() as u64;
        let status = if now > limit {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "perf_guard[failover_rounds]: {label}: {now} vs baseline {base} (limit {limit}) {status}"
        );
    }
    if !ok {
        eprintln!("perf_guard: if intentional, regenerate with PERF_GUARD_WRITE_BASELINE=1");
    }
    ok
}

/// One scrape pass over a registry with 600 counters, 300 gauges and 100
/// histograms (the micro bench's `telemetry/scrape_1k_metrics` shape).
/// Returns the median ns of 64 timed scrapes after 8 warmups.
fn measure_scrape_ns() -> u64 {
    use dosgi_telemetry::{ScrapeConfig, SeriesScraper, Telemetry};
    let t = Telemetry::new();
    for i in 0..600u64 {
        t.add(&format!("bench.ctr.{i:03}"), i);
    }
    for i in 0..300u64 {
        t.gauge_set(&format!("bench.gauge.{i:03}"), i as i64);
    }
    for i in 0..100u64 {
        let name = format!("bench.hist.{i:02}");
        for v in [100, 2_000, 65_000, 1_000_000] {
            t.record(&name, v + i);
        }
    }
    let mut scraper = SeriesScraper::new(ScrapeConfig::default());
    let mut now_us = 0u64;
    let mut samples = Vec::with_capacity(64);
    for i in 0..72u32 {
        now_us += 250_000;
        t.add("bench.ctr.000", 1);
        t.record("bench.hist.00", u64::from(i) * 131);
        let start = std::time::Instant::now();
        assert!(scraper.scrape(&t, now_us), "every pass must be due");
        let ns = start.elapsed().as_nanos() as u64;
        if i >= 8 {
            samples.push(ns);
        }
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Guard the scrape cost: the measured median must stay under the
/// committed 3×-derated ceiling (±10% tolerance on top).
fn guard_scrape(write_baseline: bool) -> bool {
    let ns = measure_scrape_ns();
    println!("perf_guard[scrape]: e16 series scrape over 1k metrics: {ns} ns median");
    let path = dosgi_testkit::workspace_root()
        .join("results")
        .join("perf_baseline_e16_scrape.json");

    if write_baseline {
        let body = format!(
            "{{\n  \"scenario\": \"e16_scrape_1k_metrics\",\n  \
             \"median_ns_at_baseline\": {ns},\n  \"ceiling_ns\": {}\n}}\n",
            ns * 3
        );
        std::fs::create_dir_all(path.parent().expect("results dir has a parent"))
            .expect("create results dir");
        std::fs::write(&path, body).expect("write baseline");
        println!(
            "perf_guard[scrape]: baseline rewritten at {}",
            path.display()
        );
        return true;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "perf_guard[scrape]: no baseline at {} ({e})",
                path.display()
            );
            eprintln!("perf_guard: generate one with PERF_GUARD_WRITE_BASELINE=1");
            return false;
        }
    };
    let json = Json::parse(&text).expect("baseline JSON parses");
    let ceiling = json
        .get("ceiling_ns")
        .and_then(Json::as_u64)
        .expect("baseline has ceiling_ns");
    let limit = (ceiling as f64 * (1.0 + TOLERANCE)).ceil() as u64;
    let ok = ns <= limit;
    println!(
        "perf_guard[scrape]: median_ns: {ns} vs ceiling {ceiling} (limit {limit}) {}",
        if ok { "ok" } else { "REGRESSION" }
    );
    if !ok {
        eprintln!(
            "perf_guard[scrape]: the series scrape blew through its derated \
             ceiling in {}",
            path.display()
        );
        eprintln!("perf_guard: if intentional, regenerate with PERF_GUARD_WRITE_BASELINE=1");
    }
    ok
}

fn main() {
    let write_baseline = std::env::var("PERF_GUARD_WRITE_BASELINE").is_ok();
    let mut failed = false;
    for kind in BackendKind::all() {
        if !guard(kind, write_baseline) {
            failed = true;
        }
    }
    if !guard_admission(write_baseline) {
        failed = true;
    }
    if !guard_hot_swap(write_baseline) {
        failed = true;
    }
    if !guard_e13(write_baseline) {
        failed = true;
    }
    if !guard_scrape(write_baseline) {
        failed = true;
    }
    if !guard_failover_rounds(write_baseline) {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    if !write_baseline {
        println!(
            "perf_guard: within tolerance on every backend, the admission hot \
             path, the hot-swap blackout, the e13 real-clock floors, the \
             e16 scrape ceiling and the flat failover round"
        );
    }
}
