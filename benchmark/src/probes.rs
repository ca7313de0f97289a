//! The probes: direct timings of each lower layer's public functions, on
//! the shapes the workloads give them. `migrate` and `failover` spend
//! nearly all their time inside `DosgiCluster::step`, where a span placed
//! from outside cannot see; the probes are how the ledger reaches below.
//!
//! Every probe runs a few batches, keeps the fastest, and expresses it at
//! reference speed like every other wall-clock number here.

use crate::cal;
use crate::stats::to_reference_speed;
use crate::Metric;
use dosgi_core::workloads;
use dosgi_net::{LinkConfig, SimDuration, SimNet};
use dosgi_osgi::{Framework, FrameworkConfig};
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::{ScrapeConfig, SeriesScraper, Telemetry};
use dosgi_vosgi::InstanceManager;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
/// Rows and row size of the bulk namespace: `migrate`'s data area.
const ROWS: usize = 256;
const ROW_BYTES: usize = 1024;
const AREA_KIB: f64 = (ROWS * ROW_BYTES) as f64 / 1024.0;
/// Hand-offs per batch of the restore, persist and adopt probes.
const HANDOFFS: u32 = 8;

/// Fastest of [`BATCHES`] batches, in ns per unit at reference speed. A
/// batch reports the time it measured and how many units that covered.
fn fastest(mut batch: impl FnMut() -> (Duration, f64)) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let kernel_us = cal::read();
            let (took, units) = batch();
            to_reference_speed(took.as_nanos() as f64 / units, kernel_us, 1.0)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times `iters` back-to-back calls of `f`.
fn repeat(iters: u32, mut f: impl FnMut()) -> (Duration, f64) {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    (t.elapsed(), f64::from(iters))
}

fn area_rows(fill: u8) -> Vec<(String, Value)> {
    (0..ROWS)
        .map(|i| {
            let blob = vec![fill.wrapping_add(i as u8); ROW_BYTES];
            (format!("blob-{i:03}"), Value::Bytes(blob))
        })
        .collect()
}

fn manager(store: &SharedStore) -> InstanceManager {
    let mut mgr = InstanceManager::new(
        Framework::new("host"),
        workloads::standard_repository(),
        workloads::standard_factory(),
    );
    mgr.attach_store(store.clone());
    mgr
}

/// One `SeriesScraper::scrape` of `telemetry`'s registry, µs at reference
/// speed (the first scrape: every series is created).
pub fn scrape_us(telemetry: &Telemetry, now_us: u64) -> f64 {
    let kernel_us = cal::read();
    let mut scraper = SeriesScraper::new(ScrapeConfig::default());
    let t = Instant::now();
    black_box(scraper.scrape(telemetry, now_us));
    to_reference_speed(t.elapsed().as_nanos() as f64 / 1e3, kernel_us, 1.0)
}

fn san() -> Vec<Metric> {
    // serve_write's shape: one hot 8-byte row overwritten for ever.
    let hot = SharedStore::new();
    let mut n = 0i64;
    let put_ns = fastest(|| {
        repeat(20_000, || {
            n += 1;
            black_box(hot.put("instance/t/data/org.app.counter-wt", "count", Value::Int(n)))
                .expect("no faults armed");
        })
    });

    // migrate's shape: a 256-row, 256 KiB data area. Two row sets
    // alternate so that change detection never skips a write.
    let bulk = SharedStore::new();
    let sets = [area_rows(1), area_rows(2)];
    let ns = "instance/probe/data/org.app.counter";
    let mut flip = 0usize;
    let put_many = fastest(|| {
        let (took, iters) = repeat(8, || {
            flip ^= 1;
            bulk.put_many(ns, black_box(&sets[flip]))
                .expect("no faults armed");
        });
        (took, iters * AREA_KIB)
    });
    let read_namespace = fastest(|| {
        let (took, iters) = repeat(8, || {
            black_box(bulk.read_namespace(black_box(ns)).expect("no faults armed"));
        });
        (took, iters * AREA_KIB)
    });
    let encoded: Vec<Vec<u8>> = sets[0].iter().map(|(_, v)| v.encode()).collect();
    let encode = fastest(|| {
        let (took, iters) = repeat(8, || {
            for (_, v) in &sets[0] {
                black_box(black_box(v).encode());
            }
        });
        (took, iters * AREA_KIB)
    });
    let decode = fastest(|| {
        let (took, iters) = repeat(8, || {
            for bytes in &encoded {
                black_box(Value::decode(black_box(bytes)).expect("own encoding"));
            }
        });
        (took, iters * AREA_KIB)
    });
    vec![
        Metric::new("san.put_ns", put_ns, "ns"),
        Metric::new("san.put_many_ns_per_kib", put_many, "ns"),
        Metric::new("san.read_namespace_ns_per_kib", read_namespace, "ns"),
        Metric::new("san.encode_ns_per_kib", encode, "ns"),
        Metric::new("san.decode_ns_per_kib", decode, "ns"),
    ]
}

fn osgi_and_vosgi() -> Vec<Metric> {
    // A stopped-and-persisted counter instance with migrate's data area,
    // adopted over and over: what the arriving side of a hand-off pays.
    let store = SharedStore::new();
    let descriptor = workloads::counter_instance("probe", "probe");
    let mut mgr = manager(&store);
    let id = mgr
        .create_instance(descriptor.clone())
        .expect("fresh manager");
    mgr.start_instance(id).expect("starts");
    store
        .put_many(
            &format!("instance/probe/data/{}", workloads::COUNTER_ON_STOP),
            &area_rows(3),
        )
        .expect("no faults armed");
    mgr.stop_instance(id).expect("stops");
    mgr.destroy_instance(id, false).expect("leaves its state");

    // Both halves of a hand-off at the osgi layer, timed in one loop:
    // arriving = restore plus the first call, which warms the data area
    // from the SAN; departing = stop the bundles and flush what is dirty.
    let factory = workloads::standard_factory();
    let (mut restore_us, mut persist_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..BATCHES {
        let kernel_us = cal::read();
        let (mut arrive, mut depart) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..HANDOFFS {
            let t = Instant::now();
            let mut fw = Framework::restore(
                FrameworkConfig::new("vosgi/probe"),
                store.clone(),
                "instance/probe",
                &factory,
            )
            .expect("persisted state restores");
            let sid = fw
                .best_service(workloads::COUNTER_SERVICE)
                .expect("counter is back");
            black_box(fw.call_service(sid, "get", &Value::Null)).expect("serves");
            arrive += t.elapsed();
            let t = Instant::now();
            fw.shutdown();
            fw.flush_persist().expect("no faults armed");
            depart += t.elapsed();
        }
        let us = |d: Duration| {
            to_reference_speed(
                d.as_nanos() as f64 / f64::from(HANDOFFS) / 1e3,
                kernel_us,
                1.0,
            )
        };
        restore_us = restore_us.min(us(arrive));
        persist_us = persist_us.min(us(depart));
    }

    let mut adopter = manager(&store);
    let adopt_us = fastest(|| {
        let mut took = Duration::ZERO;
        for _ in 0..HANDOFFS {
            let t = Instant::now();
            let id = adopter
                .adopt_instance(descriptor.clone())
                .expect("persisted state adopts");
            took += t.elapsed();
            adopter
                .destroy_instance(id, false)
                .expect("leaves its state");
        }
        (took, f64::from(HANDOFFS) * 1e3)
    });

    let mut cycler = manager(&SharedStore::new());
    let create_destroy_us = fastest(|| {
        let (took, iters) = repeat(16, || {
            let id = cycler
                .create_instance(workloads::web_instance("cust", "cycle"))
                .expect("name is free");
            cycler.start_instance(id).expect("starts");
            cycler.stop_instance(id).expect("stops");
            cycler.destroy_instance(id, true).expect("wipes");
        });
        (took, iters * 1e3)
    });

    // serve_read's shape: one web instance, `handle` with 20 µs of work.
    let mut server = manager(&SharedStore::new());
    let web = server
        .create_instance(workloads::web_instance("cust", "web"))
        .expect("fresh manager");
    server.start_instance(web).expect("starts");
    let arg = Value::map().with("work_us", 20i64);
    let call_service_ns = fastest(|| {
        repeat(20_000, || {
            black_box(server.call_service(web, workloads::WEB_SERVICE, "handle", black_box(&arg)))
                .expect("serves");
        })
    });
    let framework = server.instance(web).expect("exists").framework();
    let registry_lookup_ns = fastest(|| {
        repeat(20_000, || {
            black_box(framework.best_service(black_box(workloads::WEB_SERVICE)));
        })
    });
    vec![
        Metric::new("osgi.persist_us", persist_us, "us"),
        Metric::new("osgi.restore_us", restore_us, "us"),
        Metric::new("osgi.registry_lookup_ns", registry_lookup_ns, "ns"),
        Metric::new("vosgi.call_service_ns", call_service_ns, "ns"),
        Metric::new("vosgi.adopt_us", adopt_us, "us"),
        Metric::new("vosgi.create_destroy_us", create_destroy_us, "us"),
    ]
}

fn telemetry_and_net() -> Vec<Metric> {
    // A registry the size the workloads leave behind (a few hundred names).
    let t = Telemetry::new();
    for i in 0..200 {
        t.add(&format!("probe.ctr.{i:03}"), 1);
        t.record(&format!("probe.hist.{i:03}"), 100);
    }
    let incr_ns = fastest(|| repeat(50_000, || t.incr(black_box("ipvs.queued.standard"))));
    let mut v = 0u64;
    let record_ns = fastest(|| {
        repeat(50_000, || {
            v += 37;
            t.record(black_box("ipvs.latency_us.standard"), v % 4_000);
        })
    });

    let mut net: SimNet<u64> = SimNet::new(LinkConfig::lan(), 1);
    let (a, b) = (net.register_node(), net.register_node());
    let send_deliver_ns = fastest(|| {
        let (took, iters) = repeat(2_000, || {
            for m in 0..8 {
                net.send(a, b, m);
            }
            net.advance(SimDuration::from_millis(5));
            black_box(net.drain(b));
        });
        (took, iters * 8.0)
    });
    vec![
        Metric::new("telemetry.incr_ns", incr_ns, "ns"),
        Metric::new("telemetry.record_ns", record_ns, "ns"),
        Metric::new("net.send_deliver_ns", send_deliver_ns, "ns"),
    ]
}

/// Runs every probe.
pub fn run() -> Vec<Metric> {
    let mut out = san();
    out.extend(osgi_and_vosgi());
    out.extend(telemetry_and_net());
    out
}
