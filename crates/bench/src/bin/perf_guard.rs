//! **CI perf guard**: the exact rows.
//!
//! Every row replays a deterministic scenario — fixed seed, simulated clock —
//! whose counts are exactly reproducible, and prints them. `scripts/check.sh`
//! captures the table as `results/perf_guard.txt` and holds it byte for byte
//! like every other capture: a move is a change in what the code does, never
//! noise. A row that is wrong on its own terms, whatever the capture holds,
//! exits non-zero and names why.
//!
//! | row | scenario | counted | broken when | capture |
//! |---|---|---|---|---|
//! | `migrate_reads` | one benchmark-shaped `migrate` round (incr → migrate → adopted → incr) of a counter whose data area holds 64, then 256, 1 KiB rows it never reads | SAN rows and bytes read | the two areas differ, or more than 4 rows are read: what an adoption reads is what its calls ask for, not the area | (4, 213) beside both areas |
//! | `handoff` | the two ends of a hand-off at the instance manager: a one-bundle persist-on-stop counter beside 4, then 1 024, 1 KiB rows it never reads, released (stop + destroy keeping its state) and adopted | SAN operations, rows and bytes written by each end, rows read by the adoption: 1 area flush + 1 `put_many` to release, 1 `read_namespace` + 1 area read + 1 `put_many` to adopt | the two areas differ, an end takes more operations than that, or the adoption writes the bundle's manifest row (changed, or skipped as unchanged): a hand-off writes its lifecycle row only | [2, 2, 57, 3, 1, 53, 4] beside 4 and 1 024 rows |
//! | `boot` | a node's host boot at the SAN: a first boot over an empty namespace, then the same node restarted over what it wrote | SAN operations, rows and bytes written by the first boot; operations, rows read, rows written and bytes read by the restart | the restart writes a row (a restart is a restore), or the first boot takes more than one operation (its snapshot is one batch) | [1, 7, 616] / [1, 7, 0, 616] |
//! | `admission` | E15 admission hot path: one backend at 2 000/s, 64-deep queue, 2× open-loop Poisson load, class mix, 10 simulated seconds | requests offered, completed and shed | — | 40 244 / 19 990 / 20 200 |
//! | `failover_rounds` | 40 crash → adopt → restart → rejoin rounds, node 0 (the sequencer) never restarted | ordered deliveries, registry operations and messages sent per round | round 40 costs anything but what round 5 cost (a rejoin that replays history, or a sequencer that stops truncating, grows them with the cluster's age) | [17, 17, 1 130] at rounds 5 and 40 |
//! | `control_work` | the `migrate` cycle and the `failover` rounds of the two phase tables below, each on a cluster of its own | spans opened (closed, open and dropped events of `DosgiCluster::trace_log`), ordered messages sent (`gcs.order.sent`) and adoptions (`core.migration.completed` + `core.failover.adoptions`), per `migrate` op and per `failover` round: the units a control-plane name rides in | — | [5, 2, 1] / [19, 11.5, 9.5] |
//!
//!
//! A second table, `phases`, is the step loop's profile: a benchmark-shaped
//! `failover` round — 5 nodes, 20 web and 20 write-through counter
//! instances under observability; 20 `incr`, a crash, the failover, a
//! restart, the rejoin and 200 settle steps — with the phase table on and a
//! counting global allocator feeding it. It prints, per round over four
//! rounds (one per victim), how often each phase ran and what it allocated;
//! `apply_control` has three parts, a failover's claims (`.claims`), a
//! registry transfer's export and import (`.sync`) and adoptions queued
//! (`.queue`); `gcs.handle` and `gcs.tick` have one part per machine of
//! the group layer (`.detector`, `.membership`, `.stream`; a handled
//! message counts one call of the machine it is addressed to); `sample`
//! has the windows recorded (`.record`, one call per instance sampled)
//! and published as gauges (`.gauges`, one per window closed); `policy`
//! has its subjects gathered (`.subjects`) and the script evaluated over
//! them (`.eval`), one call each per pass; a restart is split into taking
//! the boot kit, building the host framework and the rest. Wall-clock µs
//! per phase, and the same rounds' wall time with the table off and on, go
//! to stderr only: they are not exact.
//!
//! A third table, `migrate phases`, is the same profile of a hand-off: a
//! benchmark-shaped `migrate` cycle — 5 nodes, 20 persist-on-stop counters
//! each beside 256 1 KiB rows; per op an `incr`, a migration to the next
//! node and steps until it serves there — one op per counter, after a first
//! cycle with the table off. It prints, per op, the calls and allocations
//! of each phase that ran, and of the parts of `apply_control`, `gcs.handle`
//! and `gcs.tick` whether they ran or not — the source's `release`, and the destination's
//! `adopt` with its restore's parts `adopt.read`, `adopt.manifests`,
//! `adopt.resolve`, `adopt.start` (and, inside the start,
//! `adopt.register`) and `adopt.write` — and last the whole op's
//! allocations. Every allocation of an adoption is one of its restore's:
//! the bin exits non-zero naming the row when `adopt`'s allocations differ
//! from the sum of its five direct parts'. The `adopt.*` rows of the
//! `failover` table count a restarted node's host restore as well.
//!
//! A fourth table, `serve phases`, in two parts, is the request path's
//! profile: a benchmark-shaped `serve_read` tick and a `serve_write` one —
//! 5 nodes, 40 web instances or 40 write-through counters behind one
//! round-robin VIP, 8 000/s per backend from 64-deep queues; per tick a
//! step, 80 admissions at the VIP, the 80 calls to Zipf-popular tenants
//! they admitted, and a drain — 200 ticks after every instance's first
//! call and 20 ticks with the table off. It prints, per tick, the calls and
//! allocations of the request path's phases — `ipvs.admit`, `ipvs.drain`,
//! `call.route` (the whole call, routed from the reference registry to the
//! home node), `call.instance` (inside it: the instance's lookup, the
//! sandbox check and the activator) and `call.persist` (inside that: the
//! write-through) — and of every step phase that ran, then the whole
//! tick's allocations. The `phases` and `migrate phases` tables leave the request path's
//! phases out, though their rounds' `incr`s enter them. Each phase's ns per
//! tick and per call go to stderr only, and so does what the same ticks
//! cost with the phase table off, which reads no clock per phase: ns per
//! admission, per drain, per routed call, and per `home_of`, the call's
//! lookup of its home.
//!
//! The E5 migration round's SAN bytes and the E14 counter-scale swap
//! blackout are pinned by their own captures, `results/e5_migration_cost.txt`
//! and `results/e14_hot_swap.txt`. Wall-clock cost is not guarded here: the
//! stand-alone `benchmark/` package measures it (calibrated, ten
//! repetitions), and steady-state allocation counts are pinned by the
//! `alloc_guard` tests.

use dosgi_bench::print_table;
use dosgi_core::loadgen::{ClassMix, RateSchedule, ScheduledLoadGenerator, ZipfSampler};
use dosgi_core::{workloads, BootKit, ClusterConfig, DosgiCluster, DosgiNode, NodeConfig};
use dosgi_ipvs::{replicated_service, AdmissionConfig, IpvsDirector, RequestClass, Scheduler};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SimTime, SocketAddr};
use dosgi_osgi::Framework;
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::{Phase, Phases, ScrapeConfig, Telemetry};
use dosgi_vosgi::InstanceManager;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting allocation requests for the phase table.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory
// being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
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

/// The version of the counter instance's manifest row, read past the SAN's
/// counters.
fn manifest_row_version(store: &SharedStore) -> Option<u64> {
    let (_, rows) = store
        .dump()
        .into_iter()
        .find(|(ns, _)| ns == "instance/ctr")?;
    let (_, row) = rows
        .into_iter()
        .find(|(key, _)| key == "bundle/1/manifest")?;
    Some(row.version)
}

/// Both ends of a hand-off at the instance manager, for a persist-on-stop
/// counter beside `blobs` 1 KiB rows it never reads: SAN operations, rows
/// and bytes written by the release (stop, then destroy keeping the
/// state), then SAN operations, rows and bytes written and rows read by the
/// adoption that follows; and whether the adoption wrote the bundle's
/// manifest row, changed or (skipped as) unchanged.
fn measure_handoff(blobs: usize) -> ([u64; 7], bool) {
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
    let manifest = manifest_row_version(&store);
    mgr.adopt_instance(descriptor).expect("adopts");
    let adopt = store.stats();
    let manifest_written = manifest.is_none()
        || manifest_row_version(&store) != manifest
        || adopt.writes_skipped != release.writes_skipped;
    let counts = [
        released - before,
        release.writes,
        release.bytes_written,
        ops() - released,
        adopt.writes - release.writes,
        adopt.bytes_written - release.bytes_written,
        adopt.reads - release.reads,
    ];
    (counts, manifest_written)
}

/// A node's host boot at the SAN: SAN operations, rows written and bytes
/// written by a first boot over an empty namespace, then SAN operations,
/// rows read, rows written and bytes read by the same node restarted over
/// what that boot wrote.
fn measure_boot() -> ([u64; 3], [u64; 4]) {
    let (store, telemetry) = (SharedStore::new(), Telemetry::new());
    store.set_telemetry(telemetry.clone());
    let kit = Rc::new(BootKit::new(NodeConfig::default()));
    let boot = || {
        let (id, now) = (NodeId(0), SimTime::ZERO);
        drop(DosgiNode::new(
            id,
            vec![id],
            &kit,
            store.clone(),
            now,
            &Phases::disabled(),
        ));
    };
    let ops = || telemetry.counter("san.ops");
    boot();
    let (booted, first) = (ops(), store.stats());
    boot();
    let restart = store.stats();
    (
        [booted, first.writes, first.bytes_written],
        [
            ops() - booted,
            restart.reads - first.reads,
            restart.writes - first.writes,
            restart.bytes_read - first.bytes_read,
        ],
    )
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

/// Rounds the phase table averages over: one per victim.
const PHASE_ROUNDS: u64 = 4;

/// The request path's phases. Only the `serve phases` tables show them: a
/// `failover` round's and a `migrate` op's `incr`s enter them too, and
/// those tables are the step loop's.
const REQUEST_PATH: [Phase; 5] = [
    Phase::IpvsAdmit,
    Phase::IpvsDrain,
    Phase::CallRoute,
    Phase::CallInstance,
    Phase::CallPersist,
];

/// The `failover` workload's cluster, settled: 5 nodes, 20 web and 20
/// write-through counter instances, observability on. Returns the names,
/// the counters last.
fn failover_cluster() -> (DosgiCluster, Vec<String>) {
    let mut c = DosgiCluster::new(5, ClusterConfig::default(), 7);
    c.enable_observability(ScrapeConfig::default(), DosgiCluster::default_slos());
    c.run_for(SimDuration::from_millis(500));
    let mut names = Vec::new();
    for i in 0..40 {
        let descriptor = if i < 20 {
            let name = format!("web-{i:02}");
            workloads::web_instance(&name, &name)
        } else {
            let name = format!("ctr-{i:02}");
            workloads::counter_instance_with(&name, &name, workloads::COUNTER_WRITE_THROUGH)
        };
        names.push(descriptor.name.clone());
        c.deploy(descriptor, i % 5)
            .expect("deploy on a healthy cluster");
    }
    c.run_for(SimDuration::from_secs(3));
    c.take_events();
    (c, names)
}

/// One `failover` round with node `victim` as the casualty.
fn failover_round(c: &mut DosgiCluster, names: &[String], victim: usize) {
    let step_until = |c: &mut DosgiCluster, done: &dyn Fn(&DosgiCluster) -> bool| {
        for _ in 0..2_000 {
            if done(c) {
                return;
            }
            c.step();
        }
        panic!("the cluster did not get there in 2000 steps");
    };
    for name in &names[20..] {
        c.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null)
            .expect("a serving counter");
    }
    c.crash_node(victim);
    step_until(c, &|c| names.iter().all(|n| c.probe(n)));
    c.restart_node(victim);
    step_until(c, &|c| c.running_nodes().len() == 5);
    for _ in 0..200 {
        c.step();
    }
    drop(c.take_events());
}

/// The direct parts of an adoption's restore: `adopt.register` runs inside
/// `adopt.start`.
const ADOPT_PARTS: [Phase; 5] = [
    Phase::AdoptRead,
    Phase::AdoptManifests,
    Phase::AdoptResolve,
    Phase::AdoptStart,
    Phase::AdoptWrite,
];

/// Ops the `migrate` table averages over: one per counter, a full cycle.
const MIGRATE_OPS: usize = 20;

/// The `migrate` workload's cluster, settled: 5 nodes and 20
/// persist-on-stop counters, each beside 256 1 KiB rows. Returns the names
/// and each counter's home.
fn migrate_cluster() -> (DosgiCluster, Vec<String>, Vec<usize>) {
    let mut c = DosgiCluster::new(5, ClusterConfig::default(), 7);
    c.run_for(SimDuration::from_millis(500));
    let names: Vec<String> = (0..MIGRATE_OPS).map(|i| format!("ctr-{i:02}")).collect();
    let homes: Vec<usize> = (0..MIGRATE_OPS).map(|i| i % 5).collect();
    for (i, (name, &home)) in names.iter().zip(&homes).enumerate() {
        c.deploy(workloads::counter_instance(name, name), home)
            .expect("deploy on a healthy cluster");
        let ns = format!("instance/{name}/data/{}", workloads::COUNTER_ON_STOP);
        for b in 0..256 {
            let blob = Value::Bytes(vec![(i + b) as u8; 1024]);
            c.store()
                .put(&ns, &format!("blob-{b:03}"), blob)
                .expect("no faults armed");
        }
    }
    c.run_for(SimDuration::from_secs(2));
    assert!(names.iter().all(|n| c.probe(n)), "every counter serves");
    c.take_events();
    (c, names, homes)
}

/// One `migrate` op: an `incr`, a migration of counter `i` to the next
/// node, and steps until it serves there.
fn migrate_op(c: &mut DosgiCluster, names: &[String], homes: &mut [usize], i: usize) {
    let (name, to) = (names[i].as_str(), (homes[i] + 1) % 5);
    c.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null)
        .expect("a serving counter");
    c.migrate(name, to).expect("both nodes are up");
    for _ in 0..2_000 {
        if c.home_of(name) == Some(to) && c.probe(name) {
            break;
        }
        c.step();
    }
    assert!(c.home_of(name) == Some(to) && c.probe(name), "migrated");
    homes[i] = to;
    drop(c.take_events());
}

/// Spans opened so far, ordered messages sent and adoptions completed:
/// what the control plane names an instance in.
fn control_units(c: &DosgiCluster) -> [u64; 3] {
    let (log, t) = (c.trace_log(), c.telemetry());
    [
        log.events.len() as u64 + log.dropped,
        t.counter("gcs.order.sent"),
        t.counter("core.migration.completed") + t.counter("core.failover.adoptions"),
    ]
}

/// [`control_units`] per `migrate` op of a cycle after a first one, and
/// per `failover` round of `PHASE_ROUNDS`, each on a cluster of its own.
fn measure_control_work() -> ([f64; 3], [f64; 3]) {
    let per = |c: &DosgiCluster, before: [u64; 3], n: usize| {
        let after = control_units(c);
        std::array::from_fn(|i| (after[i] - before[i]) as f64 / n as f64)
    };
    let (mut c, names, mut homes) = migrate_cluster();
    for i in 0..MIGRATE_OPS {
        migrate_op(&mut c, &names, &mut homes, i);
    }
    let before = control_units(&c);
    for i in 0..MIGRATE_OPS {
        migrate_op(&mut c, &names, &mut homes, i);
    }
    let migrate = per(&c, before, MIGRATE_OPS);
    let (mut c, names) = failover_cluster();
    let before = control_units(&c);
    for victim in 1..=PHASE_ROUNDS as usize {
        failover_round(&mut c, &names, victim);
    }
    (migrate, per(&c, before, PHASE_ROUNDS as usize))
}

/// The phase table of one `migrate` cycle — every counter migrated once,
/// after a first cycle with the table off — per op: calls and allocations
/// of each phase that ran, µs for stderr, and last the whole op's
/// allocations.
fn measure_migrate_phases() -> Vec<(&'static str, f64, f64, f64)> {
    let (mut c, names, mut homes) = migrate_cluster();
    for i in 0..MIGRATE_OPS {
        migrate_op(&mut c, &names, &mut homes, i);
    }
    let phases = Phases::new(allocations);
    c.set_phases(phases.clone());
    let before = allocations();
    for i in 0..MIGRATE_OPS {
        migrate_op(&mut c, &names, &mut homes, i);
    }
    let per_op = |n: u64| n as f64 / MIGRATE_OPS as f64;
    let whole = per_op(allocations() - before);
    let mut table: Vec<_> = Phase::ALL
        .iter()
        .filter(|p| !REQUEST_PATH.contains(p))
        .map(|&p| (p.name(), phases.count(p)))
        .filter(|(name, n)| {
            n.calls > 0 || name.starts_with("apply_control.") || name.starts_with("gcs.")
        })
        .map(|(name, n)| {
            let us = per_op(n.ns) / 1e3;
            (name, per_op(n.calls), per_op(n.allocs), us)
        })
        .collect();
    table.push(("op", 1.0, whole, f64::NAN));
    table
}

/// The phase table of `PHASE_ROUNDS` `failover` rounds: per phase, calls
/// and allocations per round, and µs per round for stderr.
fn measure_phases() -> Vec<(&'static str, f64, f64, f64)> {
    let (mut c, names) = failover_cluster();
    let phases = Phases::new(allocations);
    c.set_phases(phases.clone());
    for victim in 1..=PHASE_ROUNDS as usize {
        failover_round(&mut c, &names, victim);
    }
    let per_round = |n: u64| n as f64 / PHASE_ROUNDS as f64;
    let mut table: Vec<_> = Phase::ALL
        .iter()
        .filter(|p| !REQUEST_PATH.contains(p))
        .map(|&p| {
            let n = phases.count(p);
            let us = per_round(n.ns) / 1e3;
            (p.name(), per_round(n.calls), per_round(n.allocs), us)
        })
        .collect();
    let restart = phases.count(Phase::RestartNode);
    let parts = [Phase::RestartKit, Phase::RestartHost].map(|p| phases.count(p));
    let rest =
        |f: fn(&dosgi_telemetry::PhaseCount) -> u64| f(&restart) - parts.iter().map(f).sum::<u64>();
    table.push((
        "restart_node.rest",
        per_round(restart.calls),
        per_round(rest(|n| n.allocs)),
        per_round(rest(|n| n.ns)) / 1e3,
    ));
    table
}

/// Ticks the `serve phases` tables average over: a simulated second.
const SERVE_TICKS: u64 = 200;
/// Requests per tick, as in the benchmark: 16 000/s, 40 % of what the
/// five backends admit.
const SERVE_REQUESTS: u64 = 80;
const SERVE_VIP: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 120), Port(80));

/// The `serve_read` (`write` false) or `serve_write` workload's loop: 40
/// web instances, or 40 write-through counters, on a settled 5-node
/// cluster behind one round-robin VIP whose backends serve 8 000/s each
/// from 64-deep queues; Zipf-popular tenants and the standard class mix.
struct Serve {
    cluster: DosgiCluster,
    director: IpvsDirector,
    names: Vec<String>,
    tenants: ZipfSampler,
    classes: ClassMix,
    arg: Value,
    client: u64,
    write: bool,
}

impl Serve {
    /// The loop's cluster, settled, every instance called once (its first
    /// call creates its data area) and 20 ticks run.
    fn new(write: bool) -> Serve {
        let mut cluster = DosgiCluster::new(5, ClusterConfig::default(), 7);
        cluster.run_for(SimDuration::from_millis(500));
        let names: Vec<String> = (0..40).map(|i| format!("tenant-{i:03}")).collect();
        for (i, name) in names.iter().enumerate() {
            let descriptor = if write {
                workloads::counter_instance_with(name, name, workloads::COUNTER_WRITE_THROUGH)
            } else {
                workloads::web_instance(name, name)
            };
            cluster
                .deploy(descriptor, i % 5)
                .expect("deploy on a healthy cluster");
        }
        cluster.run_for(SimDuration::from_secs(2));
        let mut director = IpvsDirector::new();
        director.set_telemetry(cluster.telemetry().clone());
        let backends: Vec<NodeId> = (0..5).map(NodeId).collect();
        director.add_service(
            replicated_service(SERVE_VIP, Scheduler::RoundRobin, &backends)
                .with_admission(AdmissionConfig::per_second(8_000, 64)),
        );
        let mut serve = Serve {
            cluster,
            director,
            names,
            tenants: ZipfSampler::new(40, 1.0, 1),
            classes: ClassMix::standard_web(2),
            arg: Value::map().with("work_us", 20i64),
            client: 0,
            write,
        };
        for i in 0..serve.names.len() {
            serve.call(i);
        }
        for _ in 0..20 {
            serve.tick();
        }
        serve
    }

    /// The loop's call to tenant `i`.
    fn call(&mut self, i: usize) {
        let (interface, method) = if self.write {
            (workloads::COUNTER_SERVICE, "incr")
        } else {
            (workloads::WEB_SERVICE, "handle")
        };
        self.cluster
            .call(&self.names[i], interface, method, &self.arg)
            .expect("a serving instance");
    }

    /// One op of the benchmark: a step, 80 admissions, the 80 calls and a
    /// drain. The requests are drawn first; then the admissions, the calls,
    /// a second lookup of their tenants' homes and the drain are timed, each
    /// part as a whole.
    fn tick(&mut self) -> TickTimes {
        self.cluster.step();
        let now_us = self.cluster.now().as_micros();
        let mut requests = [(0, RequestClass::Standard); SERVE_REQUESTS as usize];
        for request in &mut requests {
            *request = (self.tenants.sample(), self.classes.sample());
        }
        let t = Instant::now();
        for &(_, class) in &requests {
            self.client += 1;
            self.director
                .admit(self.client, SERVE_VIP, class, now_us)
                .expect("40 % load: nothing is shed");
        }
        let admissions = t.elapsed();
        let t = Instant::now();
        for &(tenant, _) in &requests {
            self.call(tenant);
        }
        let calls = t.elapsed();
        let t = Instant::now();
        for &(tenant, _) in &requests {
            black_box(self.cluster.home_of(&self.names[tenant]));
        }
        let lookups = t.elapsed();
        let t = Instant::now();
        let done = self.director.drain(SERVE_VIP, now_us);
        let drain = t.elapsed();
        assert!(done.iter().all(|c| !c.missed_deadline()), "on time");
        TickTimes {
            admissions,
            calls,
            lookups,
            drain,
        }
    }
}

/// The wall times of the parts of one serve tick.
#[derive(Default)]
struct TickTimes {
    admissions: Duration,
    calls: Duration,
    lookups: Duration,
    drain: Duration,
}

/// The phase table of `SERVE_TICKS` ticks of the `serve_read` (`write`
/// false) or `serve_write` loop, per tick: calls and allocations of the
/// request path's phases and of every other phase that ran, ns for
/// stderr, and last the whole tick's allocations.
fn measure_serve_phases(write: bool) -> Vec<(&'static str, f64, f64, f64)> {
    let mut serve = Serve::new(write);
    let phases = Phases::new(allocations);
    serve.cluster.set_phases(phases.clone());
    serve.director.set_phases(phases.clone());
    let before = allocations();
    for _ in 0..SERVE_TICKS {
        serve.tick();
    }
    let per_tick = |n: u64| n as f64 / SERVE_TICKS as f64;
    let whole = per_tick(allocations() - before);
    let mut table: Vec<_> = Phase::ALL
        .iter()
        .map(|&p| (p, phases.count(p)))
        .filter(|(p, n)| n.calls > 0 || REQUEST_PATH.contains(p))
        .map(|(p, n)| {
            (
                p.name(),
                per_tick(n.calls),
                per_tick(n.allocs),
                per_tick(n.ns),
            )
        })
        .collect();
    table.push(("op", 1.0, whole, f64::NAN));
    table
}

/// ns per admission, per drain, per routed call and per `home_of` over
/// `SERVE_TICKS` ticks of the `serve_read` (`write` false) or `serve_write`
/// loop with the phase table off, each the best of three passes.
fn serve_ns_with_phases_off(write: bool) -> [f64; 4] {
    let mut serve = Serve::new(write);
    let requests = (SERVE_TICKS * SERVE_REQUESTS) as f64;
    let mut best = [f64::INFINITY; 4];
    for _ in 0..3 {
        let mut sum = TickTimes::default();
        for _ in 0..SERVE_TICKS {
            let tick = serve.tick();
            sum.admissions += tick.admissions;
            sum.calls += tick.calls;
            sum.lookups += tick.lookups;
            sum.drain += tick.drain;
        }
        let ns = |d: Duration, per: f64| d.as_nanos() as f64 / per;
        let pass = [
            ns(sum.admissions, requests),
            ns(sum.drain, SERVE_TICKS as f64),
            ns(sum.calls, requests),
            ns(sum.lookups, requests),
        ];
        for (best, pass) in best.iter_mut().zip(pass) {
            *best = best.min(pass);
        }
    }
    best
}

/// Wall time of `PHASE_ROUNDS` `failover` rounds with the phase table off
/// and on, best of five alternating tries each, in µs.
fn phase_table_cost() -> (f64, f64) {
    let (mut c, names) = failover_cluster();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (on, best) in best.iter_mut().enumerate() {
            c.set_phases(if on == 1 {
                Phases::new(allocations)
            } else {
                Phases::disabled()
            });
            let t = Instant::now();
            for victim in 1..=PHASE_ROUNDS as usize {
                failover_round(&mut c, &names, victim);
            }
            *best = best.min(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    (best[0], best[1])
}

/// A phase table's printed rows: name, calls and allocations.
fn phase_rows(table: &[(&str, f64, f64, f64)]) -> Vec<Vec<String>> {
    table
        .iter()
        .map(|(name, calls, allocs, _)| {
            vec![
                name.to_string(),
                format!("{calls:.2}"),
                format!("{allocs:.2}"),
            ]
        })
        .collect()
}

/// Runs every scenario — the table in the module docs, as data — prints
/// the counts, and fails naming every row that is broken on its own terms.
fn main() {
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    let mut row = |name: &str, counted: &str, value: String, why: Option<&str>| {
        rows.push(vec![name.to_owned(), counted.to_owned(), value]);
        broken.extend(why.map(|why| format!("perf_guard[{name}]: {why}")));
    };

    let (small, large) = (measure_migrate_reads(64), measure_migrate_reads(256));
    row(
        "migrate_reads",
        "migrate round [rows, bytes] read, beside 64 / 256 rows",
        format!("{small:?} / {large:?}"),
        (small != large || large.0 > 4).then_some(
            "a migrate round reads rows no call asked for — the data area is a row cache, \
             not a copy of the SAN",
        ),
    );

    let ((small, small_manifest), (large, large_manifest)) =
        (measure_handoff(4), measure_handoff(1024));
    let why = if small_manifest || large_manifest {
        Some("the adoption wrote the bundle's manifest row — a hand-off writes the running state only")
    } else {
        (small != large || large[0] > 2 || large[3] > 3).then_some(
            "an end of a hand-off costs more than one read and one write of what differs \
             (and the bundle's own row), or scales with the state beside it",
        )
    };
    row(
        "handoff",
        "hand-off ends [release_ops, release_rows_written, release_bytes_written, adopt_ops, \
         adopt_rows_written, adopt_bytes_written, adopt_rows_read], beside 4 / 1024 rows",
        format!("{small:?} / {large:?}"),
        why,
    );

    let (first, restart) = measure_boot();
    row(
        "boot",
        "host boot [ops, rows_written, bytes_written] first boot / \
         [ops, rows_read, rows_written, bytes_read] restart",
        format!("{first:?} / {restart:?}"),
        (restart[2] > 0 || first[0] > 1).then_some(
            "a restarted node writes its host snapshot instead of restoring it, or a first \
             boot writes its snapshot in more than one batch",
        ),
    );

    let (offered, completed, shed) = measure_admission();
    row(
        "admission",
        "e15 2x overload round: offered, completed, shed",
        format!("{offered}, {completed}, {shed}"),
        None,
    );

    let rounds = dosgi_core::chaos::failover_round_costs(40);
    let (early, late) = (rounds[4], rounds[39]);
    row(
        "failover_rounds",
        "per round [ordered_delivered, registry_ops, net_sent], round 5 / round 40",
        format!("{early:?} / {late:?}"),
        (early != late).then_some(
            "a failover round costs more as the cluster ages — rejoin must be O(members), \
             not O(history)",
        ),
    );

    let (migrate, failover) = measure_control_work();
    let units = |u: [f64; 3]| format!("[{}, {}, {}]", u[0], u[1], u[2]);
    row(
        "control_work",
        "[spans opened, ordered messages, adoptions] per migrate op / per failover round",
        format!("{} / {}", units(migrate), units(failover)),
        None,
    );

    print_table(
        "perf_guard: exact counts of deterministic scenarios (fixed seeds, simulated clock)",
        &["row", "counted", "value"],
        &rows,
    );
    let phases = measure_phases();
    print_table(
        "perf_guard phases: one benchmark-shaped failover round, averaged over four",
        &["phase", "calls per round", "allocations per round"],
        &phase_rows(&phases),
    );
    for (name, _, _, us) in &phases {
        eprintln!("phase {name}: {us:.1} µs per round");
    }
    let migrate = measure_migrate_phases();
    print_table(
        "perf_guard migrate phases: one benchmark-shaped migrate cycle, per op",
        &["phase", "calls per op", "allocations per op"],
        &phase_rows(&migrate),
    );
    for (name, _, _, us) in migrate.iter().filter(|(_, _, _, us)| !us.is_nan()) {
        eprintln!("migrate phase {name}: {us:.2} µs per op");
    }
    let allocs_of = |name: &str| {
        let row = migrate.iter().find(|(phase, ..)| *phase == name);
        row.map_or(0.0, |&(_, _, allocs, _)| allocs)
    };
    let parts = ADOPT_PARTS.iter().map(|p| allocs_of(p.name())).sum::<f64>();
    let adopt = allocs_of(Phase::Adopt.name());
    if adopt != parts {
        broken.push(format!(
            "perf_guard[migrate phases adopt]: an adoption allocates {adopt:.2} times per op, \
             its restore's parts {parts:.2} — an allocation outside every part is unaccounted for"
        ));
    }
    for (workload, write) in [("serve_read", false), ("serve_write", true)] {
        let serve = measure_serve_phases(write);
        let method = if write {
            "write-through incr"
        } else {
            "handle"
        };
        print_table(
            &format!(
                "perf_guard serve phases: one benchmark-shaped {workload} tick \
                 ({SERVE_REQUESTS} {method} requests), averaged over {SERVE_TICKS}"
            ),
            &["phase", "calls per tick", "allocations per tick"],
            &phase_rows(&serve),
        );
        for (name, calls, _, ns) in serve.iter().filter(|(_, _, _, ns)| !ns.is_nan()) {
            let per_call = if *calls > 0.0 { ns / calls } else { 0.0 };
            eprintln!("{workload} phase {name}: {ns:.0} ns per tick, {per_call:.0} ns per call");
        }
        let [admit_ns, drain_ns, call_ns, home_ns] = serve_ns_with_phases_off(write);
        eprintln!(
            "{workload} with the phase table off: {admit_ns:.0} ns per admission, \
             {drain_ns:.0} ns per drain, {call_ns:.0} ns per routed call, \
             {home_ns:.0} ns per home_of"
        );
    }
    let (off, on) = phase_table_cost();
    eprintln!(
        "phase table cost: {PHASE_ROUNDS} failover rounds take {off:.0} µs with it off, {on:.0} µs on ({:.3}x)",
        on / off
    );

    for why in &broken {
        eprintln!("{why}");
    }
    if !broken.is_empty() {
        std::process::exit(1);
    }
}
