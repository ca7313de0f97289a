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
//! | `migrate_reads` | one benchmark-shaped `migrate` round (incr → migrate → adopted → incr) of a counter whose data area holds 64, then 256, 1 KiB rows it never reads | SAN rows and bytes read | the two areas differ, or more than 4 rows are read: what an adoption reads is what its calls ask for, not the area | (3, 250) beside both areas |
//! | `handoff` | the two ends of a hand-off at the instance manager: a one-bundle persist-on-stop counter beside 4, then 1 024, 1 KiB rows it never reads, released (stop + destroy keeping its state) and adopted | SAN operations and rows written by each end, rows read by the adoption: 1 area flush + 1 `put_many` to release, 1 `read_namespace` + 1 area read + 1 `put_many` to adopt | the two areas differ, or an end takes more operations than that | [2, 2, 3, 1, 3] beside 4 and 1 024 rows |
//! | `boot` | a node's host boot at the SAN: a first boot over an empty namespace, then the same node restarted over what it wrote | SAN operations, rows and bytes written by the first boot; operations, rows read, rows written and bytes read by the restart | the restart writes a row (a restart is a restore), or the first boot takes more than one operation (its snapshot is one batch) | [1, 4, 699] / [2, 4, 0, 699] |
//! | `admission` | E15 admission hot path: one backend at 2 000/s, 64-deep queue, 2× open-loop Poisson load, class mix, 10 simulated seconds | requests offered, completed and shed | — | 40 244 / 19 990 / 20 200 |
//! | `failover_rounds` | 40 crash → adopt → restart → rejoin rounds, node 0 (the sequencer) never restarted | ordered deliveries, registry operations and messages sent per round | round 40 costs anything but what round 5 cost (a rejoin that replays history, or a sequencer that stops truncating, grows them with the cluster's age) | [17, 17, 1 130] at rounds 5 and 40 |
//!
//!
//! A second table, `phases`, is the step loop's profile: a benchmark-shaped
//! `failover` round — 5 nodes, 20 web and 20 write-through counter
//! instances under observability; 20 `incr`, a crash, the failover, a
//! restart, the rejoin and 200 settle steps — with the phase table on and a
//! counting global allocator feeding it. It prints, per round over four
//! rounds (one per victim), how often each phase ran and what it allocated;
//! a restart is split into taking the boot kit, building the host framework
//! and the rest. Wall-clock µs per phase, and the same rounds' wall time with
//! the table off and on, go to stderr only: they are not exact.
//!
//! The E5 migration round's SAN bytes and the E14 counter-scale swap
//! blackout are pinned by their own captures, `results/e5_migration_cost.txt`
//! and `results/e14_hot_swap.txt`. Wall-clock cost is not guarded here: the
//! stand-alone `benchmark/` package measures it (calibrated, ten
//! repetitions), and steady-state allocation counts are pinned by the
//! `alloc_guard` tests.

use dosgi_bench::print_table;
use dosgi_core::loadgen::{ClassMix, RateSchedule, ScheduledLoadGenerator};
use dosgi_core::{workloads, BootKit, ClusterConfig, DosgiCluster, DosgiNode, NodeConfig};
use dosgi_ipvs::{replicated_service, AdmissionConfig, IpvsDirector, Scheduler};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SimTime, SocketAddr};
use dosgi_osgi::Framework;
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::{Phase, Phases, ScrapeConfig, Telemetry};
use dosgi_vosgi::InstanceManager;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// A node's host boot at the SAN: SAN operations, rows written and bytes
/// written by a first boot over an empty namespace, then SAN operations,
/// rows read, rows written and bytes read by the same node restarted over
/// what that boot wrote.
fn measure_boot() -> ([u64; 3], [u64; 4]) {
    let (store, telemetry) = (SharedStore::new(), Telemetry::new());
    store.set_telemetry(telemetry.clone());
    let kit = Arc::new(BootKit::new(NodeConfig::default()));
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

    let (small, large) = (measure_handoff(4), measure_handoff(1024));
    row(
        "handoff",
        "hand-off ends [release_ops, release_rows_written, adopt_ops, adopt_rows_written, \
         adopt_rows_read], beside 4 / 1024 rows",
        format!("{small:?} / {large:?}"),
        (small != large || large[0] > 2 || large[2] > 3).then_some(
            "an end of a hand-off costs more than one read and one write of what differs \
             (and the bundle's own row), or scales with the state beside it",
        ),
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

    print_table(
        "perf_guard: exact counts of deterministic scenarios (fixed seeds, simulated clock)",
        &["row", "counted", "value"],
        &rows,
    );
    let phases = measure_phases();
    let phase_rows: Vec<Vec<String>> = phases
        .iter()
        .map(|(name, calls, allocs, _)| {
            vec![
                name.to_string(),
                format!("{calls:.2}"),
                format!("{allocs:.2}"),
            ]
        })
        .collect();
    print_table(
        "perf_guard phases: one benchmark-shaped failover round, averaged over four",
        &["phase", "calls per round", "allocations per round"],
        &phase_rows,
    );
    for (name, _, _, us) in &phases {
        eprintln!("phase {name}: {us:.1} µs per round");
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
