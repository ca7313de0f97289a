//! The four workloads. Each is a closed batch — "execute this fixed,
//! seeded op sequence" — on a five-node `DosgiCluster` with the default
//! configuration, driven from one thread.
//!
//! What an op is, and why each workload exists, is in `README.md`; the
//! one-line reasons are in `BENCHMARK.json`.

use crate::stats::ValueCounts;
use crate::trace::{Call, Trace};
use dosgi_core::loadgen::{ClassMix, ZipfSampler};
use dosgi_core::{migration, workloads, ClusterConfig, DosgiCluster};
use dosgi_ipvs::{
    replicated_service, AdmissionConfig, IpvsDirector, IpvsStats, RequestClass, Scheduler,
};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SimTime, SocketAddr};
use dosgi_san::Value;
use dosgi_telemetry::{ScrapeConfig, Telemetry};
use dosgi_testkit::mix_seed;

/// Nodes in every workload's cluster.
pub const NODES: usize = 5;
/// A round that has not converged after this many driver steps has failed.
pub const MAX_STEPS_PER_ROUND: u32 = 2_000;

const VIP: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 120), Port(80));
/// Requests per 5 ms tick: 16 000 req/s of simulated time, 40 % of what
/// five backends at 8 000 req/s admit.
pub const ARRIVALS_PER_TICK: u32 = 80;
const BACKEND_RATE: u64 = 8_000;
const QUEUE_CAPACITY: usize = 64;
const SERVE_INSTANCES: usize = 40;
const MIGRATE_INSTANCES: usize = 20;
const MIGRATE_BLOBS: usize = 256;
const BLOB_BYTES: usize = 1024;
const FAILOVER_WEB: usize = 20;
const FAILOVER_COUNTERS: usize = 20;
/// One simulated second of 5 ms ticks after the restarted node is running.
const SETTLE_STEPS: u32 = 200;

/// One of the benchmark's workloads, built and warmed by the harness.
pub trait Workload: Sized {
    /// The name used on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Ops in the timed window of a ten-second run.
    const OPS: u32;
    /// Repetitions of the sequence in one end-to-end run.
    const REPS: usize;
    /// How this workload's speed follows the calibration kernel's: when the
    /// machine slows the kernel down by a factor `f`, the workload's window
    /// takes `f^CAL_EXPONENT` as long. Fitted at repetition level in the
    /// noise study (`README.md`); `noise.sh` prints the current fit beside
    /// it.
    const CAL_EXPONENT: f64;

    /// Builds the cluster, boots it for 500 ms of simulated time, deploys
    /// and preloads. Everything random derives from `seed`.
    fn build(seed: u64, telemetry: Telemetry) -> Self;

    /// Executes the next op of the sequence; `false` if it failed.
    fn op(&mut self, tr: &mut impl Trace) -> bool;

    /// Modeled latency, in simulated microseconds, of every user-visible
    /// unit completed so far. The harness clears it when the warm-up ends.
    fn modeled_latencies_us(&mut self) -> &mut ValueCounts;

    /// The final state check: how many instances hold the wrong state.
    fn verify(&mut self) -> u64;

    /// The cluster, for the counters read at window boundaries.
    fn cluster(&mut self) -> &mut DosgiCluster;

    /// The VIP's counters (all zero where no request is routed).
    fn ipvs(&self) -> IpvsStats {
        IpvsStats::default()
    }
}

fn booted_cluster(seed: u64, telemetry: Telemetry) -> DosgiCluster {
    let mut c = DosgiCluster::new_with_telemetry(NODES, ClusterConfig::default(), seed, telemetry);
    c.run_for(SimDuration::from_millis(500));
    c
}

/// Steps until `done` holds; `false` if it does not within the step budget.
fn step_until(
    cluster: &mut DosgiCluster,
    tr: &mut impl Trace,
    mut done: impl FnMut(&DosgiCluster) -> bool,
) -> bool {
    for _ in 0..MAX_STEPS_PER_ROUND {
        if done(cluster) {
            return true;
        }
        tr.call(Call::Step, || cluster.step());
    }
    done(cluster)
}

fn counter_get(cluster: &mut DosgiCluster, name: &str) -> Option<i64> {
    cluster
        .call(name, workloads::COUNTER_SERVICE, "get", &Value::Null)
        .ok()
        .and_then(|v| v.as_int())
}

// ----------------------------------------------------------------------
// serve_read / serve_write
// ----------------------------------------------------------------------

/// The request loop behind `serve_read` and `serve_write`: 40 instances
/// behind one VIP; an op is one 5 ms tick carrying exactly 80 requests.
pub struct Serve<const WRITE: bool> {
    cluster: DosgiCluster,
    director: IpvsDirector,
    names: Vec<String>,
    // Acknowledged requests per instance: the expected counter value
    // (write) or `served` count (read).
    acked: Vec<i64>,
    tenants: ZipfSampler,
    classes: ClassMix,
    arg: Value,
    client: u64,
    latencies: ValueCounts,
}

/// 40 `web_instance`s calling `handle`.
pub type ServeRead = Serve<false>;
/// 40 write-through counters calling `incr`.
pub type ServeWrite = Serve<true>;

impl<const WRITE: bool> Serve<WRITE> {
    fn request(&mut self, tr: &mut impl Trace, now_us: u64) -> bool {
        let rank = self.tenants.sample();
        let class: RequestClass = self.classes.sample();
        self.client += 1;
        let (director, client) = (&mut self.director, self.client);
        let admitted = tr.call(Call::Admit, || director.admit(client, VIP, class, now_us));
        let (cluster, name, arg) = (&mut self.cluster, self.names[rank].as_str(), &self.arg);
        let (interface, method) = if WRITE {
            (workloads::COUNTER_SERVICE, "incr")
        } else {
            (workloads::WEB_SERVICE, "handle")
        };
        let reply = tr.call(Call::Invoke, || cluster.call(name, interface, method, arg));
        // Every reply carries the instance's running count, so a lost,
        // duplicated or misrouted request shows at once.
        let count = match &reply {
            Ok(v) if WRITE => v.as_int(),
            Ok(v) => v
                .get("served")
                .and_then(Value::as_int)
                .filter(|_| v.get("status").and_then(Value::as_int) == Some(200)),
            Err(_) => None,
        };
        let expected = self.acked[rank] + 1;
        if count == Some(expected) {
            self.acked[rank] = expected;
        }
        admitted.is_ok() && count == Some(expected)
    }
}

impl<const WRITE: bool> Workload for Serve<WRITE> {
    const NAME: &'static str = if WRITE { "serve_write" } else { "serve_read" };
    const OPS: u32 = if WRITE { 6_500 } else { 10_000 };
    const REPS: usize = 10;
    const CAL_EXPONENT: f64 = if WRITE { 1.20 } else { 1.30 };

    fn build(seed: u64, telemetry: Telemetry) -> Self {
        let mut cluster = booted_cluster(seed, telemetry.clone());
        let names: Vec<String> = (0..SERVE_INSTANCES)
            .map(|i| format!("tenant-{i:03}"))
            .collect();
        for (i, name) in names.iter().enumerate() {
            let descriptor = if WRITE {
                workloads::counter_instance_with(name, name, workloads::COUNTER_WRITE_THROUGH)
            } else {
                workloads::web_instance(name, name)
            };
            cluster
                .deploy(descriptor, i % NODES)
                .expect("deploy on a healthy cluster");
        }
        let up = step_until(&mut cluster, &mut crate::trace::Off, |c| {
            names.iter().all(|n| c.probe(n))
        });
        assert!(up, "every instance starts serving");
        let mut director = IpvsDirector::new();
        director.set_telemetry(telemetry);
        let backends: Vec<NodeId> = (0..NODES as u32).map(NodeId).collect();
        director.add_service(
            replicated_service(VIP, Scheduler::RoundRobin, &backends)
                .with_admission(AdmissionConfig::per_second(BACKEND_RATE, QUEUE_CAPACITY)),
        );
        Serve {
            cluster,
            director,
            acked: vec![0; names.len()],
            names,
            tenants: ZipfSampler::new(SERVE_INSTANCES, 1.0, mix_seed(seed, 1)),
            classes: ClassMix::standard_web(mix_seed(seed, 2)),
            arg: Value::map().with("work_us", 20i64),
            client: 0,
            latencies: ValueCounts::default(),
        }
    }

    fn op(&mut self, tr: &mut impl Trace) -> bool {
        let cluster = &mut self.cluster;
        tr.call(Call::Step, || cluster.step());
        let now_us = self.cluster.now().as_micros();
        let mut ok = true;
        for _ in 0..ARRIVALS_PER_TICK {
            ok &= self.request(tr, now_us);
        }
        let director = &mut self.director;
        let done = tr.call(Call::Drain, || director.drain(VIP, now_us));
        for c in &done {
            ok &= !c.missed_deadline();
            self.latencies.record(c.latency_us());
        }
        ok
    }

    fn modeled_latencies_us(&mut self) -> &mut ValueCounts {
        &mut self.latencies
    }

    fn verify(&mut self) -> u64 {
        if !WRITE {
            // `handle` has no read-only twin; its count was checked on
            // every reply.
            return 0;
        }
        let mut wrong = 0;
        for (name, &acked) in self.names.iter().zip(&self.acked) {
            wrong += u64::from(counter_get(&mut self.cluster, name) != Some(acked));
        }
        wrong
    }

    fn cluster(&mut self) -> &mut DosgiCluster {
        &mut self.cluster
    }

    fn ipvs(&self) -> IpvsStats {
        self.director.stats()
    }
}

// ----------------------------------------------------------------------
// migrate
// ----------------------------------------------------------------------

/// 20 persist-on-stop counters, each carrying 256 KiB of persisted state;
/// an op is one complete graceful migration to the next node.
pub struct Migrate {
    cluster: DosgiCluster,
    names: Vec<String>,
    acked: Vec<i64>,
    homes: Vec<usize>,
    round: usize,
    latencies: ValueCounts,
}

impl Workload for Migrate {
    const NAME: &'static str = "migrate";
    const OPS: u32 = 2_500;
    const REPS: usize = 10;
    const CAL_EXPONENT: f64 = 1.30;

    fn build(seed: u64, telemetry: Telemetry) -> Self {
        let mut cluster = booted_cluster(seed, telemetry);
        let names: Vec<String> = (0..MIGRATE_INSTANCES)
            .map(|i| format!("ctr-{i:02}"))
            .collect();
        let homes: Vec<usize> = (0..MIGRATE_INSTANCES).map(|i| i % NODES).collect();
        // Blob contents come from the seed, so change detection and the
        // codec see different bytes on every seed.
        let mut rng = dosgi_testkit::TestRng::new(mix_seed(seed, 3));
        for (name, &home) in names.iter().zip(&homes) {
            cluster
                .deploy(workloads::counter_instance(name, name), home)
                .expect("deploy on a healthy cluster");
            let ns = format!("instance/{name}/data/{}", workloads::COUNTER_ON_STOP);
            for b in 0..MIGRATE_BLOBS {
                let mut blob = vec![0u8; BLOB_BYTES];
                rng.fill_bytes(&mut blob);
                cluster
                    .store()
                    .put(&ns, &format!("blob-{b:03}"), Value::Bytes(blob))
                    .expect("no faults armed");
            }
        }
        let up = step_until(&mut cluster, &mut crate::trace::Off, |c| {
            names.iter().all(|n| c.probe(n))
        });
        assert!(up, "every instance starts serving");
        cluster.take_events();
        Migrate {
            cluster,
            acked: vec![0; names.len()],
            names,
            homes,
            round: 0,
            latencies: ValueCounts::default(),
        }
    }

    fn op(&mut self, tr: &mut impl Trace) -> bool {
        let i = self.round % self.names.len();
        self.round += 1;
        let (cluster, name) = (&mut self.cluster, self.names[i].as_str());
        let reply = tr.call(Call::Invoke, || {
            cluster.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null)
        });
        let mut ok = reply.ok().and_then(|v| v.as_int()) == Some(self.acked[i] + 1);
        self.acked[i] += i64::from(ok);
        let to = (self.homes[i] + 1) % NODES;
        ok &= tr.call(Call::Migrate, || cluster.migrate(name, to)).is_ok();
        ok &= step_until(cluster, tr, |c| {
            c.home_of(name) == Some(to) && c.probe(name)
        });
        let events = tr.call(Call::TakeEvents, || cluster.take_events());
        match migration::migration_latency(&events, name) {
            Some(handoff) if ok => {
                self.homes[i] = to;
                self.latencies.record(handoff.as_micros());
                true
            }
            _ => false,
        }
    }

    fn modeled_latencies_us(&mut self) -> &mut ValueCounts {
        &mut self.latencies
    }

    fn verify(&mut self) -> u64 {
        let mut wrong = 0;
        for i in 0..self.names.len() {
            let name = self.names[i].as_str();
            let intact = self.cluster.home_of(name) == Some(self.homes[i])
                && counter_get(&mut self.cluster, name) == Some(self.acked[i]);
            wrong += u64::from(!intact);
        }
        wrong
    }

    fn cluster(&mut self) -> &mut DosgiCluster {
        &mut self.cluster
    }
}

// ----------------------------------------------------------------------
// failover
// ----------------------------------------------------------------------

/// 20 web + 20 write-through counter instances under continuous
/// observability; an op is one crash, recovery, restart and rejoin.
pub struct Failover {
    cluster: DosgiCluster,
    // Web instances first, then the counters.
    names: Vec<String>,
    acked: Vec<i64>,
    round: usize,
    latencies: ValueCounts,
}

fn all_serving(names: &[String], c: &DosgiCluster) -> bool {
    names.iter().all(|n| c.probe(n))
}

impl Workload for Failover {
    const NAME: &'static str = "failover";
    const OPS: u32 = 60;
    const REPS: usize = 10;
    const CAL_EXPONENT: f64 = 1.15;

    fn build(seed: u64, telemetry: Telemetry) -> Self {
        let mut cluster = booted_cluster(seed, telemetry);
        cluster.enable_observability(ScrapeConfig::default(), DosgiCluster::default_slos());
        let mut names = Vec::with_capacity(FAILOVER_WEB + FAILOVER_COUNTERS);
        for i in 0..FAILOVER_WEB {
            let name = format!("web-{i:02}");
            cluster
                .deploy(workloads::web_instance(&name, &name), i % NODES)
                .expect("deploy on a healthy cluster");
            names.push(name);
        }
        for i in 0..FAILOVER_COUNTERS {
            let name = format!("ctr-{i:02}");
            let descriptor =
                workloads::counter_instance_with(&name, &name, workloads::COUNTER_WRITE_THROUGH);
            cluster
                .deploy(descriptor, i % NODES)
                .expect("deploy on a healthy cluster");
            names.push(name);
        }
        let up = step_until(&mut cluster, &mut crate::trace::Off, |c| {
            all_serving(&names, c)
        });
        assert!(up, "every instance starts serving");
        cluster.take_events();
        Failover {
            cluster,
            names,
            acked: vec![0; FAILOVER_COUNTERS],
            round: 0,
            latencies: ValueCounts::default(),
        }
    }

    fn op(&mut self, tr: &mut impl Trace) -> bool {
        // Node 0, the sequencer, stays up, as a long-lived coordinator does.
        let victim = 1 + self.round % (NODES - 1);
        self.round += 1;
        let (cluster, names) = (&mut self.cluster, &self.names);
        let mut ok = true;
        for (name, acked) in names[FAILOVER_WEB..].iter().zip(&mut self.acked) {
            let reply = tr.call(Call::Invoke, || {
                cluster.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null)
            });
            let counted = reply.ok().and_then(|v| v.as_int()) == Some(*acked + 1);
            *acked += i64::from(counted);
            ok &= counted;
        }
        let crashed_at: SimTime = cluster.now();
        tr.call(Call::CrashNode, || cluster.crash_node(victim));
        ok &= step_until(cluster, tr, |c| all_serving(names, c));
        let recovered = cluster.now().since(crashed_at);
        tr.call(Call::RestartNode, || cluster.restart_node(victim));
        ok &= step_until(cluster, tr, |c| c.running_nodes().len() == NODES);
        for _ in 0..SETTLE_STEPS {
            tr.call(Call::Step, || cluster.step());
        }
        drop(tr.call(Call::TakeEvents, || cluster.take_events()));
        ok &= all_serving(names, cluster) && self.verify() == 0;
        if ok {
            self.latencies.record(recovered.as_micros());
        }
        ok
    }

    fn modeled_latencies_us(&mut self) -> &mut ValueCounts {
        &mut self.latencies
    }

    fn verify(&mut self) -> u64 {
        let mut wrong = 0;
        for (name, &acked) in self.names[FAILOVER_WEB..].iter().zip(&self.acked) {
            wrong += u64::from(counter_get(&mut self.cluster, name) != Some(acked));
        }
        wrong
    }

    fn cluster(&mut self) -> &mut DosgiCluster {
        &mut self.cluster
    }
}
