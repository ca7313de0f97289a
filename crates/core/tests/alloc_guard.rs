//! Exact, noise-free guards under a counting `#[global_allocator]`.
//!
//! What waiting costs: a settled cluster's `step()` in which nothing is
//! sent, delivered or scraped allocates nothing — with telemetry on or off,
//! with the observability pipeline enabled — and such steps are most of a
//! settled cluster's steps. What watching costs: a full availability pass
//! over 40 records allocates nothing, nor does a scrape whose series all
//! exist.
//!
//! What a request costs: a stateless `handle` allocates its reply (≤ 3), a
//! write-through `incr` on a hot key nothing — the lookup of the best
//! provider reads the first entry of a list kept in order — and the first
//! call after an adoption the same whatever the size of the area it does not
//! read. Registering and unregistering a two-interface service beside eight
//! others allocates 3 times: one interface list, whose names it shares, and
//! two lists grown.
//!
//! What a hand-off costs: ten rounds of the `migrate` workload — `incr`, the
//! ordered hand-off, the adoption — allocate ≤ 867 times, and each round
//! exactly as often beside 4 rows of state as beside 1 024. Each end's one
//! snapshot write builds no row: a restore of a one-bundle instance through
//! the repository reads its namespace once, copies only the row the bundle
//! keeps and shares the repository's manifest, allocating 20 times, its
//! closing write included; the shutdown that releases it allocates once. A
//! restored bundle holds the repository's manifest itself; one upgraded to
//! a revision the repository does not hold restores by parsing its row,
//! to what a restore that knows no manifest makes of it.
//!
//! What a rejoin costs: a sync's sender exports one vector and one name per
//! record, and no descriptor; a joiner imports 40 records in 87 allocations,
//! holding the sender's descriptors rather than copies of them; importing a
//! registry that says nothing new allocates nothing; ordering a
//! `RegistrySync` costs, beyond its export, the same for 4 records as for
//! 40; the restart takes its share of the cluster's one boot kit and
//! restores the host framework from the node's own snapshot, sharing the
//! kit's host manifests, allocating exactly 78 times and writing no row; a
//! whole crash, failover, restart and rejoin of the `failover` workload —
//! one registry transfer — allocates ≤ 1 273 times; and a policy pass in
//! which nothing fires allocates its subject list.

use dosgi_core::autonomic::{AutonomicModule, DEFAULT_POLICY};
use dosgi_core::{
    workloads, AppPayload, ClusterConfig, ClusterRegistry, DosgiCluster, InstanceRecord, Wire,
};
use dosgi_gcs::{GcsConfig, GcsEvent, GroupNode};
use dosgi_monitor::{MonitoringModule, NodeCapacity};
use dosgi_net::{LinkConfig, NodeId, SimDuration, SimNet, SimTime};
use dosgi_osgi::{
    ActivatorFactory, BundleId, CallContext, Framework, FrameworkConfig, FrameworkMetrics,
    KnownManifests, Service, ServiceRegistry, UsageSnapshot, Version,
};
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::{Phases, ScrapeConfig, SeriesScraper, Telemetry};
use dosgi_vosgi::{BundleRepository, ResourceQuota};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

thread_local! {
    // Per thread, so tests running side by side do not see each other.
    // `const` and `Cell<u64>`: no lazy initialiser and no destructor, so
    // the allocator never re-enters itself through this.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting this thread's allocation requests.
struct Counting;

fn count() {
    REQUESTED.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the
// memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

const NODES: usize = 5;
const INSTANCES: usize = 40;
/// What a joiner's import of `INSTANCES` records allocates.
const JOINER_IMPORT: u64 = 87;
/// What `DosgiCluster::restart_node` allocates (150 while a restore copied
/// every row and its key to read them, parsed every manifest and
/// registered each host service with five copies of its metadata).
const RESTART: u64 = 78;

/// The `failover` workload's cluster at rest: 5 nodes, 40 instances — the
/// last `counters` of them write-through counters, the rest web — every one
/// serving, observability on. Returns the instance names with it.
fn settled_cluster(telemetry: Telemetry, counters: usize) -> (DosgiCluster, Vec<String>) {
    let mut c = DosgiCluster::new_with_telemetry(NODES, ClusterConfig::default(), 7, telemetry);
    c.enable_observability(ScrapeConfig::default(), DosgiCluster::default_slos());
    c.run_for(SimDuration::from_millis(500));
    let mut names = Vec::new();
    for i in 0..INSTANCES {
        let (name, descriptor) = if i < INSTANCES - counters {
            let name = format!("web-{i:02}");
            let descriptor = workloads::web_instance(&name, &name);
            (name, descriptor)
        } else {
            let name = format!("ctr-{i:02}");
            let descriptor =
                workloads::counter_instance_with(&name, &name, workloads::COUNTER_WRITE_THROUGH);
            (name, descriptor)
        };
        c.deploy(descriptor, i % NODES)
            .expect("deploy on a healthy cluster");
        names.push(name);
    }
    c.run_for(SimDuration::from_secs(3));
    assert!(names.iter().all(|name| c.probe(name)));
    c.take_events();
    (c, names)
}

fn no_event_steps_allocate_nothing(telemetry: Telemetry) {
    let (mut c, _) = settled_cluster(telemetry, 0);
    let (mut quiet, mut busy) = (0, 0);
    for _ in 0..400 {
        let traffic = c.net_mut().stats();
        let scrapes = c.scraper().map(|s| s.scrapes());
        let (allocations, ()) = allocations_in(|| c.step());
        // A step is an event if a message moved or the scraper ran. (On a
        // cluster booted together every other timer — sample, policy,
        // sweep — falls on a heartbeat step.)
        if c.net_mut().stats() == traffic && c.scraper().map(|s| s.scrapes()) == scrapes {
            quiet += 1;
            assert_eq!(allocations, 0, "a no-event step at {} allocated", c.now());
        } else {
            busy += 1;
        }
    }
    assert!(
        quiet >= 3 * busy,
        "a settled cluster mostly waits: {quiet} quiet steps, {busy} busy"
    );
    assert!(c.take_events().is_empty(), "nothing happened");
}

#[test]
fn no_event_steps_allocate_nothing_with_telemetry_on() {
    no_event_steps_allocate_nothing(Telemetry::new());
}

#[test]
fn no_event_steps_allocate_nothing_with_telemetry_off() {
    no_event_steps_allocate_nothing(Telemetry::disabled());
}

/// A full availability pass over the 40 records allocates nothing: the
/// tracker walks its records beside the registry's, and each home finds its
/// instance in its name index. (Handing an instance out mutably moves its
/// node's lifecycle epoch, which owes the next step a full pass.)
#[test]
fn a_full_availability_pass_allocates_nothing() {
    let (mut c, names) = settled_cluster(Telemetry::new(), 0);
    let mut quiet = 0;
    for (step, name) in names.iter().cycle().take(400).enumerate() {
        let home = c.home_of(name).expect("placed");
        let node = c.node_mut(home).expect("alive");
        let id = node.manager().find_by_name(name).expect("at its home");
        node.manager_mut().instance_mut(id);
        let traffic = c.net_mut().stats();
        let scrapes = c.scraper().map(|s| s.scrapes());
        let (allocations, ()) = allocations_in(|| c.step());
        if c.net_mut().stats() == traffic && c.scraper().map(|s| s.scrapes()) == scrapes {
            quiet += 1;
            assert_eq!(allocations, 0, "step {step}, a full pass, allocated");
        }
    }
    assert!(quiet >= 200, "{quiet} of 400 steps were quiet");
}

/// A scrape of the `failover` cluster's registry in which every series
/// exists already allocates nothing: it walks each kind's series beside the
/// registry's names.
#[test]
fn a_scrape_of_known_series_allocates_nothing() {
    let (mut c, _) = settled_cluster(Telemetry::new(), INSTANCES / 2);
    let mut scraper = SeriesScraper::new(ScrapeConfig::default());
    let mut measured = 0;
    for round in 0..10 {
        let (series, now_us) = (scraper.series_count(), c.now().as_micros());
        let (allocations, scraped) = allocations_in(|| scraper.scrape(c.telemetry(), now_us));
        assert!(scraped);
        if round > 0 && scraper.series_count() == series {
            measured += 1;
            assert_eq!(
                allocations, 0,
                "scrape {round} of {series} series allocated"
            );
        }
        c.run_for(SimDuration::from_micros(ScrapeConfig::default().cadence_us));
    }
    assert!(measured >= 5, "{measured} scrapes met no new metric");
}

/// Allocation requests made by this thread while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (REQUESTED.with(Cell::get) - before, out)
}

/// The request path on a settled cluster: a stateless `handle` touches no
/// data-area row and no SAN, and what it allocates is its reply, one vector; a
/// write-through `incr` on a hot key builds no name, no key and no copy of
/// the area on its way to the SAN.
fn request_path_allocations(telemetry: Telemetry) {
    let (mut c, _) = settled_cluster(telemetry, 0);
    c.deploy(
        workloads::counter_instance_with("ctr", "ctr", workloads::COUNTER_WRITE_THROUGH),
        0,
    )
    .expect("deploy on a healthy cluster");
    c.run_for(SimDuration::from_secs(1));
    let arg = Value::map().with("work_us", 20i64);
    // The first call of each creates the bundle's data area; from the
    // second on nothing is set up any more.
    for warm in 0..2 {
        let handle = allocations_in(|| c.call("web-00", workloads::WEB_SERVICE, "handle", &arg));
        let incr =
            allocations_in(|| c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null));
        assert!(handle.1.is_ok() && incr.1 == Ok(Value::Int(warm + 1)));
        if warm == 1 {
            assert!(handle.0 <= 1, "`handle` allocated {} times", handle.0);
            assert_eq!(incr.0, 0, "write-through `incr` allocated");
        }
    }
}

#[test]
fn request_path_allocations_with_telemetry_on() {
    request_path_allocations(Telemetry::new());
}

#[test]
fn request_path_allocations_with_telemetry_off() {
    request_path_allocations(Telemetry::disabled());
}

/// What a starting and a stopping bundle pay the service registry: the
/// registration's one interface list, whose names it shares with the two
/// lists that already exist, and its place in those lists (two lists
/// grown) — no property entry for what the record's fields answer, no
/// event, no second copy of its own metadata, no copy of anybody else's.
/// (18 while a registration copied its interfaces into its property map
/// and into two events, and each list's key was found by a fresh name.)
#[test]
fn register_and_unregister_allocations() {
    let service = || -> Box<dyn Service> {
        Box::new(|_: &mut CallContext<'_>, _: &str, arg: &Value| Ok(arg.clone()))
    };
    let mut registry = ServiceRegistry::new();
    for owner in 0..8 {
        registry.register(
            BundleId(owner),
            &["svc.a", "svc.b"],
            BTreeMap::new(),
            service(),
        );
    }
    let (allocations, ()) = allocations_in(|| {
        let id = registry.register(BundleId(8), &["svc.a", "svc.b"], BTreeMap::new(), service());
        registry.unregister(id).expect("registered a line ago");
    });
    assert_eq!(allocations, 3);
    assert_eq!(registry.references(Some("svc.b"), None).len(), 8);
}

/// The first call after an adoption reads the rows it asks for, not the
/// area: it allocates the same whether the instance's data namespace holds
/// one row or 257.
#[test]
fn first_call_after_adoption_does_not_scale_with_the_area() {
    let mut c = DosgiCluster::new_with_telemetry(3, ClusterConfig::default(), 7, Telemetry::new());
    c.run_for(SimDuration::from_millis(500));
    for name in ["small", "large"] {
        c.deploy(workloads::counter_instance(name, name), 0)
            .expect("deploy on a healthy cluster");
    }
    let ns = format!("instance/large/data/{}", workloads::COUNTER_ON_STOP);
    for b in 0..256 {
        c.store()
            .put(
                &ns,
                &format!("blob-{b:03}"),
                Value::Bytes(vec![b as u8; 1024]),
            )
            .expect("no faults armed");
    }
    c.run_for(SimDuration::from_secs(1));
    let mut first_call = |name: &str| {
        c.migrate(name, 1).expect("both nodes are up");
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.home_of(name), Some(1));
        let (allocations, reply) =
            allocations_in(|| c.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null));
        assert_eq!(reply, Ok(Value::Int(1)));
        allocations
    };
    assert_eq!(first_call("small"), first_call("large"));
}

/// A registry of `records` web instances spread over the nodes, as the
/// total order leaves it on every member.
fn registry_of(records: usize) -> ClusterRegistry {
    let mut registry = ClusterRegistry::new();
    for i in 0..records {
        let name = format!("web-{i:02}");
        registry.apply(&AppPayload::Deployed {
            descriptor: Arc::new(workloads::web_instance(&name, &name).to_value()),
            name,
            home: NodeId((i % NODES) as u32),
        });
    }
    registry
}

/// What a `RegistrySync` carries: every record, descriptors shared.
fn transfer(registry: &ClusterRegistry) -> Vec<InstanceRecord> {
    registry.records().cloned().collect()
}

/// A sync's sender exports one vector and one name per record; every
/// descriptor it ships is the one its own records hold.
#[test]
fn exporting_a_sync_copies_no_descriptor() {
    let registry = registry_of(INSTANCES);
    let (allocations, records) = allocations_in(|| transfer(&registry));
    assert_eq!(allocations, 1 + INSTANCES as u64);
    assert!(records
        .iter()
        .zip(registry.records())
        .all(|(sent, held)| Arc::ptr_eq(&sent.descriptor, &held.descriptor)));
}

/// A joiner's import of a 40-record sync inserts the records without
/// copying a descriptor: what it allocates is a name for the key and one
/// for the record, and the map's nodes.
#[test]
fn a_joiner_shares_every_descriptor_it_imports() {
    let records = transfer(&registry_of(INSTANCES));
    let mut joiner = ClusterRegistry::new();
    let (allocations, ()) = allocations_in(|| joiner.import(&records));
    assert_eq!(allocations, JOINER_IMPORT);
    assert!(joiner
        .records()
        .zip(&records)
        .all(|(held, sent)| Arc::ptr_eq(&held.descriptor, &sent.descriptor)));
}

/// A member that is up to date — every member but the joiner, on every
/// rejoin — imports a snapshot without allocating: no name, no descriptor,
/// no record is rebuilt to be found equal, whether the snapshot shares its
/// descriptors or holds equal ones of its own.
#[test]
fn importing_an_own_export_allocates_nothing() {
    let mut registry = registry_of(INSTANCES);
    let snapshot = transfer(&registry);
    let twin = transfer(&registry_of(INSTANCES));
    let (upserts, removes) = registry.export_delta(&[]);
    let before = registry.clone();
    let (allocations, ()) = allocations_in(|| {
        registry.import(&snapshot);
        registry.import(&twin);
        registry.import_delta(&upserts, &removes);
    });
    assert_eq!(allocations, 0);
    assert_eq!(registry, before);
}

/// What ordering one `RegistrySync` addressed to a joiner in a five-member
/// view allocates — its list of addressees, retry queue, sequencer log,
/// fan-out, delivery and five up-to-date imports — with the snapshot already
/// exported.
fn ordered_sync_allocations(records: usize) -> u64 {
    let registry = registry_of(records);
    let mut net: SimNet<Wire> = SimNet::new(LinkConfig::lan(), 7);
    let ids: Vec<NodeId> = (0..NODES).map(|_| net.register_node()).collect();
    let mut members: Vec<(GroupNode<Arc<AppPayload>>, ClusterRegistry)> = ids
        .iter()
        .map(|&id| {
            let gcs = GroupNode::new(id, ids.clone(), GcsConfig::lan(), SimTime::ZERO);
            (gcs, registry.clone())
        })
        .collect();
    // One driver step; returns how many members applied a sync in it.
    let step = |net: &mut SimNet<Wire>, members: &mut [(GroupNode<_>, ClusterRegistry)]| {
        net.advance(SimDuration::from_millis(5));
        let now = net.now();
        let mut applied = 0;
        for (gcs, registry) in members {
            for env in net.drain(gcs.id()) {
                gcs.handle(net, env.from, env.payload, now);
            }
            gcs.tick(net, now);
            for event in gcs.take_events() {
                if let GcsEvent::OrderedDeliver { msg, .. } = event {
                    let AppPayload::RegistrySync {
                        registry: snapshot, ..
                    } = &*msg.payload
                    else {
                        panic!("only a sync is ordered here");
                    };
                    registry.import(snapshot);
                    applied += 1;
                }
            }
        }
        applied
    };
    for _ in 0..100 {
        step(&mut net, &mut members);
    }
    assert!(members.iter().all(|(gcs, _)| gcs.view().len() == NODES));
    let snapshot = transfer(&registry);
    let (allocations, ()) = allocations_in(|| {
        let sync = AppPayload::RegistrySync {
            registry: snapshot,
            joined: vec![ids[NODES - 1]],
        };
        members[1].0.order(&mut net, Arc::new(sync));
        let mut applied = 0;
        while applied < NODES {
            applied += step(&mut net, &mut members);
        }
    });
    assert!(members.iter().all(|(_, held)| *held == registry));
    allocations
}

/// An ordered message is shared, not copied, and an up-to-date import
/// writes nothing: past its one export a sync costs the same whatever the
/// size of the registry it carries.
#[test]
fn an_ordered_sync_costs_its_export_and_nothing_else_that_scales() {
    assert_eq!(ordered_sync_allocations(4), ordered_sync_allocations(40));
}

/// A restart takes the node's share of the cluster's one boot kit and
/// restores the host framework from the node's own SAN snapshot: it reads
/// the snapshot's four rows back, writes none, and allocates exactly
/// `RESTART` times, telemetry on or off. A restart that built its kit again
/// (repository, factory, host manifests, compiled policy) allocated 339
/// times; one that booted a fresh host framework over its snapshot read no
/// row and allocated 165 times; the code before the kit did both, and wrote
/// its snapshot 13 times: 353.
fn a_restart_restores_and_shares_the_kit(telemetry: Telemetry) {
    let (mut c, names) = settled_cluster(telemetry, INSTANCES / 2);
    for victim in 1..NODES {
        c.crash_node(victim);
        for _ in 0..2_000 {
            if names.iter().all(|n| c.probe(n)) {
                break;
            }
            c.step();
        }
        let before = c.store().stats();
        let (allocations, ()) = allocations_in(|| c.restart_node(victim));
        let after = c.store().stats();
        let rows = (after.reads - before.reads, after.writes - before.writes);
        assert_eq!(rows, (4, 0), "node {victim}'s restart [read, wrote] rows");
        assert_eq!(allocations, RESTART, "restarting node {victim}");
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.running_nodes().len(), NODES);
    }
}

#[test]
fn a_restart_restores_and_shares_the_kit_with_telemetry_on() {
    a_restart_restores_and_shares_the_kit(Telemetry::new());
}

#[test]
fn a_restart_restores_and_shares_the_kit_with_telemetry_off() {
    a_restart_restores_and_shares_the_kit(Telemetry::disabled());
}

/// A round of the `failover` workload of `benchmark/`: 20 web and 20
/// write-through counter instances under observability; 20 `incr`, a crash,
/// the failover, a restart, the rejoin and 200 settle steps.
fn failover_round_allocations(telemetry: Telemetry) {
    let (mut c, names) = settled_cluster(telemetry, INSTANCES / 2);
    let step_until = |c: &mut DosgiCluster, done: &dyn Fn(&DosgiCluster) -> bool| {
        for _ in 0..2_000 {
            if done(c) {
                return;
            }
            c.step();
        }
        panic!("the cluster did not get there in 2000 steps");
    };
    let all_serving = |c: &DosgiCluster| names.iter().all(|n| c.probe(n));
    for round in 0..8 {
        let victim = 1 + round % (NODES - 1);
        let (allocations, ()) = allocations_in(|| {
            for name in &names[INSTANCES / 2..] {
                let reply = c.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null);
                assert_eq!(reply, Ok(Value::Int(round as i64 + 1)));
            }
            c.crash_node(victim);
            step_until(&mut c, &all_serving);
            c.restart_node(victim);
            step_until(&mut c, &|c| c.running_nodes().len() == NODES);
            for _ in 0..200 {
                c.step();
            }
            drop(c.take_events());
        });
        assert!(all_serving(&c));
        // Measured 998 to 1 273 over these rounds, telemetry on or off
        // (1 350 to 1 695 while an adoption copied every row and its key
        // to read them, parsed every manifest, registered each service
        // with five copies of its metadata and queued every lifecycle
        // event; 1 553 to 1 898 while a restart rebuilt the boot kit and wrote
        // a fresh host framework over its snapshot; 1 791 to 2 168 while
        // every snapshot write built the rows it
        // wrote; 2 499 to 2 885 while a sync's sender and every joiner
        // copied each descriptor; 2 947 to 3 334 while a rejoin shipped the
        // registry twice, as the admission sync and again as the delta
        // answering the joiner's `Hello`; 3 017 to 3 420 while a policy
        // pass copied every metric
        // onto its blackboard; 5 144 to 5 890 while a map was a tree with a
        // `String` per key and every non-empty mailbox was drained into a
        // fresh vector).
        assert!(
            allocations <= 1_273,
            "failover round {round} allocated {allocations} times"
        );
    }
}

#[test]
fn failover_round_allocations_with_telemetry_on() {
    failover_round_allocations(Telemetry::new());
}

#[test]
fn failover_round_allocations_with_telemetry_off() {
    failover_round_allocations(Telemetry::disabled());
}

/// Rounds of the `migrate` workload of `benchmark/` — 5 nodes, 20
/// persist-on-stop counters, each round an `incr`, a migration to the next
/// node and steps until the instance serves there — the migrating instances
/// beside `blobs` 1 KiB rows they never read. Returns each round's
/// allocations.
fn migrate_round_allocations(telemetry: Telemetry, blobs: usize) -> Vec<u64> {
    const COUNTERS: usize = 20;
    const ROUNDS: usize = 10;
    // The modeled adoption delay charges the SAN for every byte of state.
    // Free transfer keeps the tick an adoption lands on — and with it what
    // else that tick does — the same beside any amount of it.
    let mut config = ClusterConfig::default();
    config.node.san.per_kib = SimDuration::ZERO;
    let mut c = DosgiCluster::new_with_telemetry(NODES, config, 7, telemetry);
    c.run_for(SimDuration::from_millis(500));
    let names: Vec<String> = (0..COUNTERS).map(|i| format!("ctr-{i:02}")).collect();
    for (i, name) in names.iter().enumerate() {
        c.deploy(workloads::counter_instance(name, name), i % NODES)
            .expect("deploy on a healthy cluster");
        if i < ROUNDS {
            let ns = format!("instance/{name}/data/{}", workloads::COUNTER_ON_STOP);
            for b in 0..blobs {
                c.store()
                    .put(
                        &ns,
                        &format!("blob-{b:04}"),
                        Value::Bytes(vec![b as u8; 1024]),
                    )
                    .expect("no faults armed");
            }
        }
    }
    c.run_for(SimDuration::from_secs(2));
    assert!(names.iter().all(|name| c.probe(name)));
    c.take_events();
    (0..ROUNDS)
        .map(|i| {
            let (name, to) = (names[i].as_str(), (i + 1) % NODES);
            let (allocations, ()) = allocations_in(|| {
                let reply = c.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null);
                assert_eq!(reply, Ok(Value::Int(1)));
                c.migrate(name, to).expect("both nodes are up");
                for _ in 0..200 {
                    if c.home_of(name) == Some(to) && c.probe(name) {
                        break;
                    }
                    c.step();
                }
                drop(c.take_events());
            });
            assert!(c.home_of(name) == Some(to) && c.probe(name));
            allocations
        })
        .collect()
}

/// A framework at `NS` holding the `migrate` workload's one-bundle
/// instance, installed from `repository` and shut down: its snapshot says
/// `RESOLVED`, persistently started.
fn shut_down_counter(store: &SharedStore, repository: &BundleRepository) {
    let mut fw = Framework::new(NS);
    fw.attach_store(store.clone(), NS).expect("no faults armed");
    let manifest = repository
        .manifest(workloads::COUNTER_ON_STOP)
        .expect("catalogued");
    let id = fw
        .install(Arc::clone(manifest), None)
        .expect("a fresh framework");
    fw.start(id).expect("no activator to refuse");
    fw.shutdown();
}

const NS: &str = "instance/ctr";

/// The two ends of a hand-off, each one snapshot write: a restore of the
/// `migrate` workload's one-bundle instance through the repository, whose
/// closing write takes the bundle back to `ACTIVE`, and the restored
/// framework's `shutdown`, whose write takes it to `RESOLVED`. The restore
/// reads the namespace once and copies only the bundle's row, which the
/// bundle keeps; it shares the repository's manifest, which the row's
/// equals, instead of parsing one. Neither end builds a row: a persist
/// rewrites the lifecycle fields in place and the store overwrites its copy
/// in place; a write of one row builds no batch for it and no key. (A
/// restore allocated 44 times, and a shutdown 3, while a restore copied
/// every row and its key to read them and parsed every manifest, and a
/// dirty row was marked by its key string; 60 and 19 while each write
/// built its row and a batch.)
#[test]
fn the_ends_of_a_handoff_build_no_row() {
    let store = SharedStore::new();
    let repository = workloads::standard_repository();
    shut_down_counter(&store, &repository);
    let (factory, metrics) = (ActivatorFactory::new(), FrameworkMetrics::default());
    let (restore_allocations, fw) = allocations_in(|| {
        let config = FrameworkConfig::new(NS);
        let phases = Phases::disabled();
        Framework::restore_counted(
            config,
            store.clone(),
            NS,
            &factory,
            &repository,
            metrics,
            &phases,
        )
    });
    let mut fw = fw.expect("persisted state restores");
    let (shutdown_allocations, ()) = allocations_in(|| fw.shutdown());
    assert_eq!((restore_allocations, shutdown_allocations), (20, 1));
}

/// An adopted instance's bundle holds the repository's manifest itself,
/// shared, not a copy parsed from its row.
#[test]
fn a_restored_bundle_shares_the_repository_manifest() {
    let store = SharedStore::new();
    let repository = workloads::standard_repository();
    shut_down_counter(&store, &repository);
    let factory = ActivatorFactory::new();
    let (metrics, phases) = (FrameworkMetrics::default(), Phases::disabled());
    let config = FrameworkConfig::new(NS);
    let fw = Framework::restore_counted(config, store, NS, &factory, &repository, metrics, &phases)
        .expect("persisted state restores");
    let bundle = fw.bundles().next().expect("one bundle");
    let held = repository
        .manifest(workloads::COUNTER_ON_STOP)
        .expect("catalogued");
    assert!(Arc::ptr_eq(&bundle.manifest, held));
    assert!(bundle.state.is_active());
}

/// A bundle upgraded to a revision the repository does not hold restores
/// by parsing its row: its manifest is the upgrade's, held by no one else,
/// and the restore equals what a restore that knows no manifest makes of
/// the same rows.
#[test]
fn an_upgraded_bundle_restores_by_parsing() {
    let store = SharedStore::new();
    let repository = workloads::standard_repository();
    let mut fw = Framework::new(NS);
    fw.attach_store(store.clone(), NS).expect("no faults armed");
    let held = repository
        .manifest(workloads::COUNTER_ON_STOP)
        .expect("catalogued");
    let id = fw
        .install(Arc::clone(held), None)
        .expect("a fresh framework");
    fw.start(id).expect("no activator to refuse");
    let upgrade = workloads::counter_manifest_at(workloads::COUNTER_ON_STOP, Version::new(1, 1, 0));
    fw.upgrade_bundle(id, upgrade.clone(), None)
        .expect("same major version");
    fw.shutdown();
    // The same rows on a second SAN, for a restore that knows no manifest.
    let rows = store.read_namespace(NS).expect("no faults armed");
    let twin = SharedStore::new();
    twin.put_many(NS, &rows).expect("no faults armed");
    let factory = ActivatorFactory::new();
    let restore = |store: &SharedStore, known: &dyn KnownManifests| {
        let (metrics, phases) = (FrameworkMetrics::default(), Phases::disabled());
        let config = FrameworkConfig::new(NS);
        Framework::restore_counted(config, store.clone(), NS, &factory, known, metrics, &phases)
            .expect("persisted state restores")
    };
    let shape = |fw: &Framework| -> Vec<_> {
        fw.bundles()
            .map(|b| {
                (
                    b.id,
                    (*b.manifest).clone(),
                    b.state,
                    b.autostart,
                    b.state_version,
                )
            })
            .collect()
    };
    let (shared, parsed) = (restore(&store, &repository), restore(&twin, &()));
    let bundle = shared.bundles().next().expect("one bundle");
    assert!(!Arc::ptr_eq(&bundle.manifest, held));
    assert_eq!(*bundle.manifest, upgrade);
    assert_eq!(shape(&shared), shape(&parsed));
    assert_eq!(store.read_namespace(NS), twin.read_namespace(NS));
}

fn migrate_rounds_are_bounded_and_blind_to_the_area(telemetry: fn() -> Telemetry) {
    let small = migrate_round_allocations(telemetry(), 4);
    // Measured: 765 over the ten rounds with telemetry off, 867 with it
    // on, 69 to 142 a round (1 145 and 1 247, 107 to 180 a round, while an
    // adoption copied every row and its key to read them, parsed its
    // manifest and registered its service with five copies of its
    // metadata; 1 465 and 1 567 while each end of a hand-off
    // built the bundle's row, and a batch, for its write; 1 479 and 1 581
    // while a policy
    // pass copied every metric onto its blackboard; 2 397 and 2 499, 217 to
    // 335 a round, while a map was a tree with a `String` per key).
    let total: u64 = small.iter().sum();
    assert!(total <= 867, "ten migrate rounds allocated {small:?}");
    assert_eq!(small, migrate_round_allocations(telemetry(), 1024));
}

#[test]
fn migrate_round_allocations_with_telemetry_on() {
    migrate_rounds_are_bounded_and_blind_to_the_area(Telemetry::new);
}

#[test]
fn migrate_round_allocations_with_telemetry_off() {
    migrate_rounds_are_bounded_and_blind_to_the_area(Telemetry::disabled);
}

/// A policy pass over subjects the blackboard already knows, in which no
/// rule fires, borrows every name: the subject list is its one allocation.
#[test]
fn a_quiet_policy_pass_allocates_its_subject_list() {
    let mut autonomic = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_millis(500))
        .expect("the default policy compiles");
    let names: Vec<String> = (0..8).map(|i| format!("web-{i:02}")).collect();
    let mut monitor = MonitoringModule::new();
    for second in 0..2 {
        for name in &names {
            let usage = UsageSnapshot {
                calls: 10 * second,
                ..UsageSnapshot::default()
            };
            monitor.record(name, SimTime::from_secs(second), usage);
        }
    }
    let quotas: BTreeMap<&str, ResourceQuota> = names
        .iter()
        .map(|name| (name.as_str(), ResourceQuota::standard()))
        .collect();
    let capacity = NodeCapacity::standard();
    let mut pass = |second| {
        let now = SimTime::from_secs(second);
        allocations_in(|| autonomic.evaluate(now, &monitor, &quotas, &capacity, NODES, 0))
    };
    assert!(pass(2).1.is_empty());
    let (allocations, decisions) = pass(3);
    assert!(decisions.is_empty() && autonomic.last_errors().is_empty());
    assert!(
        allocations <= 1,
        "a quiet pass allocated {allocations} times"
    );
}
