//! Exact, noise-free guards under a counting `#[global_allocator]`.
//!
//! What waiting costs: a settled cluster's `step()` in which nothing is
//! sent, delivered or scraped allocates nothing — with telemetry on or off,
//! with the observability pipeline enabled — and such steps are most of a
//! settled cluster's steps.
//!
//! What a request costs: a stateless `handle` allocates its reply and a
//! lookup (≤ 4), a write-through `incr` on a hot key no name, key or copy of
//! its data area (≤ 6), and the first call after an adoption the same
//! whatever the size of the area it does not read.

use dosgi_core::{workloads, ClusterConfig, DosgiCluster};
use dosgi_net::SimDuration;
use dosgi_telemetry::{ScrapeConfig, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The `failover` workload's cluster at rest: 5 nodes, 40 instances, every
/// one serving, observability on.
fn settled_cluster(telemetry: Telemetry) -> DosgiCluster {
    let mut c = DosgiCluster::new_with_telemetry(NODES, ClusterConfig::default(), 7, telemetry);
    c.enable_observability(ScrapeConfig::default(), DosgiCluster::default_slos());
    c.run_for(SimDuration::from_millis(500));
    for i in 0..INSTANCES {
        let name = format!("web-{i:02}");
        c.deploy(workloads::web_instance(&name, &name), i % NODES)
            .expect("deploy on a healthy cluster");
    }
    c.run_for(SimDuration::from_secs(3));
    assert!((0..INSTANCES).all(|i| c.probe(&format!("web-{i:02}"))));
    c.take_events();
    c
}

fn no_event_steps_allocate_nothing(telemetry: Telemetry) {
    let mut c = settled_cluster(telemetry);
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

/// Allocation requests made by this thread while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (REQUESTED.with(Cell::get) - before, out)
}

/// The request path on a settled cluster: a stateless `handle` touches no
/// data-area row and no SAN, and what it allocates is its reply; a
/// write-through `incr` on a hot key builds no name, no key and no copy of
/// the area on its way to the SAN.
fn request_path_allocations(telemetry: Telemetry) {
    use dosgi_san::Value;
    let mut c = settled_cluster(telemetry);
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
            assert!(handle.0 <= 4, "`handle` allocated {} times", handle.0);
            assert!(
                incr.0 <= 6,
                "write-through `incr` allocated {} times",
                incr.0
            );
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

/// The first call after an adoption reads the rows it asks for, not the
/// area: it allocates the same whether the instance's data namespace holds
/// one row or 257.
#[test]
fn first_call_after_adoption_does_not_scale_with_the_area() {
    use dosgi_san::Value;
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
