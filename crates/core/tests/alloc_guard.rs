//! An exact, noise-free guard on what waiting costs: a counting
//! `#[global_allocator]` asserts that a settled cluster's `step()` in which
//! nothing is sent, delivered or scraped allocates nothing — with telemetry
//! on or off, with the observability pipeline enabled — and that such steps
//! are most of a settled cluster's steps.

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
        let before = REQUESTED.with(Cell::get);
        c.step();
        let allocations = REQUESTED.with(Cell::get) - before;
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
