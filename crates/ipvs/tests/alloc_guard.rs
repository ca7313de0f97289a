//! An exact, noise-free guard on what watching costs: a counting
//! `#[global_allocator]` asserts that the request path allocates nothing
//! for telemetry — `IpvsDirector::admit` allocates nothing at all, with
//! telemetry on or off; `drain` allocates the list it returns and nothing
//! else, once and at its final size (none when nothing completes), with
//! either; handle writes, by-name writes to known names and steady-state
//! scrapes allocate zero bytes.

use dosgi_ipvs::{
    replicated_service, AdmissionConfig, Completion, IpvsDirector, RequestClass, Scheduler,
};
use dosgi_net::{IpAddr, NodeId, Port, SocketAddr};
use dosgi_telemetry::{ScrapeConfig, SeriesScraper, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so tests running side by side do not see each other.
    // `const` and `Cell<(u64, u64)>`: no lazy initialiser and no
    // destructor, so the allocator never re-enters itself through this.
    static REQUESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// `System`, counting this thread's allocation requests and their bytes.
struct Counting;

fn count(bytes: usize) {
    REQUESTED.with(|c| {
        let (allocs, total) = c.get();
        c.set((allocs + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the
// memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// `(allocations, bytes)` this thread requested while running `f`.
fn requested<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let before = REQUESTED.with(Cell::get);
    let _ = std::hint::black_box(f());
    let after = REQUESTED.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

const BACKENDS: u32 = 5;

fn vip() -> SocketAddr {
    SocketAddr::new(IpAddr::new(10, 0, 0, 100), Port(80))
}

fn director(telemetry: Telemetry) -> IpvsDirector {
    let mut d = IpvsDirector::new();
    d.set_telemetry(telemetry);
    let nodes: Vec<NodeId> = (0..BACKENDS).map(NodeId).collect();
    d.add_service(
        replicated_service(vip(), Scheduler::RoundRobin, &nodes)
            .with_admission(AdmissionConfig::per_second(8_000, 64)),
    );
    d
}

/// What one tick of [`tick`] requested, and how much its drain completed.
struct Tick {
    admit: (u64, u64),
    drain: (u64, u64),
    completed: u64,
}

/// One 5 ms tick of the benchmark's serve loop: 80 arrivals across the
/// three classes, then a drain.
fn tick(d: &mut IpvsDirector, tick: u64) -> Tick {
    let now_us = tick * 5_000;
    let admit = requested(|| {
        for i in 0..80u64 {
            let class = RequestClass::ALL[(i % 3) as usize];
            d.admit(tick * 80 + i, vip(), class, now_us)
                .expect("40 % load: nothing is shed");
        }
    });
    let mut completed = 0;
    let drain = requested(|| completed = d.drain(vip(), now_us + 5_000).len() as u64);
    Tick {
        admit,
        drain,
        completed,
    }
}

#[test]
fn admit_allocates_nothing_and_drain_the_same_with_telemetry_on_or_off() {
    let registry = Telemetry::new();
    let mut on = director(registry.clone());
    let mut off = director(Telemetry::disabled());
    // Warm-up: queues reach their working depth, every backend is met.
    for t in 0..4 {
        tick(&mut on, t);
        tick(&mut off, t);
    }
    let size = std::mem::size_of::<Completion>() as u64;
    for t in 4..24 {
        for (d, telemetry) in [(&mut on, "on"), (&mut off, "off")] {
            let Tick {
                admit,
                drain,
                completed,
            } = tick(d, t);
            assert_eq!(admit, (0, 0), "admit allocated with telemetry {telemetry}");
            assert_eq!(completed, 80, "every request of the tick completes");
            assert_eq!(
                drain,
                (1, completed * size),
                "drain allocated more than its list with telemetry {telemetry}"
            );
            // Everything has completed: the next drain finds nothing.
            let empty = requested(|| assert!(d.drain(vip(), t * 5_000 + 5_000).is_empty()));
            assert_eq!(empty, (0, 0), "an empty drain allocated");
        }
    }
    // The handles did count: 24 ticks of 80 requests, all completed.
    assert_eq!(registry.counter("ipvs.queued"), 24 * 80);
    assert_eq!(registry.counter("ipvs.completed"), 24 * 80);
    assert_eq!(registry.gauge("ipvs.queue_depth.n4"), Some(0));
}

#[test]
fn metric_writes_and_steady_state_scrapes_allocate_nothing() {
    let t = Telemetry::new();
    let counter = t.counter_handle("guard.counter");
    let gauge = t.gauge_handle(format_args!("guard.gauge.n{}", 3));
    let histogram = t.histogram_handle("guard.latency_us");
    let by_handle = requested(|| {
        for i in 0..1_000u64 {
            counter.incr();
            counter.add(i);
            gauge.set(i as i64);
            histogram.record(i * 37);
        }
    });
    assert_eq!(by_handle, (0, 0), "a handle write allocated");

    // By name: the name is looked up before it is allocated, so only the
    // first write of a name allocates.
    let by_name = requested(|| {
        for i in 0..1_000u64 {
            t.incr("guard.counter");
            t.gauge_set("guard.gauge.n3", i as i64);
            t.record("guard.latency_us", i);
        }
    });
    assert_eq!(by_name, (0, 0), "a by-name write to a known name allocated");

    // Scrapes: series are created on first sight; after that a scrape
    // allocates nothing, ring compaction (capacity 8) included.
    let mut scraper = SeriesScraper::new(ScrapeConfig {
        cadence_us: 1_000,
        capacity: 8,
    });
    for i in 0..20u64 {
        counter.incr();
        histogram.record(i);
        scraper.scrape(&t, i * 1_000); // compacts: the drop counter's first write
    }
    assert!(
        scraper.total_dropped() > 0,
        "20 points through 8-rings compact"
    );
    let steady = requested(|| {
        for i in 20..200u64 {
            counter.add(i);
            histogram.record(i);
            assert!(scraper.scrape(&t, i * 1_000));
        }
    });
    assert_eq!(steady, (0, 0), "a steady-state scrape allocated");
}
