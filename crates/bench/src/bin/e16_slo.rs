//! **E16 — SLO burn-rate alerting: lead time, alert-driven reaction,
//! bounded series memory.**
//!
//! The observability tentpole's acceptance experiment, deterministic on
//! the simulated clock:
//!
//! 1. **Alert lead-time race (E16a)** — replay the E15b flash crowd
//!    (3× burst at 8 s against one bounded-queue backend, no reaction so
//!    the overload persists) and race two detectors over the same
//!    telemetry: the [`SloEngine`]'s multi-window burn rates over the
//!    standard-class bad/total counters, against a naive threshold poll
//!    (client-perceived rolling p95 sampled every second, breach
//!    sustained three polls before paging — the anti-flap damping every
//!    real threshold alert needs). Burn rates integrate every request
//!    outcome continuously and need no damping — the multi-window pair
//!    *is* the flap resistance — so the alert must fire ≥ 2 s earlier.
//!    The quiet 8 s before the burst must page neither detector.
//! 2. **Alert-driven policy (E16b)** — the same flash crowd, reacted to:
//!    once with `POLLED_OVERLOAD_POLICY` (p95 polling, E15b's loop) and
//!    once with `OVERLOAD_POLICY` driven by `alert_firing("std-latency")`
//!    from the SLO engine. The alert path must scale out no later than
//!    the polled path and finish with equal-or-better goodput.
//! 3. **Bounded series memory (E16c)** — a 10-sim-minute cluster run
//!    with the series scraper on: every ring stays within capacity, and
//!    `telemetry.series.dropped_points` accounts for every compacted
//!    point exactly (`appended == retained + dropped`).
//!
//! Emits `results/telemetry_e16.json` (schema v3: includes the alert
//! timeline; validated by `telemetry_check`).

use dosgi_bench::{print_table, write_telemetry_snapshot};
use dosgi_core::autonomic::{OVERLOAD_POLICY, POLLED_OVERLOAD_POLICY};
use dosgi_core::loadgen::{Burst, ClassMix, RateSchedule, ScheduledLoadGenerator};
use dosgi_core::{ClusterConfig, DosgiCluster};
use dosgi_ipvs::{
    replicated_service, AdmissionConfig, IpvsDirector, RealServer, RequestClass, RouteError,
    Scheduler,
};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SimTime, SocketAddr};
use dosgi_policy::{Blackboard, PolicyAction, PolicyEngine};
use dosgi_telemetry::{ScrapeConfig, SloEngine, SloSpec, Telemetry, DROPPED_POINTS};

const VIP: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 150), Port(80));
/// One backend's deterministic service capacity (requests/second) — E15's.
const CAPACITY: u64 = 2_000;
const QUEUE_CAPACITY: usize = 64;
const SEED: u64 = 15;
const TICK_US: u64 = 5_000;
/// Both detectors' evaluation cadence (the scrape cadence).
const CADENCE_US: u64 = 250_000;
/// The naive threshold poll's cadence and anti-flap damping: page only
/// after three consecutive breaching 1 s polls. Generous to the naive
/// side — production threshold alerts poll slower and damp longer.
const NAIVE_POLL_US: u64 = 1_000_000;
const NAIVE_SUSTAIN: usize = 3;
/// 1% of standard-class requests may go bad (shed, or completed over
/// the class SLO) — the error budget behind `std-latency`.
const BUDGET_PPM: u64 = 10_000;
/// A shed standard request counts as a 10 s experience in the naive
/// detector's client-perceived latency window (E15b's penalty).
const SHED_PENALTY_US: u64 = 10_000_000;
const BURST_AT_S: u64 = 8;
const BURST_SECS: u64 = 10;
const HORIZON_SECS: u64 = 60;

fn std_latency_slo(name: &str) -> SloSpec {
    SloSpec::new(
        name,
        vec!["e16.req.std.bad".to_owned()],
        vec!["e16.req.std.total".to_owned()],
        BUDGET_PPM,
    )
}

fn flash_crowd() -> RateSchedule {
    RateSchedule::constant(CAPACITY as f64).with_burst(Burst {
        start: SimTime::from_secs(BURST_AT_S),
        duration: SimDuration::from_secs(BURST_SECS),
        multiplier: 3.0,
    })
}

fn one_backend_director(telemetry: &Telemetry) -> IpvsDirector {
    let mut d = IpvsDirector::new();
    d.set_telemetry(telemetry.clone());
    d.add_service(
        replicated_service(VIP, Scheduler::RoundRobin, &[NodeId(0)]).with_admission(
            AdmissionConfig {
                queue_capacity: QUEUE_CAPACITY,
                service_us_per_request: 1_000_000 / CAPACITY,
            },
        ),
    );
    d
}

/// E16a: detection only — no reaction, one backend, overload persists
/// through the whole burst. Returns (alert_fired_at, naive_fired_at).
fn alert_lead_race(telemetry: &Telemetry) {
    let mut d = one_backend_director(telemetry);
    let mut slo = SloEngine::new(CADENCE_US);
    slo.add(std_latency_slo("std-latency-race"));
    let mut gen = ScheduledLoadGenerator::new(flash_crowd(), SEED + 1, SimTime::ZERO);
    let mut mix = ClassMix::standard_web(SEED + 1);
    let mut client = 0u64;
    // The naive detector's rolling 1 s window of client-perceived
    // standard-class experiences (completions + shed penalties).
    let mut window: Vec<(u64, u64)> = Vec::new();
    let mut alert_at: Option<u64> = None;
    let mut naive_at: Option<u64> = None;
    let mut naive_streak = 0usize;
    let mut next_eval_us = CADENCE_US;
    let mut next_poll_us = NAIVE_POLL_US;
    let horizon_us = HORIZON_SECS * 1_000_000;
    let mut now_us = 0u64;
    while now_us < horizon_us {
        now_us += TICK_US;
        for _ in 0..gen.arrivals_until(SimTime::from_micros(now_us)) {
            client += 1;
            let class = mix.sample();
            if let Err(RouteError::Shed(_, shed_class)) = d.admit(client, VIP, class, now_us) {
                if shed_class == RequestClass::Standard {
                    // Outcome known immediately: a shed request is bad.
                    telemetry.add("e16.req.std.total", 1);
                    telemetry.add("e16.req.std.bad", 1);
                    window.push((now_us, SHED_PENALTY_US));
                }
            }
        }
        for c in d.drain(VIP, now_us) {
            if c.class == RequestClass::Standard {
                telemetry.add("e16.req.std.total", 1);
                if c.missed_deadline() {
                    telemetry.add("e16.req.std.bad", 1);
                }
                window.push((c.completed_us, c.latency_us()));
            }
        }
        if now_us >= next_eval_us {
            next_eval_us += CADENCE_US;
            for e in slo.observe(telemetry, now_us) {
                if e.firing && alert_at.is_none() {
                    alert_at = Some(e.at_us);
                }
            }
        }
        if now_us >= next_poll_us {
            next_poll_us += NAIVE_POLL_US;
            window.retain(|(at, _)| *at + 1_000_000 > now_us);
            let mut lat: Vec<u64> = window.iter().map(|(_, l)| *l).collect();
            lat.sort_unstable();
            let p95 = if lat.is_empty() {
                0
            } else {
                lat[(lat.len() - 1) * 95 / 100]
            };
            if p95 > RequestClass::Standard.slo_us() {
                naive_streak += 1;
                if naive_streak >= NAIVE_SUSTAIN && naive_at.is_none() {
                    naive_at = Some(now_us);
                }
            } else {
                naive_streak = 0;
            }
        }
    }
    let burst_us = BURST_AT_S * 1_000_000;
    let fmt = |at: Option<u64>| match at {
        Some(us) => format!(
            "{:.2}s (+{:.2}s after burst)",
            us as f64 / 1e6,
            (us - burst_us) as f64 / 1e6
        ),
        None => format!("never (horizon {HORIZON_SECS}s)"),
    };
    print_table(
        "E16a: detection race on the E15 flash crowd (3x burst at 8s, no reaction)",
        &["detector", "first page"],
        &[
            vec!["burn-rate alert (multi-window)".to_string(), fmt(alert_at)],
            vec![
                format!("naive p95 poll (1s, sustain {NAIVE_SUSTAIN})"),
                fmt(naive_at),
            ],
        ],
    );
    let alert_at = alert_at.expect("the burst must fire the burn-rate alert");
    assert!(
        alert_at >= burst_us,
        "no false page in the quiet 8s before the burst (alert at {alert_at}us)"
    );
    let naive_at = naive_at.expect("the persistent overload must breach the naive poll too");
    assert!(
        alert_at + 2_000_000 <= naive_at,
        "burn-rate alert must lead the naive threshold poll by >=2s \
         (alert {alert_at}us, naive {naive_at}us)"
    );
    println!(
        "lead time: {:.2}s (alert {:.2}s, naive poll {:.2}s)",
        (naive_at - alert_at) as f64 / 1e6,
        alert_at as f64 / 1e6,
        naive_at as f64 / 1e6
    );
    // The race also demonstrates resolution: once the burst's badness
    // ages out of the slow pair's windows the alert clears on its own.
    let resolved = telemetry
        .alerts()
        .iter()
        .any(|e| e.slo == "std-latency-race" && !e.firing);
    assert!(resolved, "the alert must resolve before the 60s horizon");
}

/// One reacted flash-crowd run for E16b: `alerts=false` replays E15b's
/// polled loop, `alerts=true` drives `OVERLOAD_POLICY` from the SLO
/// engine. Returns (total goodput, scale-out time).
fn reacted_run(telemetry: &Telemetry, alerts: bool) -> (u64, Option<u64>) {
    let mut d = one_backend_director(telemetry);
    let script = if alerts {
        OVERLOAD_POLICY
    } else {
        POLLED_OVERLOAD_POLICY
    };
    let mut engine = PolicyEngine::compile(script).expect("overload policy compiles");
    let latency = engine.streaks();
    let mut bb = Blackboard::new();
    let mut slo = SloEngine::new(CADENCE_US);
    if alerts {
        slo.add(std_latency_slo("std-latency"));
    }
    let mut gen = ScheduledLoadGenerator::new(flash_crowd(), SEED + 1, SimTime::ZERO);
    let mut mix = ClassMix::standard_web(SEED + 1);
    let mut client = 0u64;
    let mut window: Vec<(u64, u64)> = Vec::new();
    let mut replicas = 1usize;
    let mut good = 0u64;
    let mut scaled_at: Option<u64> = None;
    let mut next_policy_us = CADENCE_US;
    let horizon_us = HORIZON_SECS * 1_000_000;
    let mut now_us = 0u64;
    while now_us < horizon_us {
        now_us += TICK_US;
        for _ in 0..gen.arrivals_until(SimTime::from_micros(now_us)) {
            client += 1;
            let class = mix.sample();
            if let Err(RouteError::Shed(_, RequestClass::Standard)) =
                d.admit(client, VIP, class, now_us)
            {
                if alerts {
                    telemetry.add("e16.req.std.total", 1);
                    telemetry.add("e16.req.std.bad", 1);
                }
                window.push((now_us, SHED_PENALTY_US));
            }
        }
        for c in d.drain(VIP, now_us) {
            if !c.missed_deadline() {
                good += 1;
            }
            if c.class == RequestClass::Standard {
                if alerts {
                    telemetry.add("e16.req.std.total", 1);
                    if c.missed_deadline() {
                        telemetry.add("e16.req.std.bad", 1);
                    }
                }
                window.push((c.completed_us, c.latency_us()));
            }
        }
        if now_us >= next_policy_us {
            next_policy_us += CADENCE_US;
            window.retain(|(at, _)| *at + 1_000_000 > now_us);
            if alerts {
                slo.observe(telemetry, now_us);
                bb.set_subject_metric(
                    "std-latency",
                    "alert_firing",
                    if slo.firing("std-latency") { 1.0 } else { 0.0 },
                );
            } else {
                let mut lat: Vec<u64> = window.iter().map(|(_, l)| *l).collect();
                lat.sort_unstable();
                let p95 = if lat.is_empty() {
                    0
                } else {
                    lat[(lat.len() - 1) * 95 / 100]
                };
                bb.set_global_metric("p95_latency_us", p95 as f64);
                bb.set_global_metric("slo_us", RequestClass::Standard.slo_us() as f64);
            }
            let depth: usize = d.queue_depths(VIP).iter().map(|(_, q)| q).sum();
            bb.set_global_metric("queue_depth", depth as f64);
            bb.set_global_metric("queue_capacity", (QUEUE_CAPACITY * replicas) as f64);
            for decision in engine.evaluate(&bb, &[("std-latency", &latency)]) {
                match &decision.action {
                    PolicyAction::ScaleOut if replicas < 2 => {
                        replicas += 1;
                        scaled_at = Some(now_us);
                        let vs = d.service_mut(VIP).expect("vip registered");
                        vs.add_server(RealServer::new(NodeId(1)));
                    }
                    PolicyAction::ShedClass { class } | PolicyAction::StopShed { class } => {
                        let shed = matches!(decision.action, PolicyAction::ShedClass { .. });
                        if let Some(c) = RequestClass::from_name(class) {
                            d.set_shed_class(VIP, c, shed);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    (good, scaled_at)
}

/// E16b: the alert-driven policy must react no later than the polled
/// baseline and finish with equal-or-better goodput on the same workload.
fn alert_driven_policy(telemetry: &Telemetry) {
    let (polled_good, polled_scaled) = reacted_run(telemetry, false);
    let (alert_good, alert_scaled) = reacted_run(telemetry, true);
    let fmt = |at: Option<u64>| {
        at.map(|us| format!("{:.2}s", us as f64 / 1e6))
            .unwrap_or_else(|| "never".to_string())
    };
    print_table(
        "E16b: reacted flash crowd — alert-driven OVERLOAD_POLICY vs p95 polling",
        &["driver", "scale-out at", "goodput (60s)"],
        &[
            vec![
                "p95 poll (POLLED_OVERLOAD_POLICY)".to_string(),
                fmt(polled_scaled),
                polled_good.to_string(),
            ],
            vec![
                "burn-rate alert (OVERLOAD_POLICY)".to_string(),
                fmt(alert_scaled),
                alert_good.to_string(),
            ],
        ],
    );
    let polled_scaled = polled_scaled.expect("polled baseline must scale out");
    let alert_scaled = alert_scaled.expect("alert-driven run must scale out");
    assert!(
        alert_scaled <= polled_scaled,
        "the alert must not react later than the poll \
         (alert {alert_scaled}us, polled {polled_scaled}us)"
    );
    assert!(
        alert_good >= polled_good,
        "alert-driven goodput must be equal or better: {alert_good} vs {polled_good}"
    );
}

/// E16c: ten sim-minutes of a live cluster with the scraper on — series
/// memory stays bounded and every compacted point is accounted for.
fn bounded_series_memory(telemetry: &Telemetry) {
    let dropped_before = telemetry.counter(DROPPED_POINTS);
    let mut c =
        DosgiCluster::new_with_telemetry(5, ClusterConfig::default(), SEED, telemetry.clone());
    c.enable_observability(ScrapeConfig::default(), DosgiCluster::default_slos());
    for i in 0..3 {
        c.deploy(
            dosgi_core::workloads::web_instance("acme", &format!("web{i}")),
            i,
        )
        .unwrap();
    }
    // Ten minutes of protocol traffic with a migration every minute so
    // the counters keep moving.
    for minute in 0..10 {
        c.migrate("web0", ((minute + 1) % 5) as usize).unwrap();
        c.run_for(SimDuration::from_secs(60));
    }
    let scraper = c.scraper().expect("observability on");
    let cadence = scraper.cadence_us();
    assert!(
        scraper.scrapes() >= 600_000_000 / cadence - 5,
        "ten minutes at {cadence}us cadence must keep scraping: {}",
        scraper.scrapes()
    );
    let mut retained = 0usize;
    for name in scraper.series_names() {
        let s = scraper.series(&name).unwrap();
        assert!(s.len() <= s.capacity(), "{name} exceeded its ring");
        assert_eq!(
            s.appended(),
            s.len() as u64 + s.dropped(),
            "{name}: inexact drop accounting"
        );
        retained += s.len();
    }
    let dropped = scraper.total_dropped();
    assert!(dropped > 0, "2400 scrapes through 240-rings must compact");
    assert_eq!(
        telemetry.counter(DROPPED_POINTS) - dropped_before,
        dropped,
        "the registry counter must mirror the scraper's drops exactly"
    );
    // 16 bytes/point (u64 timestamp + i64 value) — the bound the rings buy.
    print_table(
        "E16c: series memory after 10 sim-minutes, 5 nodes, scraper on",
        &["metric", "value"],
        &[
            vec!["scrapes".to_string(), scraper.scrapes().to_string()],
            vec!["series".to_string(), scraper.series_count().to_string()],
            vec!["points retained".to_string(), retained.to_string()],
            vec![
                "points appended".to_string(),
                scraper.total_appended().to_string(),
            ],
            vec!["points compacted away".to_string(), dropped.to_string()],
            vec![
                "retained bytes (16B/point)".to_string(),
                (retained * 16).to_string(),
            ],
        ],
    );
}

fn main() {
    let telemetry = Telemetry::new();
    alert_lead_race(&telemetry);
    alert_driven_policy(&telemetry);
    bounded_series_memory(&telemetry);
    write_telemetry_snapshot(&telemetry, "e16", SEED);
    println!(
        "\nShape check (observability tentpole): multi-window burn rates page \
         >=2s before a damped threshold poll on the same flash crowd, drive \
         the overload policy at least as well as p95 polling, and the series \
         layer holds a 10-minute run in bounded memory with exact drop \
         accounting."
    );
}
