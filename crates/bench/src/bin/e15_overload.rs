//! **E15 — overload survival: admission control, backpressure, shedding.**
//!
//! ROADMAP item 4 / §3.3–§4 of the paper: dependability claims are only as
//! honest as the load behind them. Three measurements, all deterministic
//! on the simulated clock:
//!
//! 1. **The goodput/latency knee** — an open-loop class-mixed Poisson
//!    workload sweeps offered load from 0.5× to 4× of a backend's
//!    capacity, with and without admission control. Goodput counts only
//!    completions inside their class SLO. With bounded queues + priority
//!    shedding, goodput must hold within 10% of capacity at every
//!    overload point; the unbounded (no-admission) run queues without
//!    limit, latency diverges, and goodput collapses.
//! 2. **Policy-driven reaction** — the `POLLED_OVERLOAD_POLICY` rules
//!    (scale-out on sustained p95 breach, shed-class on queue pressure)
//!    drive the admission layer through a flash crowd: the director adds
//!    a standby replica and sheds the background class at the knee, then
//!    lifts the shed once pressure clears. (E16 races this naive polled
//!    trigger against the burn-rate-alert-driven `OVERLOAD_POLICY`.)
//! 3. **Flash-crowd chaos** — a hand-built nemesis schedule kills a node
//!    at the flash-crowd peak and restarts it later; the at-most-one-
//!    live-copy, durability-floor, and convergence invariants must hold,
//!    and the telemetry-on/off fingerprints must be byte-equal
//!    (instrumentation passivity under overload).
//!
//! Emits `results/telemetry_e15.json` (validated by `telemetry_check`:
//! the shed/queued/deadline-missed counters must be present and live).

use dosgi_bench::{print_table, ratio, write_telemetry_snapshot};
use dosgi_core::autonomic::POLLED_OVERLOAD_POLICY;
use dosgi_core::chaos::{run_nemesis_with_telemetry, ChaosOptions};
use dosgi_core::loadgen::{Burst, ClassMix, RateSchedule, ScheduledLoadGenerator};
use dosgi_ipvs::{
    replicated_service, AdmissionConfig, IpvsDirector, RealServer, RequestClass, RouteError,
    Scheduler,
};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SimTime, SocketAddr};
use dosgi_policy::{Blackboard, Named, PolicyAction, PolicyEngine};
use dosgi_telemetry::Telemetry;
use dosgi_testkit::nemesis::{NemesisOp, NemesisPlan, NemesisStep};

const VIP: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 150), Port(80));
/// One backend's deterministic service capacity (requests/second).
const CAPACITY: u64 = 2_000;
/// Bounded queue: 64 requests × 500µs service = 32ms worst-case wait,
/// inside every class SLO — whatever is admitted can still finish on time.
const QUEUE_CAPACITY: usize = 64;
const SEED: u64 = 15;
const TICK_US: u64 = 5_000;

struct SweepOutcome {
    offered: u64,
    admitted: u64,
    shed: u64,
    displaced: u64,
    good: u64,
    p95_standard_us: u64,
    deadline_missed: u64,
}

/// Drives `secs` of open-loop load at `rate` against one backend, with a
/// bounded (admission) or effectively unbounded (no-admission) queue.
fn run_sweep_point(rate: f64, secs: u64, admission: bool, telemetry: &Telemetry) -> SweepOutcome {
    let queue_capacity = if admission {
        QUEUE_CAPACITY
    } else {
        usize::MAX // accept everything: the melt-down baseline
    };
    let mut d = IpvsDirector::new();
    d.set_telemetry(telemetry.clone());
    d.add_service(
        replicated_service(VIP, Scheduler::RoundRobin, &[NodeId(0)]).with_admission(
            AdmissionConfig {
                queue_capacity,
                service_us_per_request: 1_000_000 / CAPACITY,
            },
        ),
    );
    let mut gen = ScheduledLoadGenerator::new(RateSchedule::constant(rate), SEED, SimTime::ZERO);
    let mut mix = ClassMix::standard_web(SEED);
    let mut client = 0u64;
    let mut offered = 0u64;
    let mut good = 0u64;
    let mut standard_latencies: Vec<u64> = Vec::new();
    let horizon_us = secs * 1_000_000;
    let mut now_us = 0u64;
    while now_us < horizon_us {
        now_us += TICK_US;
        let arrivals = gen.arrivals_until(SimTime::from_micros(now_us));
        for _ in 0..arrivals {
            offered += 1;
            client += 1;
            let class = mix.sample();
            let _ = d.admit(client, VIP, class, now_us);
        }
        for c in d.drain(VIP, now_us) {
            if !c.missed_deadline() {
                good += 1;
            }
            if c.class == RequestClass::Standard {
                standard_latencies.push(c.latency_us());
            }
        }
    }
    standard_latencies.sort_unstable();
    let p95 = if standard_latencies.is_empty() {
        0
    } else {
        standard_latencies[(standard_latencies.len() - 1) * 95 / 100]
    };
    let s = d.stats();
    SweepOutcome {
        offered,
        admitted: s.queued,
        shed: s.shed,
        displaced: s.displaced,
        good,
        p95_standard_us: p95,
        deadline_missed: s.deadline_missed,
    }
}

fn knee_sweep(telemetry: &Telemetry) {
    const SECS: u64 = 20;
    let mut rows = Vec::new();
    let mut hold = true;
    for &mult in &[0.5f64, 1.0, 1.5, 2.0, 3.0, 4.0] {
        let rate = mult * CAPACITY as f64;
        let with = run_sweep_point(rate, SECS, true, telemetry);
        let without = run_sweep_point(rate, SECS, false, telemetry);
        let good_rate = with.good / SECS;
        let good_rate_off = without.good / SECS;
        if mult >= 2.0 {
            // The acceptance gate: admission holds ≥90% of capacity while
            // the unbounded run collapses below that line.
            hold &= good_rate as f64 >= 0.9 * CAPACITY as f64;
            hold &= (good_rate_off as f64) < 0.9 * CAPACITY as f64;
        }
        rows.push(vec![
            format!("{mult:.1}x"),
            with.offered.to_string(),
            format!("{good_rate}/s"),
            format!(
                "{:.0}%",
                100.0 * with.shed as f64 / with.offered.max(1) as f64
            ),
            format!("{:.1}ms", with.p95_standard_us as f64 / 1000.0),
            format!("{good_rate_off}/s"),
            format!("{:.0}ms", without.p95_standard_us as f64 / 1000.0),
            without.deadline_missed.to_string(),
            ratio(good_rate as f64, good_rate_off.max(1) as f64),
        ]);
        // A displaced victim is counted both queued (on admit) and shed
        // (on eviction), so the exact conservation law is:
        assert_eq!(
            with.admitted + with.shed - with.displaced,
            with.offered,
            "every request is either admitted or shed exactly once"
        );
    }
    print_table(
        &format!(
            "E15a: goodput/latency knee, 1 backend @ {CAPACITY}/s, queue {QUEUE_CAPACITY}, {SECS}s per point"
        ),
        &[
            "offered",
            "requests",
            "goodput (adm)",
            "shed (adm)",
            "p95 std (adm)",
            "goodput (none)",
            "p95 std (none)",
            "SLO misses (none)",
            "adm vs none",
        ],
        &rows,
    );
    assert!(
        hold,
        "knee criterion failed: admission must hold >=90% of capacity at >=2x \
         while no-admission collapses below it"
    );
}

/// The policy loop reacting to the knee: scale-out on sustained p95
/// breach, shed-class on queue pressure, un-shed once clear.
fn policy_reaction(telemetry: &Telemetry) {
    const SECS: u64 = 30;
    let schedule = RateSchedule::constant(CAPACITY as f64).with_burst(Burst {
        start: SimTime::from_secs(8),
        duration: SimDuration::from_secs(10),
        multiplier: 3.0,
    });
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
    let mut engine =
        PolicyEngine::compile(POLLED_OVERLOAD_POLICY).expect("overload policy compiles");
    let mut bb = Blackboard::new();
    let mut gen = ScheduledLoadGenerator::new(schedule, SEED + 1, SimTime::ZERO);
    let mut mix = ClassMix::standard_web(SEED + 1);
    let mut client = 0u64;
    // Rolling 1s window of *attempted* standard-class requests for the
    // client-perceived p95 signal: completions contribute their measured
    // latency, shed requests count as SLO-busting (a rejected client does
    // not experience a fast request — without this, a healthily bounded
    // queue can never breach p95 and scale-out would never fire).
    const SHED_PENALTY_US: u64 = 10_000_000;
    let mut window: Vec<(u64, u64)> = Vec::new();
    let mut replicas = 1usize;
    let mut timeline: Vec<(u64, String)> = Vec::new();
    let mut good_per_sec = vec![0u64; SECS as usize];
    let mut next_policy_us = 250_000u64;
    let horizon_us = SECS * 1_000_000;
    let mut now_us = 0u64;
    while now_us < horizon_us {
        now_us += TICK_US;
        for _ in 0..gen.arrivals_until(SimTime::from_micros(now_us)) {
            client += 1;
            let class = mix.sample();
            if let Err(RouteError::Shed(_, RequestClass::Standard)) =
                d.admit(client, VIP, class, now_us)
            {
                window.push((now_us, SHED_PENALTY_US));
            }
        }
        for c in d.drain(VIP, now_us) {
            if !c.missed_deadline() {
                good_per_sec[((c.completed_us - 1) / 1_000_000).min(SECS - 1) as usize] += 1;
            }
            if c.class == RequestClass::Standard {
                window.push((c.completed_us, c.latency_us()));
            }
        }
        if now_us >= next_policy_us {
            next_policy_us += 250_000;
            window.retain(|(at, _)| *at + 1_000_000 > now_us);
            let mut lat: Vec<u64> = window.iter().map(|(_, l)| *l).collect();
            lat.sort_unstable();
            let p95 = if lat.is_empty() {
                0
            } else {
                lat[(lat.len() - 1) * 95 / 100]
            };
            let depth: usize = d.queue_depths(VIP).iter().map(|(_, q)| q).sum();
            bb.set_global_metric("p95_latency_us", p95 as f64);
            bb.set_global_metric("slo_us", RequestClass::Standard.slo_us() as f64);
            bb.set_global_metric("queue_depth", depth as f64);
            bb.set_global_metric("queue_capacity", (QUEUE_CAPACITY * replicas) as f64);
            for decision in engine.evaluate(&bb, &[] as &[Named]) {
                match &decision.action {
                    PolicyAction::ScaleOut if replicas < 2 => {
                        replicas += 1;
                        let vs = d.service_mut(VIP).expect("vip registered");
                        vs.add_server(RealServer::new(NodeId(1)));
                        timeline.push((now_us, "scale_out: standby n1 joins".into()));
                    }
                    PolicyAction::ShedClass { class } | PolicyAction::StopShed { class } => {
                        let shed = matches!(decision.action, PolicyAction::ShedClass { .. });
                        let Some(c) = RequestClass::from_name(class) else {
                            continue;
                        };
                        if d.is_shedding(VIP, c) != shed {
                            d.set_shed_class(VIP, c, shed);
                            let why = if shed { "on" } else { "— pressure cleared" };
                            timeline.push((now_us, format!("{} {why}", decision.action)));
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    let rows: Vec<Vec<String>> = timeline
        .iter()
        .map(|(at, what)| vec![format!("{:.2}s", *at as f64 / 1e6), what.clone()])
        .collect();
    print_table(
        "E15b: policy reaction timeline (burst 3x from 8s to 18s)",
        &["at", "event"],
        &rows,
    );
    let pre: u64 = good_per_sec[2..7].iter().sum::<u64>() / 5;
    let burst: u64 = good_per_sec[10..17].iter().sum::<u64>() / 7;
    println!(
        "goodput pre-burst {pre}/s, during burst (after reaction) {burst}/s \
         ({replicas} replicas serving)"
    );
    assert!(
        timeline.iter().any(|(_, w)| w.starts_with("scale_out")),
        "sustained p95 breach must trigger scale-out"
    );
    assert!(
        timeline.iter().any(|(_, w)| w.starts_with("shed_class")),
        "queue pressure must trigger class shedding"
    );
    assert!(
        timeline.iter().any(|(_, w)| w.starts_with("stop_shed")),
        "shedding must lift once pressure clears"
    );
    assert!(
        burst as f64 >= 1.5 * CAPACITY as f64,
        "with the standby serving, burst goodput must beat one node: {burst}/s"
    );
}

/// Flash-crowd chaos: the client load doubles in tempo and a node dies at
/// the crowd's peak; the dependability invariants and instrumentation
/// passivity must survive.
fn flash_crowd_chaos() {
    let plan = NemesisPlan {
        seed: SEED,
        nodes: 5,
        horizon_us: 60_000_000,
        steps: vec![
            // The kill lands mid-crowd (the schedule peak), the restart
            // leaves a quiet tail for convergence checking.
            NemesisStep {
                at_us: 20_000_000,
                op: NemesisOp::CrashNode { node: 2 },
            },
            NemesisStep {
                at_us: 38_000_000,
                op: NemesisOp::RestartNode { node: 2 },
            },
        ],
    };
    // A flash crowd in the harness's terms: clients hammer every instance
    // five times faster than the default sweep.
    let opts = ChaosOptions {
        client_period: SimDuration::from_millis(20),
        ..ChaosOptions::default()
    };
    let on = run_nemesis_with_telemetry(&plan, &opts, Telemetry::new());
    let off = run_nemesis_with_telemetry(&plan, &opts, Telemetry::disabled());
    print_table(
        "E15c: flash-crowd chaos (node 2 killed at peak, restarted at 38s)",
        &["metric", "value"],
        &[
            vec!["steps applied".to_string(), on.steps_applied.to_string()],
            vec!["acked increments".to_string(), on.acked.to_string()],
            vec!["violations".to_string(), on.violations.len().to_string()],
            vec![
                "fingerprint".to_string(),
                format!("{:016x}", on.fingerprint),
            ],
            vec![
                "telemetry on/off equal".to_string(),
                (on.fingerprint == off.fingerprint).to_string(),
            ],
        ],
    );
    for v in &on.violations {
        println!("  violation: {v}");
    }
    assert!(
        on.ok(),
        "invariants must hold through the flash-crowd node kill"
    );
    assert_eq!(
        on.fingerprint, off.fingerprint,
        "telemetry must stay passive under overload (byte-equal fingerprints)"
    );
}

fn main() {
    let telemetry = Telemetry::new();
    knee_sweep(&telemetry);
    policy_reaction(&telemetry);
    flash_crowd_chaos();
    write_telemetry_snapshot(&telemetry, "e15", SEED);
    println!(
        "\nShape check (ROADMAP item 4): bounded queues + priority shedding hold \
         goodput at the capacity line through 4x overload while the unbounded \
         baseline collapses; the policy loop scales out and sheds at the knee; \
         the invariants survive a node kill at flash-crowd peak."
    );
}
