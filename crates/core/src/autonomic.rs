//! The Autonomic Module: policies over the node's monitoring data.
//!
//! §3.3: *"By using the Monitoring Module to build the view of the system
//! and the Migration Module to know about other nodes … the Autonomic
//! Module is able to enforce the business policies."*
//!
//! Each policy period the module evaluates its script against these
//! metrics, read in place from the monitor's latest windows, the local
//! instances' quotas and the node's view — a per-instance metric only for
//! an instance in the quotas:
//!
//! | metric | scope | meaning |
//! |---|---|---|
//! | `cpu_share($i)` | instance | CPU cores consumed (0.5 = half a core) |
//! | `memory($i)` | instance | resident bytes |
//! | `disk($i)` | instance | persistent bytes written |
//! | `call_rate($i)` | instance | service calls per second |
//! | `quota_cpu($i)` | instance | SLA CPU entitlement (cores) |
//! | `quota_mem($i)` | instance | SLA memory entitlement (bytes) |
//! | `quota_disk($i)` | instance | SLA disk entitlement (bytes) |
//! | `node_cpu()` | node | total CPU utilization (0..1) |
//! | `node_mem()` | node | total memory utilization (0..1) |
//! | `instance_count()` | node | local running instances |
//! | `node_count()` | node | live nodes in the current view |
//! | `node_rank()` | node | this node's position in the view (0 = lowest id) |
//!
//! Any other metric, and a built-in one the above does not answer (an
//! instance's usage before its first window), is an evaluation error,
//! reported in [`AutonomicModule::last_errors`]. Policies over what a driver
//! writes ([`OVERLOAD_POLICY`]'s `alert_firing`, say) run on a
//! [`PolicyEngine`] over a [`dosgi_policy::Blackboard`], as E15 and E16 do.
//! The script yields [`PolicyDecision`]s the node executes (migrate / stop /
//! throttle / restart / hibernate / alert).

use dosgi_monitor::{MonitoringModule, NodeCapacity};
use dosgi_net::{SimDuration, SimTime};
use dosgi_policy::{MetricSource, ParseError, PolicyDecision, PolicyEngine};
use dosgi_vosgi::ResourceQuota;
use std::collections::BTreeMap;

/// The default SLA-enforcement policy used by examples and experiment E10:
/// sustained CPU overuse migrates the offender; memory overuse stops it;
/// an idle under-utilized node consolidates (hibernates).
pub const DEFAULT_POLICY: &str = r#"
rule cpu_hog {
    when cpu_share($i) > quota_cpu($i) * 1.2 for 3
    then migrate($i); alert("cpu quota exceeded")
}
rule mem_hog {
    when memory($i) > quota_mem($i)
    then stop($i); alert("memory quota exceeded")
}
"#;

/// The consolidation add-on policy (paper §4: concentrate idle customers,
/// hibernate freed nodes to save power). The `node_rank()` guard makes
/// consolidation *rolling*: only the highest-ranked member of the current
/// view packs up and hibernates; once it leaves the view, the next one
/// fires — so the cluster drains one node at a time instead of
/// stampeding.
pub const CONSOLIDATION_POLICY: &str = r#"
rule consolidate {
    when node_cpu() < 0.05 and instance_count() > 0 and node_count() > 1
         and node_rank() == node_count() - 1 for 5
    then migrate_all(); hibernate()
}
rule empty_node {
    when node_cpu() < 0.05 and instance_count() == 0 and node_count() > 1
         and node_rank() == node_count() - 1 for 5
    then hibernate()
}
"#;

/// The overload-reaction policy (E15/E16), driven by the SLO burn-rate
/// alerts of [`dosgi_telemetry::SloEngine`] instead of raw p95 polling:
/// while the `std-latency` alert fires, the service scales out (adds a
/// replica behind the VIP); sustained queue pressure sheds the
/// background class; once queues drain, shedding is lifted — un-shed is
/// deliberately queue-governed, not alert-governed, because burn-rate
/// alerts reset only after the bad window ages out, long after the
/// overload itself has passed (`stop_shed` is forwarded as a
/// [`dosgi_policy::PolicyAction::Custom`] the driver interprets). The
/// driver feeds the blackboard `alert_firing` per SLO subject
/// (`set_subject_metric(<slo>, "alert_firing", 0/1)` from
/// `SloEngine::firing`) plus the `queue_depth` / `queue_capacity`
/// globals from the admission layer. No debounce on the scale-out rule:
/// the burn-rate pairs already require two breaching windows, so the
/// alert itself is the debounce.
pub const OVERLOAD_POLICY: &str = r#"
rule slo_burn {
    when alert_firing("std-latency") > 0
    then scale_out(); alert("std-latency error budget burning")
}
rule queue_pressure {
    when queue_depth() > queue_capacity() * 0.8 for 2
    then shed_class("background")
}
rule pressure_cleared {
    when queue_depth() < queue_capacity() * 0.2 for 4
    then stop_shed("background")
}
"#;

/// The pre-E16 overload policy: polls the raw p95 gauge against the SLO
/// every tick and debounces by rule repetition. Kept as the naive
/// baseline the `e16_slo` experiment races burn-rate alerting against —
/// the `for 3` debounce plus the rolling-window p95 lag is exactly the
/// reaction time the alert path beats. Blackboard globals:
/// `p95_latency_us`, `slo_us`, `queue_depth`, `queue_capacity`.
pub const POLLED_OVERLOAD_POLICY: &str = r#"
rule p95_breach {
    when p95_latency_us() > slo_us() for 3
    then scale_out(); alert("sustained p95 SLO breach")
}
rule queue_pressure {
    when queue_depth() > queue_capacity() * 0.8 for 2
    then shed_class("background")
}
rule pressure_cleared {
    when queue_depth() < queue_capacity() * 0.2
         and p95_latency_us() < slo_us() for 4
    then stop_shed("background")
}
"#;

/// The per-node autonomic controller.
#[derive(Debug, Clone)]
pub struct AutonomicModule {
    engine: PolicyEngine,
    interval: SimDuration,
    last: Option<SimTime>,
}

impl AutonomicModule {
    /// Compiles `script` into a module evaluated every `interval`.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed scripts.
    pub fn new(script: &str, interval: SimDuration) -> Result<Self, ParseError> {
        Ok(AutonomicModule {
            engine: PolicyEngine::compile(script)?,
            interval,
            last: None,
        })
    }

    /// True when an evaluation is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due()
    }

    /// The instant from which [`due`](Self::due) holds.
    pub fn next_due(&self) -> SimTime {
        self.last.map_or(SimTime::ZERO, |at| at + self.interval)
    }

    /// Evaluates the policy against the module table's metrics, read in
    /// place. `quotas` maps instance name → SLA quota; `node_count` is the
    /// current view size and `node_rank` this node's position in it (0 =
    /// lowest id; consolidation policies key off the highest rank). Nothing
    /// is copied: a pass in which no rule fires allocates the subject list
    /// and nothing else.
    pub fn evaluate(
        &mut self,
        now: SimTime,
        monitor: &MonitoringModule,
        quotas: &BTreeMap<&str, ResourceQuota>,
        capacity: &NodeCapacity,
        node_count: usize,
        node_rank: usize,
    ) -> Vec<PolicyDecision> {
        self.last = Some(now);
        let subjects: Vec<&str> = quotas.keys().copied().collect();
        let node_cpu = capacity.cpu_utilization(monitor.total_cpu_share());
        let node_mem = capacity.memory_utilization(monitor.total_memory());
        let source = InPlace {
            monitor,
            quotas,
            globals: [
                ("node_cpu", node_cpu),
                ("node_mem", node_mem),
                ("instance_count", subjects.len() as f64),
                ("node_count", node_count as f64),
                ("node_rank", node_rank as f64),
            ],
        };
        self.engine.evaluate(&source, &subjects)
    }

    /// Evaluation errors from the last pass.
    pub fn last_errors(&self) -> &[String] {
        self.engine.last_errors()
    }
}

/// The module table's metrics where they are kept.
struct InPlace<'a> {
    monitor: &'a MonitoringModule,
    quotas: &'a BTreeMap<&'a str, ResourceQuota>,
    globals: [(&'static str, f64); 5],
}

impl MetricSource for InPlace<'_> {
    fn metric(&self, name: &str, subject: Option<&str>) -> Option<f64> {
        match subject {
            None => self.globals.iter().find(|g| g.0 == name).map(|g| g.1),
            Some(s) => self.quotas.get(s).and_then(|q| {
                let window = || self.monitor.latest(s);
                match name {
                    "cpu_share" => window().map(|w| w.cpu_share),
                    "memory" => window().map(|w| w.memory as f64),
                    "disk" => window().map(|w| w.disk as f64),
                    "call_rate" => window().map(|w| w.call_rate),
                    "quota_cpu" => Some(q.cpu_per_sec.as_secs_f64()),
                    "quota_mem" => Some(q.memory_bytes as f64),
                    "quota_disk" => Some(q.disk_bytes as f64),
                    _ => None,
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_osgi::UsageSnapshot;
    use dosgi_policy::{Blackboard, PolicyAction};

    fn monitor_with(name: &str, cpu_ms_per_s: u64, memory: u64) -> MonitoringModule {
        let mut m = MonitoringModule::new();
        m.record(name, SimTime::from_secs(0), UsageSnapshot::default());
        m.record(
            name,
            SimTime::from_secs(1),
            UsageSnapshot {
                cpu: SimDuration::from_millis(cpu_ms_per_s),
                memory,
                disk: 0,
                calls: 10,
            },
        );
        m
    }

    fn quotas(name: &str) -> BTreeMap<&str, ResourceQuota> {
        BTreeMap::from([(name, ResourceQuota::small())]) // 100ms/s, 16MiB
    }

    #[test]
    fn default_policy_migrates_sustained_cpu_hogs() {
        let mut a = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_secs(1)).unwrap();
        // 400ms/s over a 100ms/s quota: over 1.2x.
        let m = monitor_with("acme", 400, 0);
        let cap = NodeCapacity::standard();
        let q = quotas("acme");
        let mut all = Vec::new();
        for s in 1..=3 {
            all.extend(a.evaluate(SimTime::from_secs(s), &m, &q, &cap, 3, 0));
        }
        let migrates: Vec<_> = all
            .iter()
            .filter(|d| matches!(d.action, PolicyAction::Migrate { .. }))
            .collect();
        assert_eq!(migrates.len(), 1, "for 3 debounces to a single firing");
        assert!(a.last_errors().is_empty(), "{:?}", a.last_errors());
    }

    #[test]
    fn default_policy_stops_memory_hogs_immediately() {
        let mut a = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_secs(1)).unwrap();
        let m = monitor_with("acme", 0, 64 << 20); // 64MiB over a 16MiB quota
        let d = a.evaluate(
            SimTime::from_secs(1),
            &m,
            &quotas("acme"),
            &NodeCapacity::standard(),
            3,
            0,
        );
        assert!(d
            .iter()
            .any(|d| matches!(&d.action, PolicyAction::Stop { subject } if subject == "acme")));
    }

    #[test]
    fn within_quota_is_quiet() {
        let mut a = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_secs(1)).unwrap();
        let m = monitor_with("acme", 50, 1 << 20);
        for s in 1..=5 {
            let d = a.evaluate(
                SimTime::from_secs(s),
                &m,
                &quotas("acme"),
                &NodeCapacity::standard(),
                3,
                0,
            );
            assert!(d.is_empty(), "tick {s}: {d:?}");
        }
    }

    #[test]
    fn due_respects_interval() {
        let mut a = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_secs(5)).unwrap();
        assert!(a.due(SimTime::ZERO));
        a.evaluate(
            SimTime::from_secs(1),
            &MonitoringModule::new(),
            &BTreeMap::new(),
            &NodeCapacity::standard(),
            1,
            0,
        );
        assert!(!a.due(SimTime::from_secs(3)));
        assert!(a.due(SimTime::from_secs(6)));
    }

    #[test]
    fn overload_policy_scales_out_while_alert_fires() {
        let mut engine = PolicyEngine::compile(OVERLOAD_POLICY).unwrap();
        // Feed the alert state and queue signals into a blackboard, as the
        // E16 driver does from the SLO engine and the admission-layer stats.
        let mut bb = Blackboard::new();
        bb.set_subject_metric("std-latency", "alert_firing", 1.0);
        bb.set_global_metric("queue_depth", 120.0);
        bb.set_global_metric("queue_capacity", 128.0);
        let mut fired = Vec::new();
        for _ in 0..2 {
            fired.extend(engine.evaluate(&bb, &[]));
        }
        assert!(
            fired.iter().any(|d| d.action == PolicyAction::ScaleOut),
            "{fired:?}"
        );
        assert!(
            fired.iter().any(|d| matches!(
                &d.action,
                PolicyAction::ShedClass { class } if class == "background"
            )),
            "{fired:?}"
        );
        assert!(
            engine.last_errors().is_empty(),
            "{:?}",
            engine.last_errors()
        );

        // Alert resolved, queues drained: shedding lifts after `for 4`.
        bb.set_subject_metric("std-latency", "alert_firing", 0.0);
        bb.set_global_metric("queue_depth", 2.0);
        let mut cleared = Vec::new();
        for _ in 0..5 {
            cleared.extend(engine.evaluate(&bb, &[]));
        }
        assert!(
            cleared.iter().any(|d| matches!(
                &d.action,
                PolicyAction::Custom { name, args, .. } if name == "stop_shed"
                    && args == &["background".to_owned()]
            )),
            "{cleared:?}"
        );
        assert!(
            engine.last_errors().is_empty(),
            "{:?}",
            engine.last_errors()
        );
    }

    #[test]
    fn polled_overload_policy_scales_out_on_sustained_p95_breach() {
        let mut engine = PolicyEngine::compile(POLLED_OVERLOAD_POLICY).unwrap();
        let mut bb = Blackboard::new();
        bb.set_global_metric("p95_latency_us", 400_000.0);
        bb.set_global_metric("slo_us", 250_000.0);
        bb.set_global_metric("queue_depth", 120.0);
        bb.set_global_metric("queue_capacity", 128.0);
        let mut fired = Vec::new();
        for _ in 0..3 {
            fired.extend(engine.evaluate(&bb, &[]));
        }
        assert!(
            fired.iter().any(|d| d.action == PolicyAction::ScaleOut),
            "{fired:?}"
        );
        assert!(
            fired.iter().any(|d| matches!(
                &d.action,
                PolicyAction::ShedClass { class } if class == "background"
            )),
            "{fired:?}"
        );
        assert!(
            engine.last_errors().is_empty(),
            "{:?}",
            engine.last_errors()
        );
    }

    /// The evaluator `evaluate` replaced: every pass copies each metric of
    /// the module table onto the blackboard, then evaluates against it.
    struct ByCopy {
        engine: PolicyEngine,
        blackboard: Blackboard,
    }

    impl ByCopy {
        fn evaluate(
            &mut self,
            monitor: &MonitoringModule,
            quotas: &BTreeMap<&str, ResourceQuota>,
            capacity: &NodeCapacity,
            node_count: usize,
            node_rank: usize,
        ) -> Vec<PolicyDecision> {
            let bb = &mut self.blackboard;
            for (name, q) in quotas {
                if let Some(w) = monitor.latest(name) {
                    bb.set_subject_metric(name, "cpu_share", w.cpu_share);
                    bb.set_subject_metric(name, "memory", w.memory as f64);
                    bb.set_subject_metric(name, "disk", w.disk as f64);
                    bb.set_subject_metric(name, "call_rate", w.call_rate);
                }
                bb.set_subject_metric(name, "quota_cpu", q.cpu_per_sec.as_secs_f64());
                bb.set_subject_metric(name, "quota_mem", q.memory_bytes as f64);
                bb.set_subject_metric(name, "quota_disk", q.disk_bytes as f64);
            }
            let node_cpu = capacity.cpu_utilization(monitor.total_cpu_share());
            bb.set_global_metric("node_cpu", node_cpu);
            let node_mem = capacity.memory_utilization(monitor.total_memory());
            bb.set_global_metric("node_mem", node_mem);
            bb.set_global_metric("instance_count", quotas.len() as f64);
            bb.set_global_metric("node_count", node_count as f64);
            bb.set_global_metric("node_rank", node_rank as f64);
            let subjects: Vec<&str> = quotas.keys().copied().collect();
            self.engine.evaluate(&self.blackboard, &subjects)
        }
    }

    /// One input of the differential policy test, on indexes into the
    /// tables below.
    #[derive(Debug, Clone, Copy)]
    enum Input {
        /// The monitor samples a subject: cumulative CPU ms, memory, disk,
        /// calls.
        Record(usize, [u64; 4]),
        /// A subject is local with a small (or a standard) quota.
        Quota(usize, bool),
        /// A subject leaves: what `node.rs` does at each of its three sites.
        Forget(usize),
        Pass {
            node_count: usize,
            node_rank: usize,
        },
    }

    const SUBJECTS: [&str; 5] = ["a", "b", "c", "d", "std-latency"];
    const SUBJECT_METRICS: [&str; 8] = [
        "cpu_share",
        "memory",
        "disk",
        "call_rate",
        "quota_cpu",
        "quota_mem",
        "quota_disk",
        "alert_firing",
    ];
    const GLOBALS: [&str; 7] = [
        "node_cpu",
        "node_mem",
        "instance_count",
        "node_count",
        "node_rank",
        "queue_depth",
        "queue_capacity",
    ];

    /// A rule per metric and subject reporting the value it reads (or the
    /// error) — for the bound subject and for three by name.
    fn every_metric_script() -> String {
        let mut script = String::new();
        for (i, metric) in SUBJECT_METRICS.iter().enumerate() {
            for (j, arg) in ["$i", "\"a\"", "\"d\"", "\"std-latency\""]
                .iter()
                .enumerate()
            {
                script += &format!("rule s{i}_{j} {{ when true then report({metric}({arg})) }}\n");
            }
        }
        for (i, global) in GLOBALS.iter().enumerate() {
            script += &format!("rule g{i} {{ when true then report({global}()) }}\n");
        }
        script
    }

    /// Monitor windows, quota changes and departures — for local subjects
    /// and others — between passes: reading in place decides and errs
    /// exactly as copying did, a metric that is not built in included.
    #[test]
    fn reading_in_place_equals_copying_onto_the_blackboard_300_cases() {
        use dosgi_testkit::prop::{self, Config, Gen};
        use dosgi_testkit::{prop_verify_eq, TestRng};

        let scripts = [
            DEFAULT_POLICY.to_owned(),
            CONSOLIDATION_POLICY.to_owned(),
            OVERLOAD_POLICY.to_owned(),
            every_metric_script(),
        ];
        let runs = Gen::new(|rng: &mut TestRng| {
            let script = rng.usize_in(0, 3);
            let inputs = (0..rng.usize_in(1, 60))
                .map(|_| {
                    let s = rng.usize_in(0, SUBJECTS.len() - 1);
                    match rng.u64_below(8) {
                        0..=2 => Input::Record(
                            s,
                            [
                                rng.u64_in(0, 3_000),
                                rng.u64_in(0, 64 << 20),
                                rng.u64_in(0, 1 << 20),
                                rng.u64_in(0, 500),
                            ],
                        ),
                        3 => Input::Quota(s, rng.chance(0.5)),
                        4 => Input::Forget(s),
                        _ => Input::Pass {
                            node_count: rng.usize_in(1, 4),
                            node_rank: rng.usize_in(0, 3),
                        },
                    }
                })
                .collect::<Vec<_>>();
            (script, inputs)
        });
        prop::check_with(&Config::with_cases(300), "policy_in_place", &runs, |run| {
            let script = &scripts[run.0];
            let mut in_place = AutonomicModule::new(script, SimDuration::from_secs(1)).unwrap();
            let mut by_copy = ByCopy {
                engine: PolicyEngine::compile(script).unwrap(),
                blackboard: Blackboard::new(),
            };
            let mut monitor = MonitoringModule::new();
            let mut quotas: BTreeMap<&str, ResourceQuota> = BTreeMap::new();
            let capacity = NodeCapacity::standard();
            for (i, input) in run.1.iter().enumerate() {
                let now = SimTime::from_millis(100 * (i as u64 + 1));
                match *input {
                    Input::Record(s, [cpu_ms, memory, disk, calls]) => {
                        let cpu = SimDuration::from_millis(cpu_ms);
                        let usage = UsageSnapshot {
                            cpu,
                            memory,
                            disk,
                            calls,
                        };
                        monitor.record(SUBJECTS[s], now, usage);
                    }
                    Input::Quota(s, small) => {
                        let quota = if small {
                            ResourceQuota::small()
                        } else {
                            ResourceQuota::standard()
                        };
                        quotas.insert(SUBJECTS[s], quota);
                    }
                    Input::Forget(s) => {
                        monitor.forget(SUBJECTS[s]);
                        by_copy.blackboard.forget_subject(SUBJECTS[s]);
                        quotas.remove(SUBJECTS[s]);
                    }
                    Input::Pass {
                        node_count,
                        node_rank,
                    } => {
                        let got = in_place
                            .evaluate(now, &monitor, &quotas, &capacity, node_count, node_rank);
                        let want =
                            by_copy.evaluate(&monitor, &quotas, &capacity, node_count, node_rank);
                        prop_verify_eq!(got, want, "decisions, input {i}");
                        let errors = by_copy.engine.last_errors();
                        prop_verify_eq!(in_place.last_errors(), errors, "errors, input {i}");
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn consolidation_policy_compiles_and_fires_on_idle() {
        let mut a = AutonomicModule::new(CONSOLIDATION_POLICY, SimDuration::from_secs(1)).unwrap();
        let m = MonitoringModule::new(); // nothing running: node_cpu 0
        let mut fired = Vec::new();
        for s in 1..=5 {
            fired.extend(a.evaluate(
                SimTime::from_secs(s),
                &m,
                &BTreeMap::new(),
                &NodeCapacity::standard(),
                2,
                1, // highest rank in a 2-node view: the consolidator
            ));
        }
        assert!(fired
            .iter()
            .any(|d| matches!(d.action, PolicyAction::HibernateNode)));
    }
}
