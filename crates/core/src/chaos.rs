//! The deterministic chaos (nemesis) harness.
//!
//! [`dosgi_testkit::nemesis`] generates seeded fault schedules — node
//! crashes, minority partitions, SAN brown-outs/flakiness, message loss —
//! as pure data; this module **applies** them to a [`DosgiCluster`] while a
//! client workload drives write-through counters, and checks the
//! dependability invariants the paper's protocol promises:
//!
//! 1. **At most one live adoption** — no instance is ever *running* on two
//!    nodes at once (checked whenever the network has been undisturbed long
//!    enough for the total order to reconverge; during a partition a stale
//!    minority copy may legitimately linger until heal-time reconciliation).
//! 2. **Write-through state is never lost** — the SAN's durable counter is
//!    always ≥ the highest value a client saw acknowledged (increments
//!    acknowledged through a partitioned minority are excluded: a split
//!    brain may serve them from a copy that heal-time reconciliation
//!    discards — the client-visible contract the protocol actually makes).
//! 3. **Convergence after heal** — once every fault is healed and the
//!    schedule's quiet tail has passed, all replicated registries are
//!    byte-identical, every instance is `Placed` and serving, and no
//!    quarantine is left standing (the SAN healed, so quarantined
//!    instances must have re-materialized).
//! 4. **One position per ordered message** — a sequencer never gives the
//!    same control message, identified by `(origin, incarnation,
//!    origin_seq)`, a second position in its stream. Were it to, a node
//!    that joined between the two would apply the message on top of
//!    transferred state that already contains it, and diverge. Every member
//!    that applied the first copy is handed the second and counts it
//!    (`gcs.order.resequenced`, so this invariant needs telemetry on); that
//!    no node *applies* a message twice is the group layer's own guarantee,
//!    property-tested there.
//! 5. **No stale adoption tickets** — every adoption a node has queued is
//!    for an instance its sequencer's registry homes on that node. A
//!    rejoining node must build its registry from the state transfer, never
//!    from history the total order has since overruled (checked, like
//!    invariant 1, only while the network is undisturbed).
//!
//! Every run is deterministic in its seed: same seed, same schedule, same
//! violations, same [`ChaosReport::fingerprint`]. A failing run prints its
//! seed; replaying it reproduces the failure exactly.

use crate::registry::InstanceStatus;
use crate::upgrade::{NoTrafficHooks, UpgradeWave, WaveReport};
use crate::workloads;
use crate::{ClusterConfig, CoreError, DosgiCluster};
use dosgi_net::{LinkConfig, NodeId, Partition, SimDuration, SimTime};
use dosgi_san::{FaultPlan, Value};
use dosgi_telemetry::{Telemetry, TraceLog};
use dosgi_testkit::mix_seed;
use dosgi_testkit::nemesis::{NemesisOp, NemesisPlan};
use std::collections::BTreeMap;

/// Workload knobs for a nemesis run (the schedule itself comes from a
/// [`NemesisPlan`]).
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// How often the client attempts one `incr` per instance.
    pub client_period: SimDuration,
    /// When set, a rolling [`UpgradeWave`] (counter bundle → 1.1.0, every
    /// node in order, [`NoTrafficHooks`]) starts this many µs after the
    /// schedule's t0 — hot-swap under nemesis fire. The wave must never
    /// break an invariant, and its outcome folds into the fingerprint so
    /// the telemetry-passivity sweep covers it too.
    pub upgrade_wave_at_us: Option<u64>,
    /// When set, the run enables continuous observability
    /// ([`DosgiCluster::enable_observability`] with the default scrape
    /// cadence and SLO set): time-series collection plus burn-rate
    /// alerting driven from the step loop. The scraper is strictly
    /// passive — it must never touch the fault-injector RNG stream — so
    /// the report (and fingerprint) must be byte-identical with this on
    /// or off; the chaos sweep enforces that on every seed.
    pub series: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            client_period: SimDuration::from_millis(100),
            upgrade_wave_at_us: None,
            series: false,
        }
    }
}

/// How many write-through counter instances a run deploys (round-robin).
const INSTANCES: usize = 3;

/// How long after a network disturbance (partition / message loss) ends
/// before order-sensitive invariants are enforced again.
const SETTLE: SimDuration = SimDuration::from_secs(6);

/// The outcome of one nemesis run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The schedule's seed (replay key).
    pub seed: u64,
    /// Fingerprint of the generated schedule.
    pub plan_fingerprint: u64,
    /// Nemesis operations actually applied.
    pub steps_applied: usize,
    /// Total client increments acknowledged (across instances).
    pub acked: u64,
    /// The durable floor per instance: the highest acknowledged counter
    /// value the SAN must never fall below.
    pub floors: BTreeMap<String, i64>,
    /// Invariant violations, in detection order. Empty means the run held
    /// every promise.
    pub violations: Vec<String>,
    /// Fingerprint of the run's observable end state (registry bytes, SAN
    /// counters, ack counts, violations). Two runs of the same seed must
    /// produce the same value — the "replays byte-identically" check.
    /// Deliberately excludes the trace: equal fingerprints across traced
    /// and untraced replays are the passivity proof.
    pub fingerprint: u64,
    /// The merged cluster-wide causal trace (empty when the run was
    /// uninstrumented). Export with [`TraceLog::to_chrome_json`]; analyze
    /// with the `trace_check` bin.
    pub trace: TraceLog,
    /// The rolling upgrade wave's outcome, when
    /// [`ChaosOptions::upgrade_wave_at_us`] armed one.
    pub wave: Option<WaveReport>,
}

impl ChaosReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Applies `plan` to a fresh cluster and returns the invariant report.
/// Deterministic in `(plan, opts)`.
pub fn run_nemesis(plan: &NemesisPlan, opts: &ChaosOptions) -> ChaosReport {
    run_nemesis_with_telemetry(plan, opts, Telemetry::new())
}

/// Like [`run_nemesis`] but with an explicit telemetry handle. Telemetry is
/// strictly passive: the report (and its fingerprint) is identical whether
/// the handle is enabled, disabled, or shared with other runs — the
/// property the chaos sweep verifies on every seed. The caller keeps a
/// clone of the handle to snapshot the run's metrics afterwards.
pub fn run_nemesis_with_telemetry(
    plan: &NemesisPlan,
    opts: &ChaosOptions,
    telemetry: Telemetry,
) -> ChaosReport {
    let config = ClusterConfig::default();
    let default_link = config.link;
    let mut cluster = DosgiCluster::new_with_telemetry(
        plan.nodes.max(1),
        config,
        mix_seed(plan.seed, 0xC1A0_5EED),
        telemetry,
    );
    if opts.series {
        cluster.enable_observability(
            dosgi_telemetry::ScrapeConfig::default(),
            DosgiCluster::default_slos(),
        );
    }
    let mut violations: Vec<String> = Vec::new();

    // Boot, deploy the workload, let placement commit everywhere.
    cluster.run_for(SimDuration::from_millis(500));
    let names: Vec<String> = (0..INSTANCES).map(|i| format!("ctr-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let d = workloads::counter_instance_with("chaos", name, workloads::COUNTER_WRITE_THROUGH);
        if let Err(e) = cluster.deploy(d, i % plan.nodes.max(1)) {
            violations.push(format!("setup: deploy {name} failed: {e}"));
        }
    }
    cluster.run_for(SimDuration::from_millis(500));

    // The schedule runs relative to t0 (post-setup).
    let t0 = cluster.now();
    let horizon = t0 + SimDuration::from_micros(plan.horizon_us);
    let mut next_op = 0usize;
    let mut steps_applied = 0usize;
    let mut partitioned = false;
    let mut lossy = false;
    let mut disturbed_until = t0; // settle clock after partition/loss heals
    let mut floors: BTreeMap<String, i64> = names.iter().map(|n| (n.clone(), 0)).collect();
    let mut acked = 0u64;
    let mut next_call = t0;
    let wave_start = opts
        .upgrade_wave_at_us
        .map(|at| t0 + SimDuration::from_micros(at));
    let mut wave: Option<UpgradeWave> = None;
    let mut wave_hooks = NoTrafficHooks;
    // Invariant 4: second positions seen so far (the handle may be shared).
    let mut resequenced = cluster.telemetry().counter("gcs.order.resequenced");

    while cluster.now() < horizon {
        // Apply every nemesis op that has come due.
        while next_op < plan.steps.len()
            && t0 + SimDuration::from_micros(plan.steps[next_op].at_us) <= cluster.now()
        {
            let op = &plan.steps[next_op].op;
            apply_op(
                &mut cluster,
                op,
                plan,
                next_op,
                horizon,
                &mut partitioned,
                &mut lossy,
                &mut disturbed_until,
                default_link,
            );
            next_op += 1;
            steps_applied += 1;
        }
        cluster.step();
        let now = cluster.now();
        let undisturbed = !partitioned && !lossy && now >= disturbed_until;

        // The rolling upgrade wave, stepped in lock-step with the nemesis
        // so it can be hit mid-flight by crashes, partitions and SAN faults.
        if let Some(start) = wave_start {
            if wave.is_none() && now >= start {
                wave = Some(UpgradeWave::new(
                    workloads::counter_manifest_at(
                        workloads::COUNTER_WRITE_THROUGH,
                        dosgi_osgi::Version::new(1, 1, 0),
                    ),
                    (0..plan.nodes.max(1)).collect(),
                    SimDuration::from_secs(8),
                ));
            }
        }
        if let Some(w) = wave.as_mut() {
            if !w.is_done() {
                let events = cluster.take_events();
                w.step(&mut cluster, &events, &mut wave_hooks);
            }
        }

        // Client workload: one increment per instance per period.
        if now >= next_call {
            next_call = now + opts.client_period;
            for name in &names {
                match cluster.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null) {
                    Ok(v) => {
                        acked += 1;
                        if undisturbed {
                            if let Some(n) = v.as_int() {
                                let f = floors.get_mut(name).expect("floors pre-seeded");
                                *f = (*f).max(n);
                            }
                        }
                    }
                    // Downtime / throttling / transient store refusals are
                    // the SLA tracker's business, not an invariant's.
                    Err(
                        CoreError::NotPlaced(_)
                        | CoreError::Throttled(_)
                        | CoreError::NodeUnavailable(_)
                        | CoreError::Vosgi(_),
                    ) => {}
                    Err(e) => violations.push(format!(
                        "[{now:?}] client incr on {name}: unexpected error {e}"
                    )),
                }
            }
        }

        let seen = cluster.telemetry().counter("gcs.order.resequenced");
        if seen > resequenced {
            violations.push(format!(
                "[{now:?}] {} ordered message(s) given a second position in one stream",
                seen - resequenced
            ));
            resequenced = seen;
        }
        check_durability(&cluster, &names, &floors, now, &mut violations);
        if undisturbed {
            check_single_copy(&cluster, &names, now, &mut violations);
            check_adoption_tickets(&cluster, now, &mut violations);
        }
        if violations.len() > 32 {
            break; // a broken run floods; keep the report readable
        }
    }

    // Convergence: by horizon the schedule guarantees a healed, quiet tail.
    check_convergence(&cluster, &names, &floors, &mut violations);
    // Publish the end-state gauges so a caller-held telemetry handle can be
    // snapshotted right after the run.
    cluster.record_telemetry_gauges();

    let wave_report = wave.map(UpgradeWave::into_report);

    let mut h = mix_seed(plan.fingerprint(), acked);
    if let Some(w) = &wave_report {
        h = mix_seed(h, w.upgraded.len() as u64);
        h = mix_seed(h, w.failed.len() as u64);
        for s in &w.skipped_nodes {
            h = mix_seed(h, *s as u64);
        }
        for u in &w.upgraded {
            for b in u.instance.as_bytes() {
                h = mix_seed(h, *b as u64);
            }
            h = mix_seed(h, u.node as u64);
        }
    }
    for name in &names {
        h = mix_seed(h, floors[name] as u64);
        h = mix_seed(h, san_count(&cluster, name).unwrap_or(-1) as u64);
    }
    if let Some(reg) = cluster
        .running_nodes()
        .first()
        .and_then(|i| cluster.node(*i))
        .map(|n| n.registry().export().encode())
    {
        for b in reg {
            h = mix_seed(h, b as u64);
        }
    }
    for v in &violations {
        for b in v.as_bytes() {
            h = mix_seed(h, *b as u64);
        }
    }
    ChaosReport {
        seed: plan.seed,
        plan_fingerprint: plan.fingerprint(),
        steps_applied,
        acked,
        floors,
        violations,
        fingerprint: h,
        trace: cluster.trace_log(),
        wave: wave_report,
    }
}

/// Per-round `[ordered deliveries, registry ops, messages sent]` of
/// `rounds` crash → adopt → restart → rejoin rounds with node 0, the
/// sequencer, never restarted — the exact-count probe behind the
/// "a failover round costs the same at any cluster age" regression test and
/// the `failover_rounds` row of `perf_guard`'s capture,
/// `results/perf_guard.txt`. 5 nodes on jitter-free links (equal work, equal message
/// counts), 8 instances, victims cycling over nodes 1–4, 1.5 s to fail over
/// and 1.5 s to rejoin: from the second round on every victim hosts two
/// instances and the node restarted the round before takes both, so every
/// round does the same work.
///
/// # Panics
///
/// Panics if an instance is not serving at the end.
pub fn failover_round_costs(rounds: usize) -> Vec<[u64; 3]> {
    let config = ClusterConfig {
        link: LinkConfig::ideal(),
        ..ClusterConfig::default()
    };
    let mut c = DosgiCluster::new(5, config, 21);
    c.run_for(SimDuration::from_millis(500));
    let names: Vec<String> = (0..8).map(|i| format!("web-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        c.deploy(workloads::web_instance(name, name), i % 5)
            .expect("deploy on a healthy cluster");
    }
    c.run_for(SimDuration::from_secs(1));
    let totals = |c: &mut DosgiCluster| {
        [
            c.telemetry().counter("gcs.order.delivered"),
            c.telemetry().counter("core.registry.ops"),
            c.net_mut().stats().sent,
        ]
    };
    let mut costs = Vec::with_capacity(rounds);
    for round in 1..=rounds {
        let before = totals(&mut c);
        let victim = 1 + round % 4;
        c.crash_node(victim);
        c.run_for(SimDuration::from_millis(1_500));
        c.restart_node(victim);
        c.run_for(SimDuration::from_millis(1_500));
        let after = totals(&mut c);
        costs.push([0, 1, 2].map(|i| after[i] - before[i]));
        c.take_events();
    }
    assert!(names.iter().all(|n| c.probe(n)), "every instance serving");
    costs
}

#[allow(clippy::too_many_arguments)] // plain plumbing, local to the driver
fn apply_op(
    cluster: &mut DosgiCluster,
    op: &NemesisOp,
    plan: &NemesisPlan,
    op_index: usize,
    horizon: SimTime,
    partitioned: &mut bool,
    lossy: &mut bool,
    disturbed_until: &mut SimTime,
    default_link: LinkConfig,
) {
    let now = cluster.now();
    match op {
        NemesisOp::CrashNode { node } => cluster.crash_node(*node),
        NemesisOp::RestartNode { node } => cluster.restart_node(*node),
        NemesisOp::Partition { minority } => {
            let minority_ids: Vec<NodeId> = minority.iter().map(|n| NodeId(*n as u32)).collect();
            let rest: Vec<NodeId> = (0..plan.nodes)
                .filter(|n| !minority.contains(n))
                .map(|n| NodeId(n as u32))
                .collect();
            cluster.partition(Partition::split([minority_ids, rest]));
            *partitioned = true;
        }
        NemesisOp::HealPartition => {
            cluster.heal();
            *partitioned = false;
            *disturbed_until = now + SETTLE;
        }
        NemesisOp::SanBrownout => {
            // The heal is its own schedule step; arm a window that outlasts
            // the run and rely on `SanHeal` to lift it.
            cluster.set_fault_plan(
                FaultPlan::none().with_brownout(now, horizon + SimDuration::from_secs(3600)),
            );
        }
        NemesisOp::SanFlaky { error_rate } => {
            cluster.set_fault_plan(FaultPlan::flaky(
                *error_rate,
                mix_seed(plan.seed, op_index as u64),
            ));
        }
        NemesisOp::SanHeal => cluster.clear_faults(),
        NemesisOp::MessageLoss { rate } => {
            set_all_links(cluster, plan.nodes, LinkConfig::lossy(*rate));
            *lossy = true;
        }
        NemesisOp::MessageLossOff => {
            set_all_links(cluster, plan.nodes, default_link);
            *lossy = false;
            *disturbed_until = now + SETTLE;
        }
    }
}

fn set_all_links(cluster: &mut DosgiCluster, nodes: usize, cfg: LinkConfig) {
    for a in 0..nodes {
        for b in 0..nodes {
            if a != b {
                cluster
                    .net_mut()
                    .set_link(NodeId(a as u32), NodeId(b as u32), cfg);
            }
        }
    }
}

/// The durable counter value the SAN holds for `name`, via the fault-free
/// diagnostic read (works during brown-outs — the checker is omniscient).
fn san_count(cluster: &DosgiCluster, name: &str) -> Option<i64> {
    cluster
        .store()
        .peek(
            &format!("instance/{name}/data/{}", workloads::COUNTER_WRITE_THROUGH),
            "count",
        )
        .and_then(|v| v.as_int())
}

/// Invariant 2: the SAN never holds less than the acknowledged floor.
fn check_durability(
    cluster: &DosgiCluster,
    names: &[String],
    floors: &BTreeMap<String, i64>,
    now: SimTime,
    violations: &mut Vec<String>,
) {
    for name in names {
        let floor = floors[name];
        if floor == 0 {
            continue;
        }
        let durable = san_count(cluster, name).unwrap_or(0);
        if durable < floor {
            violations.push(format!(
                "[{now:?}] durability: {name} SAN count {durable} < acked floor {floor}"
            ));
        }
    }
}

/// Invariant 1: at most one node runs a live copy of each instance.
fn check_single_copy(
    cluster: &DosgiCluster,
    names: &[String],
    now: SimTime,
    violations: &mut Vec<String>,
) {
    for name in names {
        let live: Vec<usize> = (0..cluster.len())
            .filter(|i| {
                cluster
                    .node(*i)
                    .map(|n| n.probe_local(name))
                    .unwrap_or(false)
            })
            .collect();
        if live.len() > 1 {
            violations.push(format!(
                "[{now:?}] duplicate adoption: {name} live on nodes {live:?}"
            ));
        }
    }
}

/// Invariant 5: a queued adoption is for an instance the node's sequencer
/// — which has applied every message it ever sequenced — homes on that node.
fn check_adoption_tickets(cluster: &DosgiCluster, now: SimTime, violations: &mut Vec<String>) {
    for i in 0..cluster.len() {
        let Some(node) = cluster.node(i) else {
            continue;
        };
        let sequencer = node
            .view()
            .coordinator()
            .and_then(|c| cluster.node(c.index()))
            .filter(|s| s.view().coordinator() == Some(s.id()));
        let Some(sequencer) = sequencer else {
            continue;
        };
        for name in node.pending_adoptions() {
            // (A sequencer with no record at all has overruled nothing: it
            // restarted into the job and its own state is still in flight.)
            let Some(home) = sequencer.registry().record(name).map(|r| r.home) else {
                continue;
            };
            if home != node.id() {
                violations.push(format!(
                    "[{now:?}] stale adoption ticket: {} queued {name}, homed on {home} by {}",
                    node.id(),
                    sequencer.id()
                ));
            }
        }
    }
}

/// Invariant 3: after the healed quiet tail, everything has reconverged.
fn check_convergence(
    cluster: &DosgiCluster,
    names: &[String],
    floors: &BTreeMap<String, i64>,
    violations: &mut Vec<String>,
) {
    let now = cluster.now();
    let running = cluster.running_nodes();
    if running.is_empty() {
        violations.push(format!(
            "[{now:?}] convergence: no running nodes at horizon"
        ));
        return;
    }
    let exports: Vec<Vec<u8>> = running
        .iter()
        .filter_map(|i| cluster.node(*i))
        .map(|n| n.registry().export().encode())
        .collect();
    if exports.windows(2).any(|w| w[0] != w[1]) {
        violations.push(format!(
            "[{now:?}] convergence: registries diverge across running nodes {running:?}"
        ));
    }
    for name in names {
        let rec = cluster
            .running_nodes()
            .first()
            .and_then(|i| cluster.node(*i))
            .and_then(|n| n.registry().record(name).cloned());
        match rec {
            Some(r) if r.status == InstanceStatus::Placed => {}
            Some(r) => violations.push(format!(
                "[{now:?}] convergence: {name} ended {:?}, not Placed",
                r.status
            )),
            None => violations.push(format!(
                "[{now:?}] convergence: {name} missing from the registry"
            )),
        }
        if !cluster.probe(name) {
            violations.push(format!(
                "[{now:?}] convergence: {name} not serving at horizon"
            ));
        }
    }
    check_durability(cluster, names, floors, now, violations);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::nemesis::NemesisConfig;

    fn quick_config() -> NemesisConfig {
        NemesisConfig {
            faults: 3,
            horizon_us: 30_000_000,
            heal_tail_us: 12_000_000,
            start_us: 1_000_000,
            min_gap_us: 1_000_000,
            duration_us: (500_000, 2_500_000),
            ..NemesisConfig::default()
        }
    }

    #[test]
    fn quiet_schedule_has_no_violations_and_replays_identically() {
        let plan = NemesisPlan::generate(11, 3, &NemesisConfig::none());
        let opts = ChaosOptions::default();
        let a = run_nemesis(&plan, &opts);
        assert!(a.ok(), "violations: {:?}", a.violations);
        assert!(a.acked > 0, "client made progress");
        let b = run_nemesis(&plan, &opts);
        assert_eq!(a.fingerprint, b.fingerprint, "deterministic replay");
    }

    #[test]
    fn crash_schedule_holds_invariants() {
        let cfg = NemesisConfig {
            partition: false,
            brownout: false,
            flaky: false,
            msg_loss: false,
            ..quick_config()
        };
        let plan = NemesisPlan::generate(3, 3, &cfg);
        assert!(
            plan.steps
                .iter()
                .any(|s| matches!(s.op, NemesisOp::CrashNode { .. })),
            "schedule exercises crashes"
        );
        let report = run_nemesis(&plan, &ChaosOptions::default());
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    /// The issue's acceptance run: a seeded nemesis schedule injecting SAN
    /// faults at a 10% error rate over a 5-node cluster completes with
    /// zero invariant violations and replays byte-identically.
    #[test]
    fn five_node_ten_percent_san_faults_clean_and_replayable() {
        use dosgi_testkit::nemesis::NemesisStep;
        let plan = NemesisPlan {
            seed: 0xD0561,
            nodes: 5,
            horizon_us: 30_000_000,
            steps: vec![
                NemesisStep {
                    at_us: 2_000_000,
                    op: NemesisOp::SanFlaky { error_rate: 0.10 },
                },
                NemesisStep {
                    at_us: 8_000_000,
                    op: NemesisOp::SanHeal,
                },
                NemesisStep {
                    at_us: 11_000_000,
                    op: NemesisOp::SanFlaky { error_rate: 0.10 },
                },
                NemesisStep {
                    at_us: 16_000_000,
                    op: NemesisOp::SanHeal,
                },
            ],
        };
        let opts = ChaosOptions::default();
        let a = run_nemesis(&plan, &opts);
        assert!(a.ok(), "violations: {:?}", a.violations);
        assert!(a.acked > 0, "clients made progress through the flakiness");
        assert_eq!(a.steps_applied, 4);
        let b = run_nemesis(&plan, &opts);
        assert_eq!(a.fingerprint, b.fingerprint, "byte-identical replay");
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.floors, b.floors);
    }

    #[test]
    fn mixed_fault_schedule_holds_invariants() {
        let plan = NemesisPlan::generate(17, 5, &quick_config());
        assert!(!plan.steps.is_empty());
        let report = run_nemesis(&plan, &ChaosOptions::default());
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    /// Regression: this exact schedule (crash + restart, then a partition
    /// healed while a brown-out is live) once left the rejoining minority
    /// with diverged registry revisions. The merge re-ran the majority
    /// sequencer's full ordered history on the minority — on top of the
    /// snapshot it had just imported — because the view proposer stamped
    /// `stream_base` from its own counter while a *different* node was the
    /// merged view's coordinator. The coordinator-elect now reports its
    /// stream position in its `ViewAck`, so joiners skip history they
    /// already hold via state transfer.
    #[test]
    fn healed_partition_does_not_replay_history_onto_imported_state() {
        let plan = NemesisPlan::generate(7, 5, &NemesisConfig::default());
        let report = run_nemesis(&plan, &ChaosOptions::default());
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    /// Telemetry must be strictly passive: the same seed-7 schedule
    /// produces a byte-identical fingerprint whether instrumentation is on
    /// or off, and two instrumented replays serialize to the same snapshot
    /// byte for byte.
    #[test]
    fn seed_seven_fingerprint_is_unchanged_by_telemetry() {
        let plan = NemesisPlan::generate(7, 5, &NemesisConfig::default());
        let opts = ChaosOptions::default();

        let on = Telemetry::new();
        let a = run_nemesis_with_telemetry(&plan, &opts, on.clone());
        let b = run_nemesis_with_telemetry(&plan, &opts, Telemetry::disabled());
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "telemetry changed the run's observable behaviour"
        );
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.floors, b.floors);
        assert_eq!(a.violations, b.violations);
        assert!(
            on.counter("san.ops") > 0,
            "the instrumented run actually recorded metrics"
        );

        let on2 = Telemetry::new();
        let c = run_nemesis_with_telemetry(&plan, &opts, on2.clone());
        assert_eq!(a.fingerprint, c.fingerprint);
        assert_eq!(
            on.snapshot("chaos_seed7", plan.seed).to_json(),
            on2.snapshot("chaos_seed7", plan.seed).to_json(),
            "two instrumented replays must snapshot identically"
        );
    }

    /// Series collection and SLO evaluation must be as passive as the
    /// rest of telemetry: the same schedule fingerprints identically
    /// with the scraper on or off, two scraping replays serialize the
    /// same snapshot bytes, and the scraper demonstrably collected.
    #[test]
    fn seed_seven_fingerprint_is_unchanged_by_series_collection() {
        let plan = NemesisPlan::generate(7, 5, &NemesisConfig::default());
        let base = run_nemesis(&plan, &ChaosOptions::default());
        let opts = ChaosOptions {
            series: true,
            ..ChaosOptions::default()
        };
        let on = Telemetry::new();
        let a = run_nemesis_with_telemetry(&plan, &opts, on.clone());
        assert_eq!(
            a.fingerprint, base.fingerprint,
            "series collection changed the run's observable behaviour"
        );
        assert_eq!(a.acked, base.acked);
        assert_eq!(a.violations, base.violations);
        assert!(
            on.counter("san.ops") > 0,
            "the instrumented run recorded metrics"
        );
        let on2 = Telemetry::new();
        let b = run_nemesis_with_telemetry(&plan, &opts, on2.clone());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(
            on.snapshot("chaos_series7", plan.seed).to_json(),
            on2.snapshot("chaos_series7", plan.seed).to_json(),
            "two scraping replays must snapshot identically"
        );
    }

    /// Satellite: a rolling upgrade wave launched mid-schedule — so the
    /// nemesis can kill the in-flight node, flake the SAN under the
    /// state handoff, or partition the cluster around it — still holds
    /// at-most-one-live-copy, durability and convergence; its outcome is
    /// byte-identical with telemetry on or off. (The full 10-seed sweep
    /// lives in the chaos bin.)
    #[test]
    fn upgrade_wave_mid_nemesis_holds_invariants_and_stays_passive() {
        let plan = NemesisPlan::generate(7, 5, &NemesisConfig::default());
        let opts = ChaosOptions {
            upgrade_wave_at_us: Some(5_000_000),
            ..ChaosOptions::default()
        };
        let on = Telemetry::new();
        let a = run_nemesis_with_telemetry(&plan, &opts, on.clone());
        assert!(a.ok(), "violations: {:?}", a.violations);
        let w = a.wave.as_ref().expect("wave armed");
        assert!(
            !w.upgraded.is_empty(),
            "the wave hot-swapped at least one instance under fire: {w:?}"
        );
        let b = run_nemesis_with_telemetry(&plan, &opts, Telemetry::disabled());
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "telemetry changed a wave run's observable behaviour"
        );
        assert_eq!(a.wave, b.wave);
    }

    /// The causal trace is part of the deterministic surface: two
    /// instrumented replays of the same schedule export byte-identical
    /// Chrome trace JSON, and an uninstrumented run records nothing while
    /// fingerprinting the same.
    #[test]
    fn trace_export_is_deterministic_and_passive() {
        use dosgi_testkit::nemesis::NemesisStep;
        // Crash the node hosting ctr-0, then restart it: guarantees a
        // failover claim (and so a non-empty trace) regardless of seed.
        let plan = NemesisPlan {
            seed: 0x7ACE,
            nodes: 5,
            horizon_us: 30_000_000,
            steps: vec![
                NemesisStep {
                    at_us: 2_000_000,
                    op: NemesisOp::CrashNode { node: 0 },
                },
                NemesisStep {
                    at_us: 12_000_000,
                    op: NemesisOp::RestartNode { node: 0 },
                },
            ],
        };
        let opts = ChaosOptions::default();
        let a = run_nemesis_with_telemetry(&plan, &opts, Telemetry::new());
        let b = run_nemesis_with_telemetry(&plan, &opts, Telemetry::new());
        assert!(
            !a.trace.events.is_empty(),
            "a crashing schedule records failover/adoption spans"
        );
        assert_eq!(
            a.trace.to_chrome_json("t", plan.seed),
            b.trace.to_chrome_json("t", plan.seed),
            "byte-identical trace replay"
        );
        let c = run_nemesis_with_telemetry(&plan, &opts, Telemetry::disabled());
        assert!(c.trace.events.is_empty(), "no tracing without telemetry");
        assert_eq!(a.fingerprint, c.fingerprint, "tracing is passive");
    }

    #[test]
    fn brownout_schedule_holds_invariants() {
        let cfg = NemesisConfig {
            crash: false,
            partition: false,
            flaky: false,
            msg_loss: false,
            ..quick_config()
        };
        let plan = NemesisPlan::generate(5, 3, &cfg);
        assert!(
            plan.steps.iter().any(|s| s.op == NemesisOp::SanBrownout),
            "schedule exercises brown-outs"
        );
        let report = run_nemesis(&plan, &ChaosOptions::default());
        assert!(report.ok(), "violations: {:?}", report.violations);
    }
}
