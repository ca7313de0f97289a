//! Property-based integration tests: invariants over random operation
//! sequences against the cluster, on the in-tree `dosgi-testkit` harness.
//!
//! Cases are deterministic in the harness's fixed base seed; a failure
//! prints the case seed and `DOSGI_PROP_SEED=0x<seed>` replays it exactly.
//! Counterexamples found by the retired proptest harness are preserved
//! below as explicit named `regression_*` tests.

use dosgi_core::{workloads, ClusterConfig, DosgiCluster, InstanceStatus};
use dosgi_net::{NodeId, SimDuration};
use dosgi_san::Value;
use dosgi_testkit::{prop, prop_verify, prop_verify_eq, Gen, PropResult};

/// A randomized cluster operation.
#[derive(Debug, Clone)]
enum Op {
    Deploy(u8),
    Migrate(u8, u8),
    Crash(u8),
    Restart(u8),
    Run(u16),
    Incr(u8),
}

fn op_gen() -> Gen<Op> {
    prop::one_of(vec![
        prop::u8s(0, 3).map(Op::Deploy),
        Gen::new(|rng| Op::Migrate(rng.u64_in(0, 7) as u8, rng.u64_in(0, 3) as u8)),
        prop::u8s(0, 3).map(Op::Crash),
        prop::u8s(0, 3).map(Op::Restart),
        prop::u16s(100, 799).map(Op::Run),
        prop::u8s(0, 7).map(Op::Incr),
    ])
}

/// After any sequence of deploys, migrations, crashes and restarts — as
/// long as a majority is alive at the end and the cluster gets time to
/// settle — every deployed instance is placed on a live node and probes as
/// available, and all live nodes hold byte-identical registries.
fn check_cluster_invariants(ops: &[Op], seed: u64) -> PropResult {
    let mut c = DosgiCluster::new(4, ClusterConfig::default(), seed);
    c.run_for(SimDuration::from_millis(500));
    let mut deployed: Vec<String> = Vec::new();
    let mut alive = [true; 4];

    for op in ops {
        match *op {
            Op::Deploy(n) => {
                let name = format!("inst-{}", deployed.len());
                let idx = (n as usize) % 4;
                if alive[idx]
                    && c.deploy(
                        workloads::counter_instance_with(
                            "cust",
                            &name,
                            workloads::COUNTER_WRITE_THROUGH,
                        ),
                        idx,
                    )
                    .is_ok()
                {
                    deployed.push(name);
                }
            }
            Op::Migrate(i, n) => {
                if let Some(name) = deployed.get(i as usize % deployed.len().max(1)) {
                    let _ = c.migrate(name, n as usize % 4);
                }
            }
            Op::Crash(n) => {
                let idx = n as usize % 4;
                // Keep a majority alive at all times (the invariant we
                // promise under; minority behaviour is tested separately).
                if alive[idx] && alive.iter().filter(|a| **a).count() > 3 {
                    c.crash_node(idx);
                    alive[idx] = false;
                }
            }
            Op::Restart(n) => {
                let idx = n as usize % 4;
                if !alive[idx] {
                    c.restart_node(idx);
                    alive[idx] = true;
                }
            }
            Op::Run(ms) => c.run_for(SimDuration::from_millis(u64::from(ms))),
            Op::Incr(i) => {
                if let Some(name) = deployed.get(i as usize % deployed.len().max(1)) {
                    let _ = c.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null);
                }
            }
        }
    }
    // Settle: give failure detection, claims and adoptions time.
    c.run_for(SimDuration::from_secs(6));

    // Invariant 1: every instance is placed on a live node & serving.
    for name in &deployed {
        let home = c.home_of(name);
        prop_verify!(home.is_some(), "{name} unplaced after settling");
        prop_verify!(c.probe(name), "{name} not serving");
    }
    // Invariant 2: all live Running nodes hold the same registry, byte for
    // byte (homes, statuses and revisions: a control message applied a
    // different number of times on one node shows up in a revision).
    let nodes = c.running_nodes();
    if let Some(&first) = nodes.first() {
        let encode = |i: usize| c.node(i).unwrap().registry().export().encode();
        let reference = encode(first);
        for &i in &nodes[1..] {
            prop_verify!(encode(i) == reference, "node {i} registry diverged");
        }
    }
    // Invariant 3: no instance is stuck Migrating or Orphaned.
    if let Some(&first) = nodes.first() {
        for r in c.node(first).unwrap().registry().records() {
            prop_verify_eq!(r.status, InstanceStatus::Placed, "{} stuck", &r.name);
        }
    }
    Ok(())
}

#[test]
fn eventually_every_instance_is_served() {
    // Each case simulates seconds of cluster time; 12 cases, like the
    // retired proptest config.
    let cfg = prop::Config {
        cases: 12,
        ..prop::Config::default()
    };
    let op = op_gen();
    let case = Gen::new(move |rng| {
        let n = rng.usize_in(1, 13);
        let ops: Vec<Op> = (0..n).map(|_| op.sample(rng)).collect();
        (ops, rng.u64_below(1000))
    });
    prop::check_shrink(
        &cfg,
        "eventually_every_instance_is_served",
        &case,
        |(ops, seed)| {
            prop::shrink_vec(ops)
                .into_iter()
                .filter(|v| !v.is_empty())
                .map(|v| (v, *seed))
                .collect()
        },
        |(ops, seed)| check_cluster_invariants(ops, *seed),
    );
}

/// A write-through counter never loses acknowledged increments, no matter
/// how its host crashes or where it migrates.
fn check_counter_durability(crashes: &[u8], seed: u64) -> PropResult {
    let mut c = DosgiCluster::new(3, ClusterConfig::default(), seed);
    c.run_for(SimDuration::from_millis(500));
    c.deploy(
        workloads::counter_instance_with("cust", "ctr", workloads::COUNTER_WRITE_THROUGH),
        0,
    )
    .unwrap();
    c.run_for(SimDuration::from_millis(500));

    let mut acked = 0i64;
    for &crash in crashes {
        for _ in 0..3 {
            if c.call("ctr", workloads::COUNTER_SERVICE, "incr", &Value::Null)
                .is_ok()
            {
                acked += 1;
            }
        }
        let idx = crash as usize;
        // Crash at most one node at a time, then restart it.
        if c.node(idx).is_some() && c.running_nodes().len() == 3 {
            c.crash_node(idx);
            c.run_for(SimDuration::from_secs(4));
            c.restart_node(idx);
            c.run_for(SimDuration::from_secs(2));
        }
    }
    c.run_for(SimDuration::from_secs(4));
    if c.probe("ctr") {
        let got = c
            .call("ctr", workloads::COUNTER_SERVICE, "get", &Value::Null)
            .unwrap();
        prop_verify!(
            got.as_int().unwrap() >= acked,
            "lost increments: got {got}, acked {acked}"
        );
    }
    Ok(())
}

#[test]
fn write_through_counter_never_loses_acked_increments() {
    let cfg = prop::Config {
        cases: 12,
        ..prop::Config::default()
    };
    let case = Gen::new(|rng| {
        let crashes: Vec<u8> = (0..rng.usize_in(0, 2))
            .map(|_| rng.u64_in(0, 2) as u8)
            .collect();
        (crashes, rng.u64_below(1000))
    });
    prop::check_shrink(
        &cfg,
        "write_through_counter_never_loses_acked_increments",
        &case,
        |(crashes, seed)| {
            prop::shrink_vec(crashes)
                .into_iter()
                .map(|v| (v, *seed))
                .collect()
        },
        |(crashes, seed)| check_counter_durability(crashes, *seed),
    );
}

// ---------------------------------------------------------------------------
// Named regressions: counterexamples recorded by the retired proptest
// harness (tests/integration_properties.proptest-regressions). Each runs
// unconditionally on every `cargo test`.
// ---------------------------------------------------------------------------

#[test]
fn regression_deploy_then_crash_seed_411() {
    check_cluster_invariants(&[Op::Deploy(1), Op::Crash(0)], 411).unwrap();
}

#[test]
fn regression_deploy_crash_deploy_seed_108() {
    check_cluster_invariants(&[Op::Deploy(3), Op::Crash(3), Op::Deploy(1)], 108).unwrap();
}

#[test]
fn regression_crash_deploy_restart_seed_0() {
    check_cluster_invariants(&[Op::Crash(0), Op::Deploy(1), Op::Restart(0)], 0).unwrap();
}

#[test]
fn regression_crash_run_restart_deploy_crash_seed_0() {
    check_cluster_invariants(
        &[
            Op::Crash(3),
            Op::Run(171),
            Op::Restart(3),
            Op::Deploy(1),
            Op::Crash(0),
        ],
        0,
    )
    .unwrap();
}

#[test]
fn regression_deploy_crash_restart_same_node_seed_0() {
    check_cluster_invariants(&[Op::Deploy(0), Op::Crash(0), Op::Restart(0)], 0).unwrap();
}

#[test]
fn regression_crash_restart_then_deploy_seed_88() {
    check_cluster_invariants(&[Op::Crash(2), Op::Restart(2), Op::Deploy(2)], 88).unwrap();
}

/// Regression: a restarted node boots believing node 0 coordinates it and
/// orders its `Deployed` before it is admitted. The members apply it,
/// acknowledge it and the sequencer forgets it; the origin, admitted above
/// it, retries. A sequencer that gave the retry a second position had the
/// origin alone apply `Deployed` on top of the transferred state: record
/// revision 2 there, 1 everywhere else, for good (40 of 40 seeds). Every
/// live registry must end up byte-identical.
#[test]
fn regression_deploy_before_readmission_is_applied_once_cluster_wide() {
    for seed in 0..40 {
        let mut c = DosgiCluster::new(5, ClusterConfig::default(), seed);
        c.run_for(SimDuration::from_millis(500));
        c.crash_node(2);
        c.run_for(SimDuration::from_millis(1_500));
        c.restart_node(2);
        c.deploy(workloads::web_instance("w1", "w1"), 2).unwrap();
        c.run_for(SimDuration::from_secs(6));
        assert!(c.probe("w1"), "seed {seed}: w1 not serving");
        let encoded: Vec<_> = c
            .running_nodes()
            .into_iter()
            .map(|i| c.node(i).unwrap().registry().export().encode())
            .collect();
        assert_eq!(encoded.len(), 5, "seed {seed}");
        assert!(
            encoded.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: registries diverged"
        );
    }
}

/// The same failure as this property found it once registry agreement
/// meant byte-identical: node 3 alone at record revision 2.
#[test]
fn regression_crash_run_restart_deploy_seed_788() {
    check_cluster_invariants(
        &[Op::Crash(3), Op::Run(201), Op::Restart(3), Op::Deploy(3)],
        788,
    )
    .unwrap();
}

#[test]
fn regression_deploy_migrate_crash_seed_0() {
    check_cluster_invariants(&[Op::Deploy(1), Op::Migrate(0, 0), Op::Crash(0)], 0).unwrap();
}

#[test]
fn regression_crash_deploy_restart_crash_seed_0() {
    check_cluster_invariants(
        &[Op::Crash(0), Op::Deploy(2), Op::Restart(0), Op::Crash(2)],
        0,
    )
    .unwrap();
}

/// Regression (hole (c) of the rejoin protocol): the source of a migration
/// crashes and restarts at once, so no view change orphans the record. The
/// restarted source applies its own `Migrate` with no copy left to release,
/// and the record stayed `Migrating`, homed on a live member, for good —
/// no failover or stranded sweep looked at it. The source now orders the
/// `Released` itself and the destination adopts from the SAN.
#[test]
fn regression_deploy_migrate_crash_restart_seed_151() {
    check_cluster_invariants(
        &[
            Op::Deploy(2),
            Op::Migrate(3, 1),
            Op::Crash(2),
            Op::Restart(2),
        ],
        151,
    )
    .unwrap();
}

/// Hole (c)'s other road: the source releases the instance, and its
/// `Released` dies with it before reaching the sequencer. Restarted inside
/// the suspicion timeout, it learns the record — still `Migrating`, homed on
/// itself — from the delta answering its `Hello`, not by applying the
/// `Migrate`. The stranded sweep completes that hand-off too.
#[test]
fn a_handoff_whose_released_died_is_completed_by_the_restarted_source() {
    let mut c = DosgiCluster::new(4, ClusterConfig::default(), 151);
    c.run_for(SimDuration::from_millis(500));
    c.deploy(workloads::web_instance("w", "w"), 2).unwrap();
    c.run_for(SimDuration::from_millis(500));
    c.migrate("w", 3).unwrap();
    // The source applies its `Migrate`: the copy is gone and the `Released`
    // is on its way to the sequencer.
    while c.node(2).unwrap().manager().find_by_name("w").is_some() {
        c.step();
    }
    c.crash_node(2);
    (0..5).for_each(|_| c.step());
    c.restart_node(2);
    c.run_for(SimDuration::from_secs(1));
    let status = c.node(2).unwrap().registry().record("w").unwrap().status;
    assert_eq!(
        status,
        InstanceStatus::Migrating { to: NodeId(3) },
        "learnt by transfer"
    );
    c.run_for(SimDuration::from_secs(5));
    assert_eq!(c.home_of("w"), Some(3));
    assert!(c.probe("w"));
    let encoded = encoded_registries(&c);
    assert!(
        encoded.windows(2).all(|w| w[0].1 == w[1].1),
        "registries diverged"
    );
}

// ---------------------------------------------------------------------
// Hot-swap property: upgrade/downgrade/crash interleavings vs an oracle.
// ---------------------------------------------------------------------

mod hot_swap {
    use super::*;
    use dosgi_osgi::{
        Activator, ActivatorFactory, BundleError, BundleManifest, FnActivator, Framework,
        FrameworkConfig, ManifestBuilder, Version,
    };
    use dosgi_san::SharedStore;

    const SN: &str = "org.prop.hotswap";
    const NS: &str = "prop";

    /// One step of a randomized upgrade battle.
    #[derive(Debug, Clone)]
    pub enum SwapOp {
        /// Increment the counter 1–3 times through the bundle data area.
        Incr(u8),
        /// Hot-swap to the next minor revision (compatible; must adopt).
        Upgrade,
        /// Hot-swap back to the previous minor (also compatible).
        Downgrade,
        /// Attempt a major bump — incompatible with the state's anchor; the
        /// framework must refuse and leave bundle + state untouched.
        BadUpgrade,
        /// Crash the framework (drop it) and restore it from the SAN.
        Crash,
    }

    pub fn swap_op_gen() -> Gen<SwapOp> {
        prop::one_of(vec![
            prop::u8s(1, 3).map(SwapOp::Incr),
            Gen::new(|_| SwapOp::Upgrade),
            Gen::new(|_| SwapOp::Downgrade),
            Gen::new(|_| SwapOp::BadUpgrade),
            Gen::new(|_| SwapOp::Crash),
        ])
    }

    fn manifest(v: Version) -> BundleManifest {
        ManifestBuilder::new(SN, v).build().unwrap()
    }

    /// The counter's activator: adopts a handed-off count, or initializes
    /// one. A missing-after-handoff or corrupt count fails the start — so a
    /// lossy handoff cannot hide behind a permissive activator.
    fn counter_activator() -> Box<dyn Activator> {
        Box::new(FnActivator::on_start(|ctx| {
            match ctx.store_get("count").map_err(|e| e.to_string())? {
                Some(Value::Int(_)) => Ok(()),
                None => ctx
                    .store_put("count", Value::Int(0))
                    .map_err(|e| e.to_string()),
                other => Err(format!("corrupt counter state: {other:?}")),
            }
        }))
    }

    fn factory() -> ActivatorFactory {
        let mut f = ActivatorFactory::new();
        f.register(SN, |_| counter_activator());
        f
    }

    /// Runs one interleaving and checks the oracle after
    /// every step: the bundle's live count — and, at the end, the durable
    /// SAN row — must be byte-identical to a storeless i64 counter that
    /// never went through any handoff.
    pub fn check(ops: &[SwapOp]) -> PropResult {
        let store = SharedStore::new();
        let fac = factory();
        let mut fw = Framework::new(NS);
        fw.attach_store(store.clone(), NS)
            .expect("attach fault-free store");
        let mut id = fw
            .install(manifest(Version::new(1, 0, 0)), Some(counter_activator()))
            .expect("install");
        fw.start(id).expect("start");
        let mut oracle: i64 = 0;
        let mut minor: u32 = 0;

        for op in ops {
            match *op {
                SwapOp::Incr(n) => {
                    for _ in 0..n {
                        let cur = fw
                            .bundle_store_get(id, "count")
                            .expect("read count")
                            .and_then(|v| v.as_int())
                            .unwrap_or(0);
                        fw.bundle_store_put(id, "count", Value::Int(cur + 1))
                            .expect("write count");
                        oracle += 1;
                    }
                }
                SwapOp::Upgrade => {
                    minor += 1;
                    let to = Version::new(1, minor, 0);
                    let report = fw
                        .upgrade_bundle(id, manifest(to), Some(counter_activator()))
                        .expect("compatible upgrade");
                    prop_verify_eq!(report.to, to, "upgrade landed on the wrong revision");
                }
                SwapOp::Downgrade => {
                    if minor == 0 {
                        continue; // nothing earlier to go back to
                    }
                    minor -= 1;
                    let to = Version::new(1, minor, 0);
                    let report = fw
                        .upgrade_bundle(id, manifest(to), Some(counter_activator()))
                        .expect("compatible downgrade");
                    prop_verify_eq!(report.to, to, "downgrade landed on the wrong revision");
                }
                SwapOp::BadUpgrade => {
                    let before = fw.bundle(id).expect("installed").manifest.version;
                    let r = fw.upgrade_bundle(
                        id,
                        manifest(Version::new(2, 0, 0)),
                        Some(counter_activator()),
                    );
                    prop_verify!(
                        matches!(r, Err(BundleError::IncompatibleUpgrade { .. })),
                        "major bump must be refused, got {r:?}"
                    );
                    prop_verify_eq!(
                        fw.bundle(id).expect("installed").manifest.version,
                        before,
                        "refused upgrade must leave the bundle untouched"
                    );
                    prop_verify!(
                        fw.bundle_state(id).expect("installed").is_active(),
                        "refused upgrade must leave the bundle running"
                    );
                }
                SwapOp::Crash => {
                    fw.persist().expect("pre-crash persist");
                    drop(fw);
                    fw = Framework::restore(FrameworkConfig::new(NS), store.clone(), NS, &fac)
                        .expect("restore after crash");
                    id = match fw.find_bundle(SN) {
                        Some(id) => id,
                        None => return Err("bundle lost across the crash".to_owned()),
                    };
                    prop_verify!(
                        fw.bundle_state(id).expect("restored").is_active(),
                        "restored bundle must restart"
                    );
                }
            }
            // The live count tracks the oracle byte-for-byte after every op.
            let got = fw
                .bundle_store_get(id, "count")
                .expect("read count")
                .expect("count always present once started");
            prop_verify_eq!(
                got.encode(),
                Value::Int(oracle).encode(),
                "after {op:?}: live state diverged from the oracle \
                 (got {got}, oracle {oracle})"
            );
        }
        // And so does the durable SAN row the next adopter would read.
        let durable = store
            .peek(&format!("{NS}/data/{SN}"), "count")
            .ok_or_else(|| "durable count row missing at the end".to_owned())?;
        prop_verify_eq!(
            durable.encode(),
            Value::Int(oracle).encode(),
            "durable state diverged from the oracle (got {durable}, oracle {oracle})"
        );
        Ok(())
    }
}

/// Satellite battery: 200 random upgrade/downgrade/crash interleavings.
/// After every handoff the bundle's state is byte-identical to a storeless
/// oracle. `DOSGI_PROP_SEED=0x<seed>` replays a failing case exactly.
#[test]
fn hot_swap_handoff_matches_storeless_oracle() {
    let cfg = prop::Config {
        cases: 200,
        ..prop::Config::default()
    };
    let op = hot_swap::swap_op_gen();
    let case = Gen::new(move |rng| {
        let n = rng.usize_in(1, 12);
        (0..n).map(|_| op.sample(rng)).collect::<Vec<_>>()
    });
    prop::check_with(
        &cfg,
        "hot_swap_handoff_matches_storeless_oracle",
        &case,
        |ops| hot_swap::check(ops),
    );
}

// ---------------------------------------------------------------------
// Nemesis property: single-fault schedules preserve the core invariants.
// ---------------------------------------------------------------------

/// Any single-fault nemesis schedule — one crash, one partition, one SAN
/// brown-out, one flaky-SAN window, or one message-loss window — preserves
/// the chaos harness's invariants: at most one live adoption per instance,
/// acknowledged write-through state never lost, full convergence after the
/// heal tail, no ordered message given a second position in its stream (so
/// none applied twice by a node that joined in between), and no node — a
/// restarted one least of all — queueing an adoption for an instance homed
/// elsewhere. 200 seeded cases; the fault category
/// cycles with the seed so each category gets ~40 cases.
#[test]
fn single_fault_schedules_preserve_invariants() {
    use dosgi_core::chaos::{run_nemesis, ChaosOptions};
    use dosgi_testkit::nemesis::{NemesisConfig, NemesisPlan};

    let cfg = prop::Config {
        cases: 200,
        ..prop::Config::default()
    };
    prop::check_with(
        &cfg,
        "single_fault_schedules_preserve_invariants",
        &prop::u64s(0, u64::MAX),
        |seed| {
            let nemesis_cfg = NemesisConfig {
                faults: 1,
                horizon_us: 12_000_000,
                heal_tail_us: 6_000_000,
                start_us: 1_000_000,
                min_gap_us: 1_000_000,
                duration_us: (500_000, 2_000_000),
                ..NemesisConfig::single_fault(*seed)
            };
            let plan = NemesisPlan::generate(*seed, 3, &nemesis_cfg);
            let opts = ChaosOptions {
                client_period: SimDuration::from_millis(200),
                ..ChaosOptions::default()
            };
            let report = run_nemesis(&plan, &opts);
            prop_verify!(report.ok(), "seed {seed:#x}: {:?}", report.violations);
            prop_verify!(report.acked > 0, "seed {seed:#x}: no client progress");
            Ok(())
        },
    );
}

/// Regression: two crash/restart cycles, the second rejoiner facing a
/// history in which it was named home of an instance that has since moved
/// (sweep seed 9's crash ops). When rejoining replayed that history, the
/// restarted node queued an adoption for `ctr-1` while the sequencer homed
/// it on node 0; re-validation at materialization was all that stood
/// between the stale ticket and a second live copy.
#[test]
fn regression_rejoiner_queues_no_adoption_from_overruled_history() {
    use dosgi_core::chaos::{run_nemesis, ChaosOptions};
    use dosgi_testkit::nemesis::{NemesisOp, NemesisPlan, NemesisStep};

    let at = |at_us, op| NemesisStep { at_us, op };
    let plan = NemesisPlan {
        seed: 9,
        nodes: 5,
        horizon_us: 30_000_000,
        steps: vec![
            at(3_800_000, NemesisOp::CrashNode { node: 0 }),
            at(6_400_000, NemesisOp::RestartNode { node: 0 }),
            at(10_200_000, NemesisOp::CrashNode { node: 1 }),
            at(13_500_000, NemesisOp::RestartNode { node: 1 }),
        ],
    };
    let report = run_nemesis(&plan, &ChaosOptions::default());
    assert!(report.ok(), "violations: {:?}", report.violations);
}

/// Regression: a node that crashes and restarts *inside a minority
/// partition* rejoins the majority by view change, and the majority's
/// sequencer learns its new incarnation only after admitting it. An early
/// cut re-based a member whenever the sequencer saw its incarnation change,
/// which here moved the rejoiner past the `RegistryTransfer` pair ordered
/// for its admission: it kept the minority's registry and its stale copy of
/// `ctr-2` for good (a second live copy, diverged registries). A restarted
/// member is re-based only when it *asks* for history, to where its previous
/// incarnation last acknowledged.
#[test]
fn regression_restart_in_minority_still_gets_the_merge_sync() {
    use dosgi_core::chaos::{run_nemesis, ChaosOptions};
    use dosgi_testkit::nemesis::{NemesisOp, NemesisPlan, NemesisStep};

    let at = |at_us, op| NemesisStep { at_us, op };
    let plan = NemesisPlan {
        seed: 1021, // also seeds the loss pattern
        nodes: 5,
        horizon_us: 30_000_000,
        steps: vec![
            at(
                2_000_000,
                NemesisOp::Partition {
                    minority: vec![1, 2],
                },
            ),
            at(3_276_822, NemesisOp::CrashNode { node: 2 }),
            at(4_451_021, NemesisOp::MessageLoss { rate: 0.24 }),
            at(5_196_206, NemesisOp::RestartNode { node: 2 }),
            at(6_956_485, NemesisOp::HealPartition),
            at(7_139_799, NemesisOp::MessageLossOff),
        ],
    };
    let report = run_nemesis(&plan, &ChaosOptions::default());
    assert!(report.ok(), "violations: {:?}", report.violations);
}

// ---------------------------------------------------------------------
// Registry transfer: one per joiner, asked for until it lands.
// ---------------------------------------------------------------------

/// Every running node's registry, encoded.
fn encoded_registries(c: &DosgiCluster) -> Vec<(usize, Vec<u8>)> {
    c.running_nodes()
        .into_iter()
        .map(|i| (i, c.node(i).unwrap().registry().export().encode()))
        .collect()
}

/// Regression (hole (b) of the rejoin protocol): node 1 restarts after it
/// was suspected, and the view change that admits it has node 0 — the
/// sequencer and the lowest member already in the group — order its
/// `RegistryTransfer`. Node 0 crashes `k` steps later. For some `k` the sync
/// dies with it before it reaches node 1, which then coordinates the new
/// view with an empty registry. A joiner that asked once and waited held 0
/// of 6 records for good (k = 5 and 6); one that asks again until a
/// transfer addressed to it lands holds all 6, whatever `k`.
#[test]
fn regression_joiner_whose_admission_sync_dies_with_the_sequencer() {
    for k in 0..80 {
        let mut c = DosgiCluster::new(5, ClusterConfig::default(), 3);
        c.run_for(SimDuration::from_millis(500));
        for i in 0..6 {
            let name = format!("w{i}");
            c.deploy(workloads::web_instance(&name, &name), 2 + i % 3)
                .unwrap();
        }
        c.crash_node(1);
        c.run_for(SimDuration::from_millis(1_500));
        c.restart_node(1);
        (0..k).for_each(|_| c.step());
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(8));
        let encoded = encoded_registries(&c);
        assert!(
            encoded.windows(2).all(|w| w[0].1 == w[1].1),
            "k = {k}: registries diverged"
        );
        let held = c.node(1).unwrap().registry().len();
        assert_eq!(held, 6, "k = {k}: node 1 holds {held} of 6 records");
    }
}

/// One rejoin, drawn: which node restarts, whether it was down long enough
/// to be suspected, when after its restart the sequencer crashes (if at
/// all) and how many instances the registry holds.
#[derive(Debug, Clone)]
struct Rejoin {
    seed: u64,
    victim: usize,
    /// Steps down: under the suspicion timeout's 40, or 1.5 s.
    down_steps: u64,
    sequencer_crash_after: Option<u64>,
    instances: usize,
}

/// Steps `c` for `d`, counting the registry transfers ordered meanwhile:
/// `(syncs, deltas)`. The ordering node adds a transfer's bytes when it
/// orders it, so a step in which a counter moved ordered one.
fn count_transfers(c: &mut DosgiCluster, d: SimDuration) -> (u32, u32) {
    let read = |c: &DosgiCluster| {
        (
            c.telemetry().counter("registry.sync_bytes"),
            c.telemetry().counter("registry.delta_bytes"),
        )
    };
    let end = c.now() + d;
    let mut counted = (0, 0);
    while c.now() < end {
        let before = read(c);
        c.step();
        let after = read(c);
        counted.0 += u32::from(after.0 > before.0);
        counted.1 += u32::from(after.1 > before.1);
    }
    counted
}

fn check_one_transfer(r: &Rejoin) -> PropResult {
    let mut c = DosgiCluster::new(5, ClusterConfig::default(), r.seed);
    let boot = count_transfers(&mut c, SimDuration::from_millis(500));
    prop_verify_eq!(boot, (0, 0), "boot ordered a transfer");
    for i in 0..r.instances {
        let name = format!("w{i}");
        c.deploy(workloads::web_instance(&name, &name), i % 5)
            .map_err(|e| e.to_string())?;
    }
    c.crash_node(r.victim);
    (0..r.down_steps).for_each(|_| c.step());
    c.restart_node(r.victim);
    let mut transfers = (0, 0);
    if let Some(steps) = r.sequencer_crash_after {
        (0..steps).for_each(|_| c.step());
        c.crash_node(0);
    }
    let settled = count_transfers(&mut c, SimDuration::from_secs(8));
    transfers.0 += settled.0;
    transfers.1 += settled.1;
    let encoded = encoded_registries(&c);
    prop_verify!(
        encoded.windows(2).all(|w| w[0].1 == w[1].1),
        "registries diverged"
    );
    for i in c.running_nodes() {
        let node = c.node(i).unwrap();
        prop_verify_eq!(node.registry().len(), r.instances, "node {i}'s records");
        prop_verify!(!node.awaiting_transfer(), "node {i} still waits");
    }
    if r.sequencer_crash_after.is_none() {
        let expected = if r.down_steps < 40 { (0, 1) } else { (1, 0) };
        prop_verify_eq!(transfers, expected, "(syncs, deltas) for the rejoin");
    }
    Ok(())
}

/// Two nodes suspected and restarted together are admitted by one view
/// change, whose one transfer is addressed to both: each of them is
/// answered by it, so neither asks again and no `Hello` is answered.
#[test]
fn one_transfer_answers_every_joiner_it_names() {
    let mut c = DosgiCluster::new(5, ClusterConfig::default(), 31);
    c.run_for(SimDuration::from_millis(500));
    for i in 0..6 {
        let name = format!("w{i}");
        c.deploy(workloads::web_instance(&name, &name), i % 3)
            .unwrap();
    }
    c.run_for(SimDuration::from_millis(300));
    c.crash_node(3);
    c.crash_node(4);
    c.run_for(SimDuration::from_millis(1_500));
    c.restart_node(3);
    c.restart_node(4);
    let transfers = count_transfers(&mut c, SimDuration::from_secs(8));
    assert_eq!(transfers, (1, 0), "(syncs, deltas) for the two joiners");
    let encoded = encoded_registries(&c);
    assert!(
        encoded.windows(2).all(|w| w[0].1 == w[1].1),
        "registries diverged"
    );
    for i in [3, 4] {
        let node = c.node(i).unwrap();
        assert_eq!(node.registry().len(), 6, "node {i}'s records");
        assert!(!node.awaiting_transfer(), "node {i} still waits");
    }
}

/// Whatever the interleaving of a rejoin with a crash of the sequencer,
/// every running registry ends byte-identical and complete and nobody is
/// left waiting for its transfer; and without the crash, a rejoin after
/// suspicion orders exactly one transfer (the admission sync), a silent
/// restart exactly one delta, and the boot none.
#[test]
fn one_transfer_per_joiner_whatever_the_interleaving() {
    let cfg = prop::Config {
        cases: 200,
        ..prop::Config::default()
    };
    let case = Gen::new(|rng| Rejoin {
        seed: rng.u64_below(1_000),
        victim: rng.usize_in(1, 4),
        down_steps: if rng.chance(0.5) {
            rng.u64_in(0, 30)
        } else {
            300
        },
        sequencer_crash_after: rng.chance(0.5).then(|| rng.u64_below(80)),
        instances: rng.usize_in(1, 8),
    });
    prop::check_with(
        &cfg,
        "one_transfer_per_joiner_whatever_the_interleaving",
        &case,
        check_one_transfer,
    );
}

/// Regression: node 1 rejoins after it was suspected, then node 0 — the
/// sequencer — crashes and restarts, inside the suspicion timeout or after
/// it. Restarted, node 0 coordinates a fresh stream of its own and applies
/// its own `Hello` as that stream's first message, just as it does at boot.
/// Taken for a booting node, it stopped asking and held 0 of 6 records,
/// while as the lowest id it answered for the others. A node that finds its
/// own host state in the SAN is restarting, and waits for a transfer.
#[test]
fn regression_sequencer_restarted_after_a_rejoin_is_not_taken_for_booting() {
    for k in 0..20 {
        for down in [0, 30] {
            let mut c = DosgiCluster::new(5, ClusterConfig::default(), 4);
            c.run_for(SimDuration::from_millis(500));
            for i in 0..6 {
                let name = format!("w{i}");
                c.deploy(workloads::web_instance(&name, &name), 2 + i % 3)
                    .unwrap();
            }
            c.crash_node(1);
            c.run_for(SimDuration::from_millis(1_500));
            c.restart_node(1);
            (0..k).for_each(|_| c.step());
            c.crash_node(0);
            (0..down).for_each(|_| c.step());
            c.restart_node(0);
            c.run_for(SimDuration::from_secs(8));
            let encoded = encoded_registries(&c);
            assert!(
                encoded.windows(2).all(|w| w[0].1 == w[1].1),
                "k = {k}, down {down}: registries diverged"
            );
            let held = c.node(0).unwrap().registry().len();
            assert_eq!(held, 6, "k = {k}, down {down}: node 0 holds {held} of 6");
        }
    }
}
