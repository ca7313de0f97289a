//! The framework's lifecycle as an executable spec.
//!
//! [`Model`] is a pure description of what each public operation does to a
//! framework's bundles, in the style of Blech's OSGi formalization: a bundle
//! *is* its state, its persistent-start flag, the revision that owns its data, and its data area's rows; each transition names the
//! states it is allowed from and the error it returns otherwise. The
//! property below runs the same random operation sequences on a
//! [`Framework`] with a SAN attached and on the model, with SAN faults,
//! crashes and restores among them, and compares everything a caller can
//! observe after every step.
//!
//! A crash may cut any `put_many` batch a persist writes: a `Cut` step runs
//! one operation while every batch tears (a strict prefix lands, the rest
//! is lost), then drops the framework and restores it from what the SAN
//! holds. That must be the restore of the state before the operation or of
//! the state after it — never a mix — or `CorruptState`.

use dosgi_osgi::{
    ActivatorFactory, BundleError, BundleId, BundleManifest, BundleState, CallContext, FnActivator,
    Framework, FrameworkConfig, ManifestBuilder, ServiceError, Version,
};
use dosgi_san::{FaultPlan, SharedStore, Value};
use dosgi_testkit::{prop, prop_verify_eq, Gen, PropResult};
use std::collections::BTreeMap;

const NS: &str = "spec/fw";

/// The bundles a case draws from: `spec.api` exports the package
/// `spec.app` imports, and `spec.bad`'s activator always refuses.
const POOL: [&str; 5] = ["spec.api", "spec.app", "spec.log", "spec.bad", "spec.late"];
const EXPORTS: usize = 0;
const IMPORTS: usize = 1;
const REFUSES: usize = 3;

/// A revision of pool bundle `pool`. Every revision keeps the bundle's
/// package wiring; only its version moves.
fn manifest(pool: usize, version: Version) -> BundleManifest {
    let mut b = ManifestBuilder::new(POOL[pool], version);
    if pool == EXPORTS {
        b = b.export_package("spec.api", Version::new(1, 0, 0), ["Api"]);
    }
    if pool == IMPORTS {
        b = b.import_package("spec.api", "[1.0,2.0)".parse().unwrap());
    }
    b.build().unwrap()
}

/// Each activator registers one service named after its bundle, except
/// `spec.bad`'s, which refuses to start.
fn factory() -> ActivatorFactory {
    let mut factory = ActivatorFactory::new();
    for name in POOL {
        factory.register(name, move |_| {
            Box::new(FnActivator::on_start(move |ctx| {
                if name == POOL[REFUSES] {
                    return Err("refuses".to_owned());
                }
                let noop = |_: &mut CallContext<'_>, _: &str, _: &Value| {
                    Ok::<_, ServiceError>(Value::Null)
                };
                ctx.register_service(&[name], Box::new(noop));
                Ok(())
            }))
        });
    }
    factory
}

/// An operation's outcome: the id an install handed out (0 otherwise), or
/// the error's variant.
type Outcome = Result<u64, &'static str>;

fn kind(e: &BundleError) -> &'static str {
    match e {
        BundleError::NotFound(_) => "NotFound",
        BundleError::InvalidTransition { .. } => "InvalidTransition",
        BundleError::ResolutionFailed { .. } => "ResolutionFailed",
        BundleError::DuplicateBundle { .. } => "DuplicateBundle",
        BundleError::ActivatorFailed { .. } => "ActivatorFailed",
        BundleError::InvalidManifest(_) => "InvalidManifest",
        BundleError::IncompatibleUpgrade { .. } => "IncompatibleUpgrade",
        BundleError::CorruptState(_) => "CorruptState",
        BundleError::Store(_) => "Store",
    }
}

// ----------------------------------------------------------------------
// The model
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ModelBundle {
    pool: usize,
    version: Version,
    state: BundleState,
    autostart: bool,
    state_version: Version,
}

#[derive(Debug, Clone)]
struct Model {
    bundles: BTreeMap<u64, ModelBundle>,
    next: u64,
    /// Data-area rows by symbolic name: an area outlives its bundles.
    data: BTreeMap<&'static str, BTreeMap<String, i64>>,
}

impl Model {
    fn new() -> Self {
        Model {
            bundles: BTreeMap::new(),
            next: 1,
            data: BTreeMap::new(),
        }
    }

    fn get(&mut self, id: u64) -> Result<&mut ModelBundle, &'static str> {
        self.bundles.get_mut(&id).ok_or("NotFound")
    }

    /// Whether `b` can wire: its one import needs some exporter installed.
    fn wires(&self, b: &ModelBundle) -> bool {
        b.pool != IMPORTS || self.bundles.values().any(|e| e.pool == EXPORTS)
    }

    /// From (none): a new id, `INSTALLED`; one revision of a name at a time.
    fn install(&mut self, pool: usize) -> Outcome {
        let version = Version::new(1, 0, 0);
        let taken = |b: &ModelBundle| b.pool == pool && b.version == version;
        if self.bundles.values().any(taken) {
            return Err("DuplicateBundle");
        }
        let id = self.next;
        self.next += 1;
        let b = ModelBundle {
            pool,
            version,
            state: BundleState::Installed,
            autostart: false,
            state_version: version,
        };
        self.bundles.insert(id, b);
        Ok(id)
    }

    /// `INSTALLED` → `RESOLVED`, for every bundle that wires.
    fn resolve(&mut self) {
        let wiring: Vec<bool> = self.bundles.values().map(|b| self.wires(b)).collect();
        for (b, wires) in self.bundles.values_mut().zip(wiring) {
            if b.state == BundleState::Installed && wires {
                b.state = BundleState::Resolved;
            }
        }
    }

    /// From `INSTALLED` (resolving first), `RESOLVED` or `ACTIVE` (a no-op).
    fn start(&mut self, id: u64) -> Outcome {
        if self.get(id)?.state == BundleState::Installed {
            self.resolve();
        }
        self.start_resolved(id)
    }

    fn start_resolved(&mut self, id: u64) -> Outcome {
        let b = self.get(id)?;
        match b.state {
            BundleState::Active => return Ok(0),
            BundleState::Installed => return Err("ResolutionFailed"),
            _ if b.pool == REFUSES => return Err("ActivatorFailed"),
            _ => {}
        }
        b.state = BundleState::Active;
        b.autostart = true;
        Ok(0)
    }

    /// From any state; only `ACTIVE` moves (to `RESOLVED`). A persistent
    /// stop also clears the start flag, a transient one keeps it.
    fn stop(&mut self, id: u64, persistent: bool) -> Outcome {
        let b = self.get(id)?;
        if b.state == BundleState::Active {
            b.state = BundleState::Resolved;
        }
        b.autostart &= !persistent;
        Ok(0)
    }

    fn uninstall(&mut self, id: u64) -> Outcome {
        self.bundles.remove(&id).map(|_| 0).ok_or("NotFound")
    }

    /// Every bundle is re-wired: one that wires and was `INSTALLED`
    /// resolves, one that does not is stopped transiently and demoted.
    fn refresh(&mut self) {
        let wiring: Vec<bool> = self.bundles.values().map(|b| self.wires(b)).collect();
        for (b, wires) in self.bundles.values_mut().zip(wiring) {
            b.state = match (wires, b.state) {
                (true, BundleState::Installed) => BundleState::Resolved,
                (true, state) => state,
                (false, _) => BundleState::Installed,
            };
        }
    }

    /// An in-place upgrade: gated on the major version of the revision
    /// that owns the state; `rolled_back` when the quiesce could not
    /// persist, which leaves the old revision as it was. Past the gate the
    /// new revision owns the data area, re-wires, and restarts if the old
    /// one was running.
    fn upgrade(&mut self, id: u64, version: Version, rolled_back: bool) -> Outcome {
        let b = self.get(id)?;
        if version.major != b.state_version.major {
            return Err("IncompatibleUpgrade");
        }
        if rolled_back {
            return Err("Store");
        }
        let was_active = b.state == BundleState::Active;
        self.stop(id, false)?;
        let b = self.get(id)?;
        (b.version, b.state_version) = (version, version);
        b.state = BundleState::Installed;
        self.refresh();
        if was_active {
            self.start(id)?;
        }
        Ok(0)
    }

    fn put(&mut self, id: u64, key: String, value: i64) -> Outcome {
        let sn = POOL[self.get(id)?.pool];
        self.data.entry(sn).or_default().insert(key, value);
        Ok(0)
    }

    /// Every `ACTIVE` bundle stops transiently.
    fn shutdown(&mut self) {
        for b in self.bundles.values_mut() {
            if b.state == BundleState::Active {
                b.state = BundleState::Resolved;
            }
        }
    }

    /// What a restore of this state brings back: every bundle reinstalled,
    /// resolved where it wires, and the persistently started ones started
    /// again.
    fn restored(&self) -> Model {
        let mut m = self.clone();
        for b in m.bundles.values_mut() {
            b.state = BundleState::Installed;
        }
        m.resolve();
        let ids: Vec<u64> = m.bundles.keys().copied().collect();
        for id in ids {
            let b = &m.bundles[&id];
            if b.autostart {
                let _ = m.start_resolved(id);
            }
        }
        m
    }
}

// ----------------------------------------------------------------------
// The operations, and what is observed after each
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Install(u8),
    Resolve,
    Start(u8),
    Stop(u8),
    Upgrade(u8),
    Uninstall(u8),
    Put(u8, u8),
    Shutdown,
}

#[derive(Debug, Clone)]
enum Step {
    Do(Op),
    /// Arms a seeded SAN fault plan: I/O errors and torn batches.
    Fault(u8),
    Heal,
    Flush,
    /// The SAN heals, the framework flushes, crashes and is restored.
    Crash,
    /// One operation with every batch torn, then a crash.
    Cut(u8, Op),
}

fn id_of(n: u8) -> u64 {
    u64::from(n % 8) + 1
}

/// Runs `op` on both sides; `faulty` says a fault plan is armed, which
/// lets an upgrade roll back and a data-area write report its failed
/// write-through. Returns the two outcomes.
fn apply(fw: &mut Framework, model: &mut Model, op: &Op, faulty: bool) -> (Outcome, Outcome) {
    let factory = factory();
    let unit = |r: Result<(), BundleError>| r.map(|()| 0).map_err(|e| kind(&e));
    // An upgrade's target, computed from the model's view of the bundle:
    // a new major version (refused) one time in four, a new minor otherwise.
    let target = |model: &Model, n: u8| {
        let b = model.bundles.get(&id_of(n));
        let (pool, v) = b.map_or((0, Version::new(1, 0, 0)), |b| (b.pool, b.version));
        match n % 4 {
            0 => (pool, Version::new(v.major + 1, 0, 0)),
            _ => (pool, Version::new(v.major, v.minor + 1, 0)),
        }
    };
    match *op {
        Op::Install(n) => {
            let pool = usize::from(n) % POOL.len();
            let m = manifest(pool, Version::new(1, 0, 0));
            let activator = factory.create(&m);
            let got = fw
                .install(m, activator)
                .map(|id| id.0)
                .map_err(|e| kind(&e));
            (got, model.install(pool))
        }
        Op::Resolve => {
            fw.resolve_all();
            model.resolve();
            (Ok(0), Ok(0))
        }
        Op::Start(n) => (unit(fw.start(BundleId(id_of(n)))), model.start(id_of(n))),
        Op::Stop(n) => (
            unit(fw.stop(BundleId(id_of(n)))),
            model.stop(id_of(n), true),
        ),
        Op::Uninstall(n) => {
            let got = unit(fw.uninstall(BundleId(id_of(n))));
            (got, model.uninstall(id_of(n)))
        }
        Op::Upgrade(n) => {
            let (pool, version) = target(model, n);
            let m = manifest(pool, version);
            let activator = factory.create(&m);
            let got = fw.upgrade_bundle(BundleId(id_of(n)), m, activator);
            let got = got.map(|_| 0).map_err(|e| kind(&e));
            let rolled_back = faulty && got == Err("Store");
            (got, model.upgrade(id_of(n), version, rolled_back))
        }
        Op::Put(n, k) => {
            let key = format!("k{}", k % 3);
            let got = fw.bundle_store_put(BundleId(id_of(n)), &key, Value::Int(i64::from(k)));
            let mut got = unit(got);
            // The row is written in memory either way; only its
            // write-through failed.
            if faulty && got == Err("Store") {
                got = Ok(0);
            }
            (got, model.put(id_of(n), key, i64::from(k)))
        }
        Op::Shutdown => {
            fw.shutdown();
            model.shutdown();
            (Ok(0), Ok(0))
        }
    }
}

/// Everything a caller sees: each bundle's identity and lifecycle fields,
/// the services registered, and (with the SAN healthy) each data area's
/// rows, read through a bundle of its name.
#[derive(Debug, PartialEq)]
struct Seen {
    bundles: Vec<(u64, String, Version, BundleState, bool, Version)>,
    services: (usize, Vec<bool>),
    data: Vec<(String, String, Option<i64>)>,
}

fn seen_framework(fw: &mut Framework, data: bool) -> Seen {
    let bundles = fw.bundles().map(|b| {
        let m = &b.manifest;
        let sn = m.symbolic_name.to_string();
        (b.id.0, sn, m.version, b.state, b.autostart, b.state_version)
    });
    let bundles: Vec<_> = bundles.collect();
    let services = POOL.map(|sn| fw.best_service(sn).is_some()).to_vec();
    let mut rows = Vec::new();
    for sn in POOL.into_iter().filter(|_| data) {
        let Some(id) = fw.find_bundle(sn) else {
            continue;
        };
        for key in ["k0", "k1", "k2"] {
            let got = fw.bundle_store_get(id, key).expect("a healthy SAN");
            rows.push((sn.to_owned(), key.to_owned(), got.and_then(|v| v.as_int())));
        }
    }
    Seen {
        bundles,
        services: (fw.registry().len(), services),
        data: rows,
    }
}

fn seen_model(model: &Model, data: bool) -> Seen {
    let bundles = model.bundles.iter().map(|(&id, b)| {
        let sn = POOL[b.pool].to_owned();
        (id, sn, b.version, b.state, b.autostart, b.state_version)
    });
    let active = |pool: usize| {
        model
            .bundles
            .values()
            .any(|b| b.pool == pool && b.state.is_active())
    };
    let services = (0..POOL.len()).map(active).collect();
    let running = model
        .bundles
        .values()
        .filter(|b| b.state.is_active())
        .count();
    let mut rows = Vec::new();
    for (pool, sn) in POOL.into_iter().enumerate().filter(|_| data) {
        if !model.bundles.values().any(|b| b.pool == pool) {
            continue;
        }
        for key in ["k0", "k1", "k2"] {
            let got = model.data.get(sn).and_then(|rows| rows.get(key)).copied();
            rows.push((sn.to_owned(), key.to_owned(), got));
        }
    }
    Seen {
        bundles: Vec::from_iter(bundles),
        services: (running, services),
        data: rows,
    }
}

fn restore(store: &SharedStore) -> Result<Framework, BundleError> {
    Framework::restore(FrameworkConfig::new(NS), store.clone(), NS, &factory())
}

/// Heals the SAN and lands everything pending: from here the SAN holds
/// what the framework holds.
fn settle(fw: &mut Framework, store: &SharedStore) -> PropResult {
    store.clear_faults();
    fw.flush_persist()
        .map_err(|e| format!("flush on a healthy SAN: {e}"))
}

fn run_case(steps: &[Step]) -> PropResult {
    let store = SharedStore::new();
    let mut fw = Framework::new(NS);
    fw.attach_store(store.clone(), NS).expect("a healthy SAN");
    let mut model = Model::new();
    for (at, step) in steps.iter().enumerate() {
        let faulty = store.fault_plan().is_some();
        match step {
            Step::Do(op) => {
                let (got, want) = apply(&mut fw, &mut model, op, faulty);
                prop_verify_eq!(got, want, "step {at}: {op:?}");
            }
            Step::Fault(n) => {
                let rate = f64::from(n % 40) / 100.0;
                let plan = FaultPlan::flaky(rate, u64::from(*n) * 977 + 13);
                store.set_fault_plan(plan.with_torn_writes(f64::from(n % 3) / 4.0));
            }
            Step::Heal => store.clear_faults(),
            Step::Flush => drop(fw.flush_persist()),
            Step::Crash => {
                settle(&mut fw, &store)?;
                fw = restore(&store).map_err(|e| format!("step {at}: restore: {e}"))?;
                model = model.restored();
            }
            Step::Cut(seed, op) => {
                settle(&mut fw, &store)?;
                let old = model.clone();
                store.set_fault_plan(FaultPlan::flaky(0.0, u64::from(*seed)).with_torn_writes(1.0));
                let (got, want) = apply(&mut fw, &mut model, op, true);
                prop_verify_eq!(got, want, "step {at}: {op:?} under torn writes");
                store.clear_faults();
                fw = match restore(&store) {
                    Ok(fw) => fw,
                    Err(BundleError::CorruptState(_)) => return Ok(()),
                    Err(e) => return Err(format!("step {at}: restore after a cut: {e}")),
                };
                let got = seen_framework(&mut fw, true);
                let sides = [old.restored(), model.restored()];
                let Some(side) = sides.into_iter().find(|m| seen_model(m, true) == got) else {
                    return Err(format!(
                        "step {at}: a cut {op:?} restored to neither side:\n  got: {got:?}\n  old: {:?}\n  new: {:?}",
                        seen_model(&old.restored(), true),
                        seen_model(&model.restored(), true)
                    ));
                };
                model = side;
            }
        }
        let data = store.fault_plan().is_none();
        prop_verify_eq!(
            seen_framework(&mut fw, data),
            seen_model(&model, data),
            "after step {at}: {step:?}"
        );
    }
    Ok(())
}

fn steps() -> Gen<Vec<Step>> {
    let op = prop::one_of(vec![
        prop::u8s(0, 4).map(Op::Install),
        prop::u8s(0, 4).map(Op::Install),
        Gen::new(|_| Op::Resolve),
        prop::u8s(0, 7).map(Op::Start),
        prop::u8s(0, 7).map(Op::Start),
        prop::u8s(0, 7).map(Op::Stop),
        prop::u8s(0, 7).map(Op::Upgrade),
        prop::u8s(0, 7).map(Op::Upgrade),
        prop::u8s(0, 7).map(Op::Uninstall),
        Gen::new(|rng| Op::Put(rng.u64_in(0, 7) as u8, rng.u64_in(0, 255) as u8)),
        Gen::new(|_| Op::Shutdown),
    ]);
    let cut_op = op.clone();
    let step = prop::one_of(vec![
        op.map(Step::Do),
        op.map(Step::Do),
        op.map(Step::Do),
        op.map(Step::Do),
        prop::u8s(0, 99).map(Step::Fault),
        Gen::new(|_| Step::Heal),
        Gen::new(|_| Step::Flush),
        Gen::new(|_| Step::Crash),
        Gen::new(move |rng| Step::Cut(rng.u64_in(0, 255) as u8, cut_op.sample(rng))),
    ]);
    prop::vecs(step, 1, 40)
}

#[test]
fn the_framework_follows_the_lifecycle_model() {
    prop::check_shrink(
        &prop::Config::with_cases(500),
        "the_framework_follows_the_lifecycle_model",
        &steps(),
        |steps| prop::shrink_vec(steps),
        |steps| run_case(steps),
    );
}
