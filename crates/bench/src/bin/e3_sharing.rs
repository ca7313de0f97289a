//! **E3 — Figure 4: sharing host bundles through explicit exports.**
//!
//! Compares nested instances that each carry their own copy of the common
//! infrastructure (Fig. 3) against instances that use the host's single
//! copy through the delegating classloader (Fig. 4): modeled memory, which
//! path a class lookup resolves through, and the safety property (packages
//! off the export list do not leak). It prints no wall-clock figure:
//! wall-clock cost is measured by `benchmark/` only, which has no
//! class-lookup probe (its nearest are `vosgi.call_service_ns` and
//! `osgi.registry_lookup_ns`).

use dosgi_bench::{mib, print_table, ratio};
use dosgi_core::workloads;
use dosgi_osgi::{Framework, LoadPath, SymbolName};
use dosgi_vosgi::{
    DeploymentTopology, FootprintModel, InstanceDescriptor, InstanceManager, VosgiError,
};

fn host_with_log() -> Framework {
    let mut fw = Framework::new("host");
    let repo = workloads::standard_repository();
    let factory = workloads::standard_factory();
    for name in [workloads::LOG_BUNDLE, workloads::HTTP_BUNDLE] {
        let m = repo.manifest(name).unwrap().clone();
        let a = factory.create(&m);
        let id = fw.install(m, a).unwrap();
        fw.start(id).unwrap();
    }
    fw
}

fn main() {
    // ------------------------------------------------------------------
    // Memory: per-instance copies vs one shared host copy (cost model).
    // ------------------------------------------------------------------
    let model = FootprintModel::default();
    let rows: Vec<Vec<String>> = [1u64, 5, 10, 20, 50]
        .iter()
        .map(|&customers| {
            let copied = DeploymentTopology::NestedInstances.footprint(&model, customers, 8, 4);
            let shared = DeploymentTopology::SharedBundles.footprint(&model, customers, 8, 4);
            vec![
                customers.to_string(),
                copied.bundle_copies.to_string(),
                shared.bundle_copies.to_string(),
                mib(copied.memory_bytes),
                mib(shared.memory_bytes),
                ratio(copied.memory_bytes as f64, shared.memory_bytes as f64),
            ]
        })
        .collect();
    print_table(
        "E3: per-instance copies (Fig.3) vs shared host bundles (Fig.4)",
        &[
            "customers",
            "copies (3)",
            "copies (4)",
            "memory (3)",
            "memory (4)",
            "saving",
        ],
        &rows,
    );

    // ------------------------------------------------------------------
    // Lookup path: own package vs host delegation.
    // ------------------------------------------------------------------
    let mut mgr = InstanceManager::new(
        host_with_log(),
        workloads::standard_repository(),
        workloads::standard_factory(),
    );
    let d = InstanceDescriptor::builder("acme", "a")
        .bundle(workloads::WEB_BUNDLE)
        .share_package("org.dosgi.log.api")
        .share_service(workloads::LOG_SERVICE)
        .build();
    let id = mgr.create_instance(d).unwrap();
    mgr.start_instance(id).unwrap();
    let bundle = mgr
        .instance(id)
        .unwrap()
        .framework()
        .find_bundle(workloads::WEB_BUNDLE)
        .unwrap();

    let own = SymbolName::parse("org.app.web.impl.Handler").unwrap();
    let delegated = SymbolName::parse("org.dosgi.log.api.Logger").unwrap();
    let mut row = |path: &str, symbol: &SymbolName, want: LoadPath| {
        let via = mgr.load_class(id, bundle, symbol).unwrap().via;
        assert_eq!(via, want);
        vec![path.to_string(), symbol.to_string(), format!("{via:?}")]
    };
    let rows = [
        row("instance-local (own package)", &own, LoadPath::Own),
        row(
            "host delegation (explicit export)",
            &delegated,
            LoadPath::HostDelegation,
        ),
    ];
    print_table(
        "E3: class lookup by path",
        &["path", "symbol", "resolved via"],
        &rows,
    );

    // ------------------------------------------------------------------
    // Safety: non-exported packages do not leak.
    // ------------------------------------------------------------------
    let d2 = InstanceDescriptor::builder("evil", "b")
        .bundle(workloads::WEB_BUNDLE)
        .build(); // no shares at all
    let id2 = mgr.create_instance(d2).unwrap();
    mgr.start_instance(id2).unwrap();
    let bundle2 = mgr
        .instance(id2)
        .unwrap()
        .framework()
        .find_bundle(workloads::WEB_BUNDLE)
        .unwrap();
    let leak = mgr.load_class(id2, bundle2, &delegated);
    let svc = mgr.call_service(id2, workloads::LOG_SERVICE, "log", &dosgi_san::Value::Null);
    println!("\nsafety (leak prevention):");
    println!(
        "  class  org.dosgi.log.api.Logger without export -> {}",
        match leak {
            Err(VosgiError::Load(e)) => format!("DENIED ({e})"),
            other => format!("UNEXPECTED {other:?}"),
        }
    );
    println!(
        "  service {} without export -> {}",
        workloads::LOG_SERVICE,
        match svc {
            Err(VosgiError::Denied(e)) => format!("DENIED ({e})"),
            other => format!("UNEXPECTED {other:?}"),
        }
    );
}
