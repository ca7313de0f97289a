//! The class-space table: one row per delegation step and outcome of a
//! virtual instance's lookup — boot, imported package, own content, host
//! delegation — and each of the errors a lookup ends in.

use dosgi_osgi::{
    ActivatorFactory, BundleId, ClassRef, Framework, LoadError, LoadPath, ManifestBuilder,
    SymbolName, Version,
};
use dosgi_vosgi::{BundleRepository, InstanceDescriptor, InstanceManager, VosgiError};

/// A host exporting `org.host.log.api`, and one instance — never started,
/// so the lookup itself resolves it — holding an exporter, an importer of
/// it with private content, and a bundle whose import nobody offers. The
/// instance shares the host's log package and `org.host.none`, which no
/// host bundle exports.
fn setup() -> (InstanceManager, dosgi_vosgi::InstanceId) {
    let mut host = Framework::new("host");
    let log = ManifestBuilder::new("org.host.log", Version::new(1, 0, 0))
        .export_package("org.host.log.api", Version::new(1, 0, 0), ["Logger"])
        .build()
        .unwrap();
    let log = host.install(log, None).unwrap();
    host.start(log).unwrap();
    let mut repo = BundleRepository::new();
    let v1 = Version::new(1, 0, 0);
    for manifest in [
        ManifestBuilder::new("org.cust.api", v1).export_package("org.cust.api", v1, ["Api"]),
        ManifestBuilder::new("org.cust.app", v1)
            .import_package("org.cust.api", "[1.0,2.0)".parse().unwrap())
            .private_package("org.cust.app.impl", ["Main"]),
        ManifestBuilder::new("org.cust.broken", v1)
            .import_package("org.nobody", "[1.0,2.0)".parse().unwrap()),
    ] {
        repo.add(manifest.build().unwrap());
    }
    let mut mgr = InstanceManager::new(host, repo, ActivatorFactory::new());
    let d = InstanceDescriptor::builder("acme", "a")
        .bundle("org.cust.api")
        .bundle("org.cust.app")
        .bundle("org.cust.broken")
        .share_package("org.host.log.api")
        .share_package("org.host.none")
        .build();
    let id = mgr.create_instance(d).unwrap();
    (mgr, id)
}

/// A row's expected outcome.
enum Want {
    Found(Option<BundleId>, LoadPath),
    NoSuchSymbol,
    NotFound,
    Unresolved,
    NotExported,
}
use Want::*;

#[test]
fn every_load_path_and_outcome() {
    let (mut mgr, id) = setup();
    let find = |mgr: &InstanceManager, sn: &str| {
        mgr.instance(id)
            .unwrap()
            .framework()
            .find_bundle(sn)
            .unwrap()
    };
    let (api, app, broken) = (
        find(&mgr, "org.cust.api"),
        find(&mgr, "org.cust.app"),
        find(&mgr, "org.cust.broken"),
    );
    let host_log = mgr.host().find_bundle("org.host.log").unwrap();
    let table = [
        (app, "std.collections.HashMap", Found(None, LoadPath::Boot)),
        (app, "org.cust.api.Api", Found(Some(api), LoadPath::Import)),
        (app, "org.cust.api.Missing", NoSuchSymbol),
        (
            app,
            "org.cust.app.impl.Main",
            Found(Some(app), LoadPath::Own),
        ),
        (app, "org.cust.app.impl.Missing", NoSuchSymbol),
        (app, "org.host.none.X", NotFound),
        (broken, "org.cust.api.Api", Unresolved),
        (
            app,
            "org.host.log.api.Logger",
            Found(Some(host_log), LoadPath::HostDelegation),
        ),
        (app, "org.host.log.api.Missing", NoSuchSymbol),
        (app, "org.elsewhere.Secret", NotExported),
    ];
    for (bundle, symbol, want) in table {
        let symbol = SymbolName::parse(symbol).unwrap();
        let want = match want {
            Found(defined_by, via) => Ok(ClassRef {
                symbol: symbol.clone(),
                defined_by,
                via,
            }),
            NoSuchSymbol => Err(LoadError::NoSuchSymbol {
                package: symbol.package().clone(),
                simple: symbol.simple().to_owned(),
            }),
            NotFound => Err(LoadError::NotFound(symbol.clone())),
            Unresolved => Err(LoadError::Unresolved(bundle)),
            NotExported => Err(LoadError::NotExported(symbol.package().clone())),
        };
        let got = mgr.load_class(id, bundle, &symbol).map_err(|e| match e {
            VosgiError::Load(e) => e,
            other => panic!("{symbol} from {bundle}: {other}"),
        });
        assert_eq!(got, want, "{symbol} from {bundle}");
    }
}
