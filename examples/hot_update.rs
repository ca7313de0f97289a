//! Run-time evolution: the OSGi promise the paper's introduction leans on.
//!
//! > *"adding new functionality to an existing system could be achieved by
//! > adding a new bundle (or changing an existing one) without disrupting
//! > the production environment."*
//!
//! A customer's instance keeps serving while (1) a brand-new bundle is
//! hot-installed into it and (2) an existing bundle is upgraded to a new
//! version in place. The instance's service registry shows the churn: the
//! upgrade replaces the search service's registration with a new one.
//!
//! Run with: `cargo run -p dosgi-core --example hot_update`

use dosgi_core::workloads;
use dosgi_osgi::{
    CallContext, FnActivator, Framework, ManifestBuilder, ServiceError, ServiceId, Version,
};
use dosgi_san::Value;
use dosgi_vosgi::{InstanceDescriptor, InstanceId, InstanceManager};

const SEARCH: &str = "org.acme.search.Search";

/// The services the instance's registry holds under the search interface.
fn search_services(mgr: &InstanceManager, id: InstanceId) -> Vec<ServiceId> {
    let registry = mgr.instance(id).expect("created").framework().registry();
    registry.references(SEARCH).iter().map(|r| r.id).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Provision a new bundle + activator into the node's repository and
    // factory, before the manager shares them.
    let mut repository = workloads::standard_repository();
    repository.add(
        ManifestBuilder::new("org.acme.search", Version::new(1, 0, 0))
            .private_package("org.acme.search.impl", ["Index"])
            .build()?,
    );
    let mut factory = workloads::standard_factory();
    factory.register("org.acme.search", |m| {
        let version = m.version;
        Box::new(FnActivator::on_start(move |ctx| {
            ctx.register_service(
                &[SEARCH],
                Box::new(
                    move |_: &mut CallContext<'_>, method: &str, _: &Value| match method {
                        "version" => Ok(Value::from(version.to_string())),
                        m => Err(ServiceError::Failed(format!("no {m}"))),
                    },
                ),
            );
            Ok(())
        }))
    });
    let mut mgr = InstanceManager::new(Framework::new("host"), repository, factory);

    // The customer's instance starts with just the web bundle.
    let id = mgr.create_instance(
        InstanceDescriptor::builder("acme", "acme-prod")
            .bundle(workloads::WEB_BUNDLE)
            .build(),
    )?;
    mgr.start_instance(id)?;

    assert!(search_services(&mgr, id).is_empty());
    println!("serving; no search service registered");

    // 1. Hot-install the search bundle — no restart of anything else.
    let before = mgr
        .call_service(id, workloads::WEB_SERVICE, "handle", &Value::Null)?
        .get("served")
        .and_then(Value::as_int)
        .unwrap_or(0);
    mgr.install_bundle(id, "org.acme.search")?;
    let installed = search_services(&mgr, id);
    assert_eq!(installed.len(), 1);
    println!(
        "hot-installed search v{} (service {:?}); web already served {} requests and keeps going",
        mgr.call_service(id, SEARCH, "version", &Value::Null)?,
        installed[0],
        before
    );

    // 2. Hot-update the search bundle to 1.1.0: the old revision stops,
    //    the new one adopts its state and starts.
    let report = mgr.upgrade_bundle(
        id,
        "org.acme.search",
        ManifestBuilder::new("org.acme.search", Version::new(1, 1, 0))
            .private_package("org.acme.search.impl", ["Index", "Ranker"])
            .build()?,
    )?;
    let updated = search_services(&mgr, id);
    assert_eq!(updated.len(), 1);
    assert_ne!(updated, installed, "the update re-registers the service");
    println!(
        "hot-updated search {} -> {} (service {:?} replaced by {:?})",
        report.from, report.to, installed[0], updated[0]
    );
    assert_eq!(
        mgr.call_service(id, SEARCH, "version", &Value::Null)?,
        Value::from("1.1.0")
    );

    // The web bundle never blinked.
    let after = mgr
        .call_service(id, workloads::WEB_SERVICE, "handle", &Value::Null)?
        .get("served")
        .and_then(Value::as_int)
        .unwrap_or(0);
    println!("web served counter continued uninterrupted: {before} -> {after}");
    assert_eq!(after, before + 1);
    Ok(())
}
