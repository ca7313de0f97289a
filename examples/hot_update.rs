//! Run-time evolution: the OSGi promise the paper's introduction leans on.
//!
//! > *"adding new functionality to an existing system could be achieved by
//! > adding a new bundle (or changing an existing one) without disrupting
//! > the production environment."*
//!
//! A customer's instance keeps serving while (1) a brand-new bundle is
//! hot-installed into it and (2) an existing bundle is updated to a new
//! version in place. A `ServiceTracker` watches the churn the way a real
//! consumer would.
//!
//! Run with: `cargo run -p dosgi-core --example hot_update`

use dosgi_core::workloads;
use dosgi_osgi::{
    CallContext, FnActivator, Framework, ManifestBuilder, ServiceError, ServiceTracker, Version,
};
use dosgi_san::Value;
use dosgi_vosgi::{InstanceDescriptor, InstanceManager};
use std::collections::BTreeMap;

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
                &["org.acme.search.Search"],
                BTreeMap::new(),
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

    let mut tracker = ServiceTracker::new("org.acme.search.Search");
    tracker.open(mgr.instance(id).unwrap().framework().registry());
    println!("serving; search services tracked: {}", tracker.len());

    // 1. Hot-install the search bundle — no restart of anything else.
    let before = mgr
        .call_service(id, workloads::WEB_SERVICE, "handle", &Value::Null)?
        .get("served")
        .and_then(Value::as_int)
        .unwrap_or(0);
    mgr.install_bundle(id, "org.acme.search")?;
    for e in mgr
        .instance_mut(id)
        .unwrap()
        .framework_mut()
        .take_service_events()
    {
        tracker.on_event(mgr.instance(id).unwrap().framework().registry(), &e);
    }
    println!(
        "hot-installed search v{} (tracked: {}); web already served {} requests and keeps going",
        mgr.call_service(id, "org.acme.search.Search", "version", &Value::Null)?,
        tracker.len(),
        before
    );

    // 2. Hot-update the search bundle to 2.0.0.
    mgr.update_bundle(
        id,
        "org.acme.search",
        ManifestBuilder::new("org.acme.search", Version::new(2, 0, 0))
            .private_package("org.acme.search.impl", ["Index", "Ranker"])
            .build()?,
    )?;
    for e in mgr
        .instance_mut(id)
        .unwrap()
        .framework_mut()
        .take_service_events()
    {
        tracker.on_event(mgr.instance(id).unwrap().framework().registry(), &e);
    }
    let (added, removed) = tracker.churn();
    println!(
        "hot-updated search to v{} (tracker saw {added} registrations, {removed} removals)",
        mgr.call_service(id, "org.acme.search.Search", "version", &Value::Null)?
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
