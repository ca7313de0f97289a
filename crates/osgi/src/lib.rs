//! # dosgi-osgi — an OSGi-like dynamic module framework
//!
//! The paper builds on the OSGi Service Platform (Release 4): *"Dynamic
//! Module System for the JAVA Platform"*. This crate reimplements the parts
//! of that platform the paper's architecture depends on, in Rust, against a
//! simulated class model:
//!
//! * **Bundles** ([`BundleManifest`], [`Framework::install`]) — named,
//!   versioned modules with explicit package imports/exports;
//! * **Lifecycle** ([`BundleState`]) — installed / resolved / starting /
//!   active / stopping / uninstalled, with start/stop/update/uninstall at
//!   run-time and framework start levels;
//! * **Resolver** — wires each import to an exporter satisfying its version
//!   range (highest version wins, ties broken by lowest bundle id);
//! * **Class spaces** ([`Framework::load_class`]) — symbol lookup through
//!   boot delegation → imported packages → the bundle's own content. This is
//!   the substrate the `dosgi-vosgi` crate extends with the paper's
//!   *explicit-export delegating classloader* for virtual instances;
//! * **Service registry** ([`ServiceRegistry`]) — services registered under
//!   interface names with properties, looked up directly or through
//!   LDAP-style [`Filter`]s, ranked, with registration events;
//! * **Persistent framework state** — the OSGi spec requires that *"the
//!   framework state shall be persistent across framework reboots"*; state
//!   snapshots serialize to [`dosgi_san::Value`] and live in the simulated
//!   SAN, which is exactly what makes the paper's migration cheap
//!   (§3.2: "comparable to a normal startup, probably less").
//!
//! "Classes" are [`SymbolName`]s (e.g. `org.example.log.Logger`) resolved
//! through the same delegation order a real OSGi classloader uses; the
//! mechanisms the paper manipulates are name-resolution *policies*, which
//! this model exercises faithfully without a JVM.
//!
//! # Example
//!
//! ```
//! use dosgi_osgi::{Framework, ManifestBuilder, Version};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut fw = Framework::new("example");
//! let manifest = ManifestBuilder::new("org.example.logsvc", Version::new(1, 0, 0))
//!     .export_package("org.example.log", Version::new(1, 0, 0), ["Logger"])
//!     .build()?;
//! let id = fw.install(manifest, None)?;
//! fw.start(id)?;
//! assert!(fw.bundle_state(id)?.is_active());
//! # Ok(())
//! # }
//! ```

mod activator;
mod area;
mod error;
mod events;
mod filter;
mod framework;
mod ids;
mod ledger;
mod lifecycle;
mod loader;
mod manifest;
pub mod persist;
mod props;
mod registry;
mod resolver;
mod service;
mod tracker;

pub use activator::{Activator, ActivatorFactory, BundleContext, FnActivator};
pub use area::DataArea;
pub use error::{BundleError, ServiceError};
pub use events::{BundleEvent, BundleEventKind, FrameworkEvent, ServiceEvent, ServiceEventKind};
pub use filter::{Filter, FilterError};
pub use framework::{
    Bundle, DirtyCount, Framework, FrameworkConfig, FrameworkMetrics, UpgradeReport,
};
pub use ids::{BundleId, PackageName, ServiceId, SymbolName, SymbolicName, Version, VersionRange};
pub use ledger::{UsageLedger, UsageSnapshot};
pub use lifecycle::BundleState;
pub use loader::{BootDelegation, ClassRef, LoadError, LoadPath};
pub use manifest::{BundleManifest, ManifestBuilder, PackageExport, PackageImport};
pub use props::PropValue;
pub use registry::{ServiceRecord, ServiceRegistry};
pub use resolver::{ResolutionReport, Wiring};
pub use service::{CallContext, Service};
pub use tracker::ServiceTracker;
