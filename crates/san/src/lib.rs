//! # dosgi-san — simulated SAN / distributed filesystem
//!
//! Section 3.2 of the paper makes an explicit substrate assumption:
//!
//! > *"We assume a underlying SAN or distributed filesystem to ensure that
//! > data written by each node is accessible globally."*
//!
//! This crate is that substrate. [`SharedStore`] is a cluster-wide,
//! namespace-partitioned, versioned object store whose committed writes
//! survive any node crash (crash-stop nodes lose only volatile state — the
//! store itself is the durable tier, like a SAN behind the hosts).
//!
//! On top of it the OSGi layer persists:
//!
//! * the **framework state** the OSGi specification requires to survive
//!   reboots (installed bundles + lifecycle states) — this is what makes the
//!   paper's migration "comparable to a normal startup, probably less";
//! * each bundle's **persistent storage area** (the OSGi `getDataFile`
//!   analogue);
//! * the migration module's **instance registry** metadata.
//!
//! Values are a self-describing [`Value`] tree with a compact binary
//! encoding, so the experiment harness can report true on-disk byte sizes.
//!
//! # Example
//!
//! ```
//! use dosgi_san::{SharedStore, Value};
//!
//! let store = SharedStore::new();
//! store.put("frameworks/n0", "bundle:logsvc", Value::from("ACTIVE")).unwrap();
//! assert_eq!(
//!     store.get("frameworks/n0", "bundle:logsvc"),
//!     Ok(Some(Value::from("ACTIVE")))
//! );
//! // A different node reads the same data: the store is cluster-global.
//! assert_eq!(store.list_keys("frameworks/n0"), vec!["bundle:logsvc"]);
//! ```
//!
//! Data-plane operations return `Result` because the store is *fallible*:
//! the [`fault`] module injects seeded transient I/O errors, brown-out
//! windows, and torn batch writes. With no [`FaultPlan`] attached (the
//! default) they never fail for fault reasons.

mod backend;
pub mod codec;
mod error;
pub mod fault;
mod profile;
mod store;
mod value;

pub use error::StoreError;
pub use fault::{FaultInjector, FaultPlan, RetryPolicy};
pub use profile::SanProfile;
pub use store::{SharedStore, StoreStats, Versioned};
pub use value::{Key, Map, Value};
