//! # dosgi-vosgi — virtual OSGi instances
//!
//! Section 2 of the paper develops the design space for running *multiple
//! customers* on shared hardware:
//!
//! 1. **Figure 1** — one OSGi framework per customer, each in its own JVM,
//!    coordinated by an external Instance Manager. Strong isolation, heavy
//!    per-customer overhead, indirect management (RMI/JMX).
//! 2. **Figure 2** — all frameworks inside one JVM; cheap management via a
//!    plain map, lower overhead.
//! 3. **Figure 3** — the Instance Manager itself becomes an OSGi bundle and
//!    the customer frameworks nest *inside* a host framework.
//! 4. **Figure 4** — nested instances become **virtual OSGi instances**
//!    that can *use services and packages of the underlying framework*,
//!    through a topmost delegating classloader that consults the host only
//!    for **explicitly exported** packages/services.
//!
//! This crate implements designs 3–4 (and models 1–2 for the comparison
//! experiment **E1**):
//!
//! * [`InstanceManager`] — owns the host [`Framework`] and the virtual
//!   instances, controls their life-cycle;
//! * [`InstanceDescriptor`] — a customer's deployment: bundles, the
//!   explicit host exports, the sandbox policy, the resource quota; its
//!   SAN state namespace is made once and shared by its clones, so an
//!   adoption names it without allocating, and its framework, like every
//!   instance's, goes by one static name;
//! * the **delegating loader** ([`InstanceManager::load_class`]) — normal
//!   instance-local lookup first, then the host, *only* for packages on the
//!   explicit export list (`LoadError::NotExported` otherwise — the paper's
//!   leak-prevention property);
//! * shared services ([`InstanceManager::call_service`]) — same rule at
//!   the service level;
//! * [`SecurityPolicy`] — the `SecurityManager` analogue: capability checks
//!   for filesystem and network access per instance;
//! * [`ResourceQuota`] — per-customer CPU/memory/disk limits that the
//!   monitoring layer evaluates (the SLA substrate).
//!
//! [`Framework`]: dosgi_osgi::Framework

mod changes;
mod descriptor;
mod error;
mod instance;
mod manager;
mod quota;
mod repository;
mod sandbox;
mod topology;

pub use changes::{ChangeLog, CHANGE_LOG_CAPACITY};
pub use descriptor::{
    CustomerId, InstanceDescriptor, InstanceDescriptorBuilder, InstanceId, NamespaceCache,
};
pub use error::VosgiError;
pub use instance::{InstanceState, VirtualInstance};
pub use manager::InstanceManager;
pub use quota::{QuotaViolation, ResourceQuota};
pub use repository::BundleRepository;
pub use sandbox::{Access, Permission, SecurityPolicy};
pub use topology::{DeploymentTopology, FootprintModel, TopologyFootprint};
