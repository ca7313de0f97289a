//! # dosgi-core — the Dependable Distributed OSGi Environment
//!
//! This crate is the paper's contribution assembled from the substrate
//! crates: a cluster of nodes, each hosting an OSGi framework with an
//! Instance Manager for per-customer **virtual OSGi instances**
//! (`dosgi-vosgi`), connected by a group communication system
//! (`dosgi-gcs`) over a simulated network (`dosgi-net`), sharing a SAN
//! (`dosgi-san`), observed by a Monitoring Module (`dosgi-monitor`) and
//! governed by an Autonomic Module running policy scripts
//! (`dosgi-policy`), with service localization via virtual IPs and ipvs
//! (`dosgi-ipvs`).
//!
//! The paper's four goals map onto this crate as follows:
//!
//! 1. *Safely run multiple customers* — [`DosgiNode`] wraps an
//!    [`InstanceManager`](dosgi_vosgi::InstanceManager) per node;
//! 2. *Migrate customers between nodes* — the [`migration`] module:
//!    graceful migration via totally-ordered hand-off messages, and
//!    decentralized failover on view changes (every survivor derives the
//!    same deterministic placement, so no coordinator is needed);
//! 3. *Measure resource usage of each customer* — per-node
//!    [`MonitoringModule`](dosgi_monitor::MonitoringModule) fed by the
//!    frameworks' usage ledgers;
//! 4. *Enforce SLA requirements based on business policies* — the
//!    [`autonomic`] module evaluates policy scripts against the node's
//!    monitoring windows, quotas and view, read in place, and executes the
//!    resulting actions (stop / throttle / migrate / consolidate).
//!
//! The [`DosgiCluster`] type is the experiment driver: deterministic,
//! seeded, with crash/partition/shutdown injection and service-availability
//! probes — every figure-level experiment in `EXPERIMENTS.md` runs on it.
//!
//! # Quickstart
//!
//! ```
//! use dosgi_core::{ClusterConfig, DosgiCluster, workloads};
//! use dosgi_net::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cluster = DosgiCluster::new(3, ClusterConfig::default(), 42);
//! cluster.deploy(workloads::web_instance("acme", "acme-web"), 0)?;
//! cluster.run_for(SimDuration::from_secs(2));
//! assert!(cluster.probe("acme-web"), "instance serving");
//!
//! // Crash the hosting node: the survivors redeploy the instance.
//! cluster.crash_node(0);
//! cluster.run_for(SimDuration::from_secs(3));
//! assert!(cluster.probe("acme-web"), "failed over");
//! # Ok(())
//! # }
//! ```

pub mod autonomic;
mod boot;
pub mod chaos;
mod cluster;
mod error;
mod events;
pub mod loadgen;
pub mod migration;
mod msg;
mod node;
mod placement;
mod registry;
pub mod replication;
pub mod rt;
mod sla;
pub mod upgrade;
pub mod workloads;

pub use boot::BootKit;
pub use chaos::{run_nemesis, ChaosOptions, ChaosReport};
pub use cluster::{ClusterConfig, DosgiCluster};
pub use error::CoreError;
pub use events::{AdoptReason, NodeEvent};
pub use msg::AppPayload;
pub use node::{DosgiNode, NodeConfig, NodeState, Wire, START_COST_PER_BUNDLE};
pub use registry::{ClusterRegistry, InstanceRecord, InstanceStatus};
pub use rt::RealCluster;
pub use sla::{SlaSpec, SlaTracker};
pub use upgrade::{NoTrafficHooks, UpgradeWave, WaveHooks, WaveReport, WaveUpgrade};
