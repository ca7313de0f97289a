//! # dosgi-ipvs — a fault-tolerant IP virtual server
//!
//! Figure 6 of the paper shows the shared-IP localization scheme: services
//! share virtual IPs fronted by an **ipvs** layer that
//!
//! > *"will be responsible to ensure the availability of the IP address to
//! > the Internet and redirect the service requests to the node currently
//! > running the service. Notice that this setting allows also to scale-up
//! > the services allowing multiple instances of the service and use the
//! > ipvs as a load balancer."*
//!
//! This crate reproduces that layer:
//!
//! * [`VirtualService`] — a `VIP:port` mapping onto a set of
//!   [`RealServer`]s with a pluggable [`Scheduler`] (round-robin, weighted
//!   round-robin, least-connections, source-hash — the classic Linux ipvs
//!   set);
//! * [`IpvsDirector`] — routes requests, tracks connections, counts per
//!   server (the balance data experiment **E8** plots);
//! * [`FaultTolerantIpvs`] — a primary/backup director pair; on primary
//!   failure the backup takes over, with or without connection-table
//!   synchronization (the ablation in **E8**);
//! * admission control ([`AdmissionConfig`], [`RequestClass`],
//!   [`BackendQueue`]) — bounded per-backend queues drained at a
//!   deterministic service rate, shedding lowest-priority work first
//!   under overload (experiment **E15**).

mod admission;
mod director;
mod failover;
mod metrics;
mod scheduler;
mod service;

pub use admission::{
    AdmissionConfig, Admitted, BackendQueue, Completion, QueuedRequest, RequestClass,
};
pub use director::{replicated_service, IpvsDirector, IpvsStats, RouteError};
pub use failover::FaultTolerantIpvs;
pub use scheduler::Scheduler;
pub use service::{RealServer, VirtualService};
