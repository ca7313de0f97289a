//! # dosgi-monitor — the Monitoring Module
//!
//! §3.1 of the paper calls monitoring *"the least mature part of all the
//! work developed as there are no adequate mechanisms to measure and
//! monitor resource usage in the actual JVM specification"* — memory is
//! only visible platform-wide via `MemoryMXBean`, CPU only roughly per
//! thread via `ThreadMXBean`, and the authors pin their hopes on **JSR-284,
//! the Resource Consumption Management API**.
//!
//! The simulation is not subject to the JVM's limits, so this crate measures
//! what the paper wanted measured:
//!
//! * [`Sampler`] — turns cumulative [`UsageSnapshot`]s (from the
//!   `dosgi-osgi` ledger) into windowed rates: CPU share of a core, calls
//!   per second, memory gauge;
//! * [`MonitoringModule`] — one sampler per customer instance and the
//!   latest window of each, the inputs to autonomic policy conditions;
//! * [`NodeCapacity`] — a node's total resources: what the Autonomic Module
//!   computes node utilization against, and a `fits` test for weighing a
//!   destination.
//!
//! The limit the runtime enforces per instance is `dosgi_vosgi`'s quota;
//! history of the windows is `dosgi_telemetry`'s series over the
//! `monitor.<subject>.*` gauges a node publishes.
//!
//! [`UsageSnapshot`]: dosgi_osgi::UsageSnapshot

mod capacity;
mod module;
mod sample;

pub use capacity::NodeCapacity;
pub use module::MonitoringModule;
pub use sample::{Sampler, WindowedUsage};
