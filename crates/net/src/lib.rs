//! # dosgi-net — deterministic simulated cluster network
//!
//! This crate is the lowest substrate of the `dosgi` reproduction of
//! *"Dependable Distributed OSGi Environment"* (Matos & Sousa, MW4SOC 2008).
//! The paper assumes a physical LAN connecting the nodes that host OSGi
//! frameworks; for a reproducible laptop-scale evaluation we replace the LAN
//! with a **deterministic discrete-event network simulator**.
//!
//! The simulator provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with microsecond
//!   resolution, advanced explicitly by the experiment driver;
//! * [`SimNet`] — a message-passing fabric between [`NodeId`]s with
//!   configurable per-link latency, jitter and loss ([`LinkConfig`]),
//!   crash-stop node failures, and network partitions;
//! * [`IpBindings`] — the virtual-IP table used by the paper's service
//!   localization schemes (Figure 5: unique IP per service that is released
//!   by the old node and bound by the new one; Figure 6: shared IPs fronted
//!   by an ipvs layer, built in the `dosgi-ipvs` crate on top of this);
//! * delivery statistics and a seeded RNG so that every experiment
//!   is exactly reproducible.
//!
//! Since PR 9 the crate also hosts the **runtime-backend abstraction**: the
//! [`Fabric`] trait (clock + send + drain) that every upper layer codes
//! against, with two implementations — the deterministic [`SimNet`] above,
//! and a real-clock, really-concurrent backend ([`RealNet`] /
//! [`RealEndpoint`], one `std::thread` per node over `mpsc` channels,
//! timestamps from a shared monotonic [`RealClock`]). See DESIGN.md §10.
//!
//! # Example
//!
//! ```
//! use dosgi_net::{LinkConfig, NodeId, SimDuration, SimNet};
//!
//! let mut net: SimNet<&'static str> = SimNet::new(LinkConfig::lan(), 42);
//! let a = net.register_node();
//! let b = net.register_node();
//! net.send(a, b, "hello");
//! net.advance(SimDuration::from_millis(5));
//! let envelope = net.recv(b).expect("delivered within LAN latency");
//! assert_eq!(envelope.payload, "hello");
//! assert_eq!(envelope.from, a);
//! ```

mod addr;
mod clock;
mod config;
mod fabric;
mod id;
mod rt;
mod sim;
mod stats;
mod time;
mod topology;

pub use addr::{BindError, IpAddr, IpBindings, Port, SocketAddr};
pub use clock::RealClock;
pub use config::LinkConfig;
pub use fabric::Fabric;
pub use id::NodeId;
pub use rt::{RealEndpoint, RealNet};
pub use sim::{Envelope, SimNet};
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
pub use topology::Partition;
