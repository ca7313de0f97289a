//! # dosgi-gcs — group communication
//!
//! §3.2 of the paper requires a group communication system (it cites jGCS):
//!
//! > *"To address most of these issues in a dependable way we clearly need a
//! > group communication system (GCS) … Using a GCS and more particularly
//! > its membership service we have for free the knowledge of all the
//! > available nodes."*
//!
//! This crate provides that service over the `dosgi-net` simulator:
//!
//! * **failure detection** — periodic heartbeats; a peer silent for longer
//!   than the timeout is suspected ([`GcsConfig`]);
//! * **membership views** ([`View`]) — agreed via a coordinator-driven
//!   propose/ack/commit protocol; every membership change (join, graceful
//!   leave, crash) produces a [`GcsEvent::ViewChange`] carrying exactly the
//!   joined/left sets the paper's Migration Module reacts to;
//! * **total-order broadcast** — the one broadcast: a coordinator-sequenced
//!   stream (the classic fixed-sequencer construction). The sequencer sends
//!   each ordered message point to point to every member; a member that
//!   sees a gap, or a sequencer heartbeat whose head is past its cursor, asks
//!   for replay, and one that joins a stream already under way is re-based
//!   past the history its state transfer covers. Members acknowledge on
//!   their heartbeats, and the sequencer forgets what all have delivered.
//!   So all members of a stable view deliver the same messages in the same
//!   global order, and every control message of the layers above travels
//!   this way. The migration layer uses it to agree on failover placements
//!   without a central authority.
//!
//! Split-brain caveat: during a partition each side may install its own
//! view. The crate exposes [`View::has_majority`] so the layer above only
//! *acts* (migrates customers) in a primary partition — the standard
//! primary-component discipline.

mod config;
mod metrics;
mod node;
mod view;
mod wire;

pub use config::GcsConfig;
pub use node::{GcsEvent, GroupNode, RETAINED_AT_QUIESCENCE};
pub use view::{View, ViewId};
pub use wire::GcsWire;
