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
//! * **reliable FIFO broadcast** — per-sender sequence numbers,
//!   negative-acknowledgement retransmission, duplicate suppression;
//! * **total-order broadcast** — a coordinator-sequenced stream (the
//!   classic fixed-sequencer construction): because the sequencer's own
//!   stream is FIFO-reliable, all correct members deliver ordered messages
//!   in the same global order. The migration layer uses this to agree on
//!   failover placements without a central authority.
//!
//! Split-brain caveat: during a partition each side may install its own
//! view. The crate exposes [`View::has_majority`] so the layer above only
//! *acts* (migrates customers) in a primary partition — the standard
//! primary-component discipline.

mod config;
mod metrics;
mod node;
mod view;
pub mod wire;

pub use config::GcsConfig;
pub use node::{GcsEvent, GroupNode, RETAINED_AT_QUIESCENCE};
pub use view::{View, ViewId};
pub use wire::{decode_frame, encode_frame, GcsWire, WIRE_VERSION};
