//! # dosgi-gcs — group communication
//!
//! §3.2 of the paper requires a group communication system (it cites jGCS):
//!
//! > *"To address most of these issues in a dependable way we clearly need a
//! > group communication system (GCS) … Using a GCS and more particularly
//! > its membership service we have for free the knowledge of all the
//! > available nodes."*
//!
//! This crate provides that service over any `dosgi-net` fabric. A
//! [`GroupNode`] is three machines, each one struct in its own file with
//! its transitions; `node.rs` routes every [`GcsWire`] message to its
//! machine and ticks them in order:
//!
//! * **failure detection** (`detector.rs`) — periodic heartbeats carrying
//!   each node's incarnation; a peer silent for longer than the suspicion
//!   timeout (four heartbeat intervals, [`GcsConfig`]) is suspected, and a
//!   changed incarnation is a genuine restart;
//! * **view agreement** (`membership.rs`) — membership [`View`]s agreed via
//!   a coordinator-driven propose/ack/commit protocol, repaired by a push
//!   when a member's heartbeat shows it missed a commit; every membership
//!   change (join, graceful leave, crash) produces a
//!   [`GcsEvent::ViewChange`] carrying exactly the joined/left sets the
//!   paper's Migration Module reacts to;
//! * **total order** (`stream.rs`) — the one broadcast: a
//!   coordinator-sequenced stream (the classic fixed-sequencer
//!   construction), in three parts. The origin's queue keeps one request
//!   outstanding. The sequencer numbers each [`Sequenced`] message and sends
//!   it point to point to every member. A member's cursor asks for replay
//!   when it sees a gap, or a sequencer heartbeat whose head is past it, and
//!   one that joins a stream already under way is re-based past the history
//!   its state transfer covers. Members acknowledge on their heartbeats, and
//!   the sequencer forgets what all have delivered. So all members of a
//!   stable view deliver the same messages in the same global order, and
//!   every control message of the layers above travels this way. The
//!   migration layer uses it to agree on failover placements without a
//!   central authority.
//!
//! Split-brain caveat: during a partition each side may install its own
//! view. The crate exposes [`View::has_majority`] so the layer above only
//! *acts* (migrates customers) in a primary partition — the standard
//! primary-component discipline.

mod config;
mod detector;
mod membership;
mod metrics;
mod node;
mod stream;
mod view;
mod wire;

pub use config::GcsConfig;
pub use node::{GcsEvent, GroupNode};
pub use stream::{Sequenced, RETAINED_AT_QUIESCENCE};
pub use view::{View, ViewId};
pub use wire::GcsWire;
