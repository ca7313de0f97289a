//! The registry transfer: how a node gets the registry it (re)started
//! without, and how the node that holds it ships it.
//!
//! *State:* [`Transfer`] — `Unsent`, `Sent`, `Overdue`, `Answered`.
//!
//! *Transitions:* the first tick orders a `Hello` with the node's digest
//! (`Unsent → Sent`); a stranded sweep marks it overdue (`Sent →
//! Overdue`), and every later sweep asks again with `retry: true`. Applying
//! a `RegistryTransfer` whose `to` names the node or — booted with the
//! group — its own `Hello` with nothing ordered before it, makes it
//! `Answered`. The other direction is one message with three senders: the
//! lowest member already in the view ships every record to the joiners of
//! each view change; the lowest other member answers a member's `Hello`
//! with what its digest lacks (every holder answers a retry); and the
//! lowest member other than a transfer's addressees ships them what moved
//! between the transfer's export and its position. Every member applies
//! each transfer the same way: correct, import, reconcile.
//!
//! *Invariant:* only an `Answered` node ships the registry, and every
//! joiner gets one transfer addressed to it, asked for until it lands.

use super::*;
use crate::registry::{self, InstanceRecord};

/// Where a node stands in getting the registry it (re)started without.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Transfer {
    /// No `Hello` ordered yet: the first tick orders one.
    Unsent,
    /// A `Hello` is out; the next stranded sweep marks it overdue.
    Sent,
    /// A stranded sweep has passed with no transfer: every sweep asks again.
    Overdue,
    /// A transfer addressed to this node has been applied, or the node
    /// booted with the group and applied its own `Hello` having missed
    /// nothing. Only such a node ships the registry to others.
    Answered,
}

impl DosgiNode {
    /// The first tick's `Hello`.
    pub(super) fn ask_first(&mut self, net: &mut impl Fabric<Wire>) {
        if self.transfer == Transfer::Unsent {
            self.transfer = Transfer::Sent;
            self.ask_for_registry(net, false);
        }
    }

    /// The stranded sweep's turn: a joiner whose transfer has not landed
    /// asks again, since the one it was owed can die with a crashing
    /// sequencer or the transfer's sender.
    pub(super) fn chase_transfer(&mut self, net: &mut impl Fabric<Wire>) {
        match self.transfer {
            Transfer::Sent => self.transfer = Transfer::Overdue,
            Transfer::Overdue => self.ask_for_registry(net, true),
            Transfer::Unsent | Transfer::Answered => {}
        }
    }

    /// Orders a `Hello`. The digest lets the answering peer ship a
    /// per-record delta instead of the full registry. A freshly restarted
    /// node has an empty registry, so its digest is empty and the delta
    /// degenerates to a full snapshot — same convergence, fewer bytes
    /// whenever the sender already holds current records.
    fn ask_for_registry(&mut self, net: &mut impl Fabric<Wire>, retry: bool) {
        let digest = self.registry.digest();
        self.order(
            net,
            AppPayload::Hello {
                node: self.id,
                digest,
                retry,
            },
            TraceRef::NONE,
        );
    }

    /// State transfer for the joiners of a view change, the one they get:
    /// the lowest-id member that was *already* in the group ships every
    /// record, addressed to them (the new coordinator may well be the
    /// freshly-restarted joiner, whose registry is empty). A member still
    /// waiting for its own transfer has nothing to ship; the joiners then
    /// ask again.
    pub(super) fn ship_to_joiners(
        &mut self,
        view: &View,
        joined: Vec<NodeId>,
        net: &mut impl Fabric<Wire>,
    ) {
        let sender = view.members.iter().find(|m| !joined.contains(m));
        if joined.is_empty() || sender != Some(&self.id) || self.awaiting_transfer() {
            return;
        }
        let phases = self.phases.clone();
        let _exporting = phases.enter(Phase::ApplyControlSync);
        let records = self.registry.records().cloned().collect();
        self.ship_transfer(net, joined.into_boxed_slice(), records, None);
    }

    /// Applies a delivered `Hello` or `RegistryTransfer`.
    pub(super) fn apply_transfer(
        &mut self,
        payload: &AppPayload,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        match payload {
            AppPayload::Hello {
                node,
                digest,
                retry,
            } => {
                if *node == self.id {
                    // A first boot that followed its stream from the first
                    // message missed nothing: it booted with the group, when
                    // every registry is empty and nobody answers. (A
                    // restarted node 0 coordinates a fresh stream of its own
                    // and follows it from the start too; it is told apart by
                    // the host state it left in the SAN.)
                    if !self.restarted && self.gcs.delivered_from_start() {
                        self.transfer = Transfer::Answered;
                    }
                } else if self.gcs.view().contains(*node) && !self.awaiting_transfer() {
                    // A member that restarted under the suspicion timeout
                    // (a node outside the view is sent the transfer of the
                    // view change that admits it): the lowest-id other
                    // member answers with what its digest lacks, so the
                    // peer is not re-sent records it holds at the current
                    // revision. A retry is answered by every member that
                    // holds the registry, even with an empty transfer, so
                    // that the asking stops; rev-gated merge-import makes
                    // the duplicates harmless.
                    let responder = self.gcs.view().members.iter().find(|m| *m != node);
                    let lowest = responder == Some(&self.id) && !self.registry.is_empty();
                    if *retry || lowest {
                        let (upserts, removes) = self.registry.export_delta(digest);
                        if *retry || !upserts.is_empty() || !removes.is_empty() {
                            self.ship_transfer(net, Box::new([*node]), upserts, Some(removes));
                        }
                    }
                }
            }
            AppPayload::RegistryTransfer {
                to,
                upserts,
                removes,
            } => {
                // Every member merges the same records (rev-gated upserts,
                // rev-equality-guarded removals) at the same logical
                // instant, then reconciles local instances against them
                // (partition heal).
                self.correct_transfer(net, upserts, to);
                self.phases.count_in(Phase::ApplyControlSync, || {
                    self.registry.import(upserts, removes)
                });
                self.reconcile_with_registry(now);
                if to.contains(&self.id) {
                    self.transfer = Transfer::Answered;
                }
            }
            _ => {}
        }
    }

    /// Ships the addressees of a transfer what moved since it was taken.
    /// A transfer carries records as they stood where its sender took it:
    /// at the view change, or at the `Hello` it answers. A write ordered
    /// between that point and the transfer's own position reached every
    /// member, but the transfer then undoes it: an addressee that passed
    /// over a record it did not have yet is left a revision behind, and a
    /// record removed in between comes back wherever the transfer is
    /// imported. The lowest member that is not an addressee ships what
    /// moved since the shipped records, as its own registry reads, in a
    /// transfer of its own to the first addressee — corrected the same way
    /// should it be overtaken in turn. Within one view's history every
    /// member applies the same stream, so that member sees the gap the
    /// addressees have. Across a merge it need not: the transfer can come
    /// from the other side, whose writes that member never saw, and then
    /// nothing is corrected (seed 1905's trace, ROADMAP item 1(a), step 6).
    /// The gap is read on that member, so an addressee's own newer records
    /// (the other side of a healed partition) are none of it. Nothing
    /// moved, nothing is sent. Called before the transfer is imported.
    fn correct_transfer(
        &mut self,
        net: &mut impl Fabric<Wire>,
        shipped: &[InstanceRecord],
        addressees: &[NodeId],
    ) {
        let sender = self
            .gcs
            .view()
            .members
            .iter()
            .find(|m| !addressees.contains(m));
        let Some(&to) = addressees.first() else {
            return;
        };
        if sender != Some(&self.id) || self.awaiting_transfer() {
            return;
        }
        let (moved, gone) = self.registry.moved_since(shipped);
        if !moved.is_empty() || !gone.is_empty() {
            self.ship_transfer(net, Box::new([to]), moved, Some(gone));
        }
    }

    /// Orders a `RegistryTransfer` of `upserts` and `removes` to `to`. A
    /// view change's transfer is every record and has no removes (`None`):
    /// it counts on `registry.sync_bytes` as the registry's export would
    /// encode. Any other carries a removes list, even an empty one, and
    /// counts both lists on `registry.delta_bytes`.
    fn ship_transfer(
        &mut self,
        net: &mut impl Fabric<Wire>,
        to: Box<[NodeId]>,
        upserts: Vec<InstanceRecord>,
        removes: Option<Vec<(Arc<str>, u64)>>,
    ) {
        let records_len = registry::records_len(&upserts);
        let (sent, len) = match &removes {
            None => (&self.metrics.registry_sync_bytes, records_len),
            Some(removes) => (
                &self.metrics.registry_delta_bytes,
                records_len + registry::removes_len(removes),
            ),
        };
        sent.add(len as u64);
        let transfer = AppPayload::RegistryTransfer {
            to,
            upserts,
            removes: removes.unwrap_or_default().into_boxed_slice(),
        };
        self.order(net, transfer, TraceRef::NONE);
    }
}
