//! The hand-off and the drain: the Migration Module's planned moves.
//!
//! *State:* per instance, the record's `Migrating { to }` status and the
//! source's local copy; per node, [`NodeState`] and the drain under way
//! (`drain`: where it ends, `Stopped` or `Hibernated`, and its root).
//!
//! *Transitions:* `migrate_away` orders a `Migrate`. The source applies it
//! by releasing: quiesce, persist, drop the local copy, order `Released`.
//! The destination applies the `Released` by queueing an adoption (the
//! adoption machine). A source that restarted inside the suspicion
//! timeout and so has nothing to release for a record still `Migrating`
//! from it orders the `Released` itself on its stranded sweep. A drain
//! orders `Draining`, then migrates every local instance to one chosen
//! destination: a shutdown moves the node `Running → Draining`, a
//! hibernation keeps it `Running` (it goes on claiming failovers while it
//! drains). Once the node is empty and nothing it ordered is unsequenced,
//! it leaves the group and enters the drain's end state.
//!
//! *Invariant:* a release span ends before the `Released` it orders, so an
//! adoption is Lamport-after its release; a draining node leaves only
//! empty and with its ordered stream flushed, so no hand-off it made is
//! stranded.

use super::*;
use crate::placement;

impl DosgiNode {
    /// Requests migration of a locally-placed instance to `to`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not here,
    /// [`CoreError::BadMigration`] for a self-destination.
    pub fn migrate_away(
        &mut self,
        name: &str,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
    ) -> Result<(), CoreError> {
        self.migrate_away_traced(name, to, net, TraceRef::NONE)
    }

    /// Like [`migrate_away`](Self::migrate_away) but attaching the minted
    /// `migrate/<name>` span under `parent` (a drain root, say) instead of
    /// starting a fresh trace. The span closes as soon as the `Migrate` is
    /// handed to the total order — the release and adoption phases attach
    /// to it causally via the propagated context.
    fn migrate_away_traced(
        &mut self,
        name: &str,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
        parent: TraceRef,
    ) -> Result<(), CoreError> {
        if to == self.id {
            return Err(CoreError::BadMigration("destination is the source".into()));
        }
        self.local(name)?;
        self.wake();
        let name = self.shared_name(name);
        let now_us = net.now().as_micros();
        let span_name = SpanName::of("migrate", &name);
        let span = if parent.is_some() {
            self.recorder.child_of(parent, span_name, now_us)
        } else {
            self.recorder.root(span_name, now_us)
        };
        let from = self.id;
        self.order(net, AppPayload::Migrate { name, from, to }, span);
        self.recorder.end(span, now_us);
        Ok(())
    }

    /// The least-loaded other member not draining, if any.
    pub(super) fn choose_destination(&self) -> Option<NodeId> {
        placement::choose(
            &self.placement_candidates(),
            &self.registry,
            &BTreeMap::new(),
        )
    }

    /// The other members of the view that are not draining.
    pub(super) fn placement_candidates(&self) -> Vec<NodeId> {
        self.gcs
            .view()
            .members
            .iter()
            .filter(|m| **m != self.id && !self.draining_peers.contains(m))
            .copied()
            .collect()
    }

    /// The source's half of a hand-off: quiesce, persist, drop the local
    /// copy and order the `Released` that lets the destination adopt.
    pub(super) fn release_instance(
        &mut self,
        name: &Arc<str>,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
        ctx: Option<TraceContext>,
    ) {
        let Some(iid) = self.mgr.find_by_name(name) else {
            return;
        };
        let phases = self.phases.clone();
        let _releasing = phases.enter(Phase::Release);
        let now_us = now.as_micros();
        let rel = match ctx {
            Some(c) => self
                .recorder
                .child(c, SpanName::of("release", name), now_us),
            None => TraceRef::NONE,
        };
        // Quiesce: stop the instance (in-flight work completes — the sim's
        // stop is synchronous, so this phase costs no simulated time).
        let quiesce = self
            .recorder
            .child_of(rel, SpanName::of("quiesce", name), now_us);
        let _ = self.mgr.stop_instance(iid);
        self.recorder.end(quiesce, now_us);
        // Persist: tear down the local copy, flushing its state to the SAN
        // (kept — the instance lives on at the destination).
        let persist = self
            .recorder
            .child_of(rel, SpanName::of("persist", name), now_us);
        let _ = self.mgr.destroy_instance(iid, false);
        self.recorder.end(persist, now_us);
        self.forget_local(name);
        self.events.push(NodeEvent::Released {
            at: now,
            name: Arc::clone(name),
            to,
        });
        // Close the release span *before* exporting the context the
        // `Released` order carries: the destination's adopt span then
        // starts strictly Lamport-after the release ended — the invariant
        // trace_check's adopt-before-release detector leans on.
        self.recorder.end(rel, now_us);
        self.order(
            net,
            AppPayload::Released {
                name: Arc::clone(name),
                to,
            },
            rel,
        );
    }

    /// Completes hand-offs this node was the source of but can no longer
    /// release: the record is still homed here and `Migrating` to a member,
    /// yet no local copy exists — the node crashed and restarted inside the
    /// suspicion timeout, so no view change orphans the record, and it
    /// either applied the `Migrate` without a copy to stop or learnt the
    /// record by transfer after its previous life's `Released` died with
    /// it. Ordering the `Released` lets the destination adopt from the SAN,
    /// as it would after a crash. Only with nothing of this node's own in
    /// flight — nothing unsequenced, nothing delivered but not yet applied
    /// (a sequencer delivers its own orders at once and applies them on its
    /// next tick): a `Released` it ordered itself has then been applied
    /// here, and the record no longer reads `Migrating`.
    pub(super) fn release_handoffs_without_a_source(&mut self, net: &mut impl Fabric<Wire>) {
        if self.gcs.pending_orders() > 0 || self.gcs.has_events() {
            return;
        }
        let view = self.gcs.view();
        let unreleased: Vec<(Arc<str>, NodeId)> = self
            .registry
            .records()
            .filter_map(|r| match r.status {
                InstanceStatus::Migrating { to }
                    if r.home == self.id
                        && view.contains(to)
                        && self.mgr.find_by_name(&r.name).is_none() =>
                {
                    Some((Arc::clone(&r.name), to))
                }
                _ => None,
            })
            .collect();
        for (name, to) in unreleased {
            self.order(net, AppPayload::Released { name, to }, TraceRef::NONE);
        }
    }

    /// Begins a graceful shutdown: announce draining, migrate every local
    /// instance away; once empty the node leaves the group and stops
    /// (§3.2's "normal expected shutdown" path).
    pub fn begin_shutdown(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if self.state != NodeState::Running {
            return;
        }
        self.wake();
        self.state = NodeState::Draining;
        self.events.push(NodeEvent::Draining { at: now });
        self.begin_drain(NodeState::Stopped, "shutdown", net, now);
    }

    /// Starts a drain that ends in `end`: opens its root, named `label`, announces
    /// `Draining` so peers stop placing instances here, and orders every
    /// local instance away; `check_drained` ends it.
    pub(super) fn begin_drain(
        &mut self,
        end: NodeState,
        label: &'static str,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        let root = self.recorder.root(SpanName::verb(label), now.as_micros());
        self.drain = Some(Drain { end, root });
        self.order(net, AppPayload::Draining { node: self.id }, root);
        let locals: Vec<String> = self
            .mgr
            .instances()
            .map(|i| i.descriptor.name.clone())
            .collect();
        // Ordering a migration writes no registry, so one choice holds for
        // the whole drain.
        let Some(dest) = self.choose_destination() else {
            return;
        };
        for name in locals {
            self.metrics.placement_decisions.incr();
            let _ = self.migrate_away_traced(&name, dest, net, root);
        }
    }

    /// Ends the drain once the node is empty and every control message it
    /// ordered is sequenced — leaving before its last `Released` is would
    /// strand the instance just handed off.
    pub(super) fn check_drained(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        let Some(Drain { end, root }) = self.drain else {
            return;
        };
        if !self.mgr.is_empty() || self.gcs.pending_orders() > 0 {
            return;
        }
        self.gcs.leave(net);
        self.state = end;
        self.drain = None;
        self.recorder.end(root, now.as_micros());
        self.events.push(if end == NodeState::Stopped {
            NodeEvent::Drained { at: now }
        } else {
            NodeEvent::Hibernated { at: now }
        });
    }
}
