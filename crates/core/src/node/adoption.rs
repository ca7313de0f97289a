//! Adoption: bringing an instance up here from its SAN state, after a
//! hand-off, a failover claim or a heal.
//!
//! *State:* the adoption tickets (per instance: reason, failed attempts,
//! `adopt/` span, due instant), the open claim roots, and the registry
//! record's status (`Placed`, `Orphaned`, `Quarantined`).
//!
//! *Transitions:*
//! - *claim.* In a primary view, each survivor assigns the orphans the
//!   same way from the same registry and view, and orders `Adopted { node:
//!   self, prior_home }` for those assigned to it: on a view change that
//!   removed members, and again on every stranded sweep until the registry
//!   converges. Once the SAN answers, the sweep re-claims every
//!   quarantined instance homed here the same way (`prior_home: self`,
//!   the heal).
//! - *resolve.* A delivered `Adopted` ends this node's open claim root for
//!   the instance. If the claim won, the winner queues a ticket (unless the
//!   instance runs or is queued here already) and any other node drops its
//!   stale copy.
//! - *queue.* A `Released` addressed here, a winning claim, or a transfer
//!   that homes a missing instance here queues a ticket, due after the
//!   modeled SAN read and start cost.
//! - *materialize.* A due ticket is checked against the registry: still
//!   homed here and `Placed`, or overruled. A transient failure, or a
//!   restore that left bundles dead, is retried under `RETRY`; once that is
//!   exhausted the instance is quarantined, cluster-wide. Any other
//!   failure is reported.
//!
//! *Invariant:* a ticket materializes only while the registry homes its
//! instance here and `Placed`, and the first claim per orphan in the total
//! order wins on every node alike.

use super::*;
use crate::placement;

/// An adoption ticket's work: why the instance comes here, and the causal
/// `adopt/<name>` span, if the triggering control message carried a
/// context; closed when the ticket materializes, is overruled, fails or
/// quarantines.
pub(super) struct Adoption {
    reason: AdoptReason,
    trace: TraceRef,
}

impl DosgiNode {
    /// Level-triggered failover: periodically claim any instance whose
    /// placement points at a node outside the current view. The
    /// edge-triggered path (view changes) catches ordinary crashes; this
    /// sweep catches the races it cannot — e.g. a `Migrate` sequenced
    /// *after* the destination's death was already processed, which leaves
    /// a record homed on a dead node with no further view change to react
    /// to. Claims stay race-free: they carry the observed dead home and
    /// the first one in the total order wins everywhere.
    pub(super) fn sweep_stranded(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if self.state != NodeState::Running {
            return;
        }
        if now < self.sweep_due {
            return;
        }
        self.sweep_due = now + STRANDED_SWEEP_INTERVAL;
        self.chase_transfer(net);
        let view = self.gcs.view();
        if !self.is_primary(view) {
            return;
        }
        let outside = |n| !view.contains(n);
        // Also retry plain `Orphaned` records whose home is back *inside*
        // the view: a spurious suspicion (message loss) can orphan a record
        // and lose the claim in the view churn, after which the home's
        // rejoin means no further view change will ever re-trigger
        // failover. The claim rules keep this race-free — a claim against
        // an `Orphaned` record wins exactly once in the total order.
        let stranded = self.registry.records().any(|r| r.depends_on(outside));
        if stranded || self.registry.has_orphans() {
            self.registry.orphan_homes(outside);
            self.handle_failover(net);
        }
        self.release_handoffs_without_a_source(net);
        self.heal_quarantined(net);
    }

    /// §3.2's decentralized redeployment, once the stranded records are
    /// marked: every survivor computes the same assignment from the same
    /// replicated registry and agreed view, then *claims* (via the total
    /// order) only the instances assigned to itself. The first claim per
    /// orphan wins on every node alike.
    pub(super) fn handle_failover(&mut self, net: &mut impl Fabric<Wire>) {
        let phases = self.phases.clone();
        let _claiming = phases.enter(Phase::ApplyControlClaims);
        // Claim both newly-orphaned records AND records still sitting in
        // Orphaned (an earlier claim may have been lost or overwritten):
        // the sweep retries until the registry converges.
        if !self.registry.has_orphans() || self.state != NodeState::Running {
            return;
        }
        let mut candidates = self.placement_candidates();
        candidates.push(self.id);
        candidates.sort();
        let assignment = placement::assign_all(&candidates, &self.registry);
        self.metrics
            .placement_decisions
            .add(assignment.len() as u64);
        for (name, dest) in assignment {
            if dest == self.id {
                let prior_home = self.registry.record(&name).map_or(self.id, |r| r.home);
                self.claim(&name, prior_home, "failover", net);
            }
        }
    }

    /// The healing half of quarantine: once the SAN answers again, re-claim
    /// every quarantined instance homed here via the total order
    /// (`prior_home: self` makes the claim valid on every replica) — the
    /// winning claim flips the record back to `Placed` and the normal
    /// adoption path re-materializes the instance from the SAN.
    fn heal_quarantined(&mut self, net: &mut impl Fabric<Wire>) {
        if !self.store.is_available() {
            return;
        }
        let healable: Vec<Arc<str>> = self
            .registry
            .quarantined_on(self.id)
            .filter(|name| !self.adoptions.holds(name))
            .cloned()
            .collect();
        for name in healable {
            self.claim(&name, self.id, "heal", net);
        }
    }

    /// Orders this node's claim on `name`, whose home was `prior_home`,
    /// under the open claim root: an earlier claim still unresolved (the
    /// sweep retries lost claims) lends its root, otherwise a fresh
    /// `<kind>/<name>` root is opened.
    fn claim(
        &mut self,
        name: &Arc<str>,
        prior_home: NodeId,
        kind: &'static str,
        net: &mut impl Fabric<Wire>,
    ) {
        let now_us = net.now().as_micros();
        let root = self.claim_roots.open(
            &self.recorder,
            Arc::clone(name),
            SpanName::of(kind, name),
            now_us,
        );
        self.order(
            net,
            AppPayload::Adopted {
                name: Arc::clone(name),
                node: self.id,
                prior_home,
            },
            root,
        );
    }

    /// Applies a delivered claim of `name` by `node`.
    pub(super) fn resolve_claim(
        &mut self,
        name: &str,
        node: NodeId,
        now: SimTime,
        trace: Option<TraceContext>,
    ) {
        // Any delivered claim for `name` resolves the race this node's own
        // claim (if any) was part of: end its root.
        self.recorder
            .end(self.claim_roots.take(name), now.as_micros());
        // Decide by post-application state: did this claim win?
        let won = self
            .registry
            .record(name)
            .is_some_and(|r| r.placed_on() == Some(node));
        if !won {
            return;
        }
        if node == self.id {
            if !self.probe_local(name) && !self.adoptions.holds(name) {
                self.adopt(name, AdoptReason::Failover, now, trace);
            }
        } else if self.mgr.find_by_name(name).is_some() {
            // A stale local copy (healed partition / lost race): the total
            // order says it lives elsewhere.
            self.drop_local(name);
        }
    }

    /// Destroys a stale local copy (keeping the SAN state — the instance
    /// lives on elsewhere).
    fn drop_local(&mut self, name: &str) {
        if let Some(iid) = self.mgr.find_by_name(name) {
            let _ = self.mgr.stop_instance(iid);
            let _ = self.mgr.destroy_instance(iid, false);
        }
        self.forget_local(name);
    }

    /// After importing an authoritative registry snapshot, converge the
    /// local state to it in both directions: local copies the registry
    /// homes elsewhere are stale and dropped; instances the registry homes
    /// *here* but that are not running locally are (re-)adopted from the
    /// SAN. The second direction is what makes merge-time sync storms
    /// self-healing: whatever snapshot ends up last in the total order,
    /// its designated home re-materializes the instance.
    pub(super) fn reconcile_with_registry(&mut self, now: SimTime) {
        let stale: Vec<String> = self
            .mgr
            .instances()
            .map(|i| &i.descriptor.name)
            .filter(|name| {
                // An instance with no record at all is kept: it may be a
                // local deploy whose `Deployed` is still in flight.
                self.registry
                    .record(name)
                    .is_some_and(|r| r.home != self.id)
            })
            .cloned()
            .collect();
        for name in stale {
            self.drop_local(&name);
        }
        let missing: Vec<Arc<str>> = self
            .registry
            .records()
            .filter(|r| {
                r.placed_on() == Some(self.id)
                    && !self.probe_local(&r.name)
                    && !self.adoptions.holds(&r.name)
            })
            .map(|r| Arc::clone(&r.name))
            .collect();
        for name in missing {
            self.adopt(&name, AdoptReason::Failover, now, None);
        }
    }

    /// Queues an adoption: re-materializing an instance costs simulated
    /// time — a SAN read of its persisted state plus a start cost per
    /// bundle. §3.2: *"The cost of this operation is therefore comparable
    /// to a normal startup of the platform, probably less, as we already
    /// have the basic services deployed on the underlying framework."*
    /// A pre-created hot standby (see [`crate::replication`]) skips the
    /// install half and pays only the start cost.
    pub(super) fn adopt(
        &mut self,
        name: &str,
        reason: AdoptReason,
        now: SimTime,
        ctx: Option<TraceContext>,
    ) {
        let phases = self.phases.clone();
        let _queueing = phases.enter(Phase::ApplyControlQueue);
        let Some(rec) = self.registry.record(name) else {
            return;
        };
        let state_bytes = namespace_bytes(&self.store, rec.descriptor.state_namespace_text());
        let bundles = rec.descriptor.bundles.len() as u64;
        let name = Arc::clone(&rec.name);
        let standby = self.mgr.find_by_name(&name).is_some();
        let cost = if standby {
            // Bundles already installed: pay only the start sweep.
            (START_COST_PER_BUNDLE / 2) * bundles
        } else {
            self.kit.config.san.read_cost(state_bytes) + START_COST_PER_BUNDLE * bundles
        };
        let trace = match ctx {
            Some(c) => self
                .recorder
                .child(c, SpanName::of("adopt", &name), now.as_micros()),
            None => TraceRef::NONE,
        };
        self.adoptions
            .push(now + cost, name, Adoption { reason, trace });
    }

    pub(super) fn process_pending_adoptions(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        while let Some(t) = self.adoptions.take_due(now) {
            // A queued adoption can be invalidated by messages ordered
            // *after* it was queued: a replayed snapshot may have enqueued
            // it, then a later claim re-homed the instance elsewhere (or an
            // undeploy removed it). Materializing a stale ticket would
            // create a second live copy, so re-check the replicated
            // registry at materialization time and drop tickets the total
            // order has since overruled.
            let still_ours = self
                .registry
                .record(&t.name)
                .filter(|r| r.placed_on() == Some(self.id))
                .map(|r| Rc::clone(&r.descriptor));
            let Some(descriptor) = still_ours else {
                self.recorder.end(t.work.trace, now.as_micros());
                self.metrics.adopt_overruled.incr();
                continue;
            };
            let outcome = match self.mgr.find_by_name(&t.name) {
                // Hot standby or a previous partially-restored attempt:
                // already installed, just (re)start it.
                Some(iid) => self.mgr.start_instance(iid).map(|_| iid),
                None => self.mgr.adopt_instance(descriptor),
            };
            match outcome {
                Ok(iid) => {
                    // Verify the adoption: activator failures during restore
                    // are swallowed (one bad bundle must not block the
                    // rest), so a transient SAN read
                    // during state recovery leaves autostart bundles dead
                    // while the instance *looks* adopted. Such a partial
                    // re-materialization is a failed adoption: stop it
                    // (keeping it installed — the retry restarts in place,
                    // re-running the activators against the SAN) and go
                    // through the same retry/quarantine discipline.
                    let degraded = self
                        .mgr
                        .instance(iid)
                        .is_some_and(|i| !i.framework().degraded_bundles().is_empty());
                    if degraded {
                        let _ = self.mgr.stop_instance(iid);
                        self.retry_or_quarantine(
                            t,
                            "partial restore: autostart bundles failed to start".to_owned(),
                            true,
                            net,
                            now,
                        );
                    } else {
                        self.recorder.end(t.work.trace, now.as_micros());
                        self.events.push(NodeEvent::Adopted {
                            at: now,
                            name: t.name,
                            reason: t.work.reason,
                        });
                    }
                }
                Err(e) => {
                    self.retry_or_quarantine(t, e.to_string(), e.is_transient_store(), net, now)
                }
            }
        }
    }

    /// A materialization attempt failed. Transient failures are retried
    /// with exponential backoff + jitter on the simulated clock until the
    /// [`RetryPolicy`](dosgi_san::RetryPolicy) is exhausted, at which point
    /// the instance is **quarantined** — announced cluster-wide so every
    /// registry marks it down-but-owned — rather than panicking the node or
    /// flapping forever. Non-transient failures (corrupt snapshot, unknown
    /// bundle) surface immediately as `AdoptFailed`.
    fn retry_or_quarantine(
        &mut self,
        t: Ticket<Adoption>,
        error: String,
        transient: bool,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        if !transient {
            self.recorder.end(t.work.trace, now.as_micros());
            self.events.push(NodeEvent::AdoptFailed {
                at: now,
                name: t.name,
                error,
            });
            return;
        }
        let t = match self.adoptions.retry(t, now) {
            Ok((name, attempt, backoff)) => {
                self.metrics.san_retries.incr();
                self.metrics
                    .san_retry_backoff_us
                    .record(backoff.as_micros());
                self.events.push(NodeEvent::AdoptRetried {
                    at: now,
                    name: Arc::clone(name),
                    attempt,
                    error,
                });
                return;
            }
            Err(exhausted) => exhausted,
        };
        self.metrics.san_quarantines.incr();
        self.events.push(NodeEvent::Quarantined {
            at: now,
            name: t.name.clone(),
        });
        // The quarantine announcement continues the adoption's trace: the
        // eventual heal re-claim starts a new root, but this stamps where
        // the causal chain ended.
        let trace = t.work.trace;
        self.order(
            net,
            AppPayload::Quarantined {
                name: t.name,
                node: self.id,
            },
            trace,
        );
        self.recorder.end(trace, now.as_micros());
    }
}
