//! Hot swap: in-place bundle upgrades of local instances.
//!
//! *State:* the upgrade tickets (per request: instance, new manifest,
//! failed attempts, due instant), the open `upgrade/` roots keyed by
//! instance and bundle, and the ended root of each instance's last
//! completed upgrade.
//!
//! *Transitions:* `request_upgrade` opens (or reuses) the root and queues
//! a ticket due after the modeled blackout. At the swap instant the ticket
//! either lands — `BundleUpgraded`, the root ended with its `u_quiesce/`,
//! `u_persist/` and `u_adopt/` children — or, on a transient SAN failure,
//! is retried under `RETRY` with the old revision serving and the root
//! left open. It fails, ending the root, when the instance is no longer
//! here, when the failure is permanent, or when the retries are
//! exhausted.
//!
//! *Invariant:* one root per upgrade however many attempts it takes,
//! ended exactly once, and every failure counted in `core.upgrade.failed`.

use super::*;

/// Simulated cost of the in-place revision swap during a hot bundle upgrade
/// (manifest replacement + re-wire + activator start against already-warm
/// state). The per-upgrade blackout is this plus a SAN write of the bundle's
/// dirty state — µs-scale, as opposed to the ms-scale whole-instance
/// migration path.
const UPGRADE_SWAP_COST: SimDuration = SimDuration::from_micros(150);

impl DosgiNode {
    /// Requests an in-place upgrade of the bundle named by
    /// `manifest.symbolic_name` inside local instance `name`. The swap is
    /// queued for the modeled blackout window — a SAN write of the bundle's
    /// persisted state plus a fixed revision-swap cost (150 µs) — and lands on
    /// a subsequent tick; the instance keeps serving its *other* bundles
    /// throughout, and the old revision keeps serving until the swap
    /// instant. Completion is observable as [`NodeEvent::BundleUpgraded`].
    ///
    /// Re-requesting while an earlier attempt is still retrying reuses the
    /// open `upgrade/<name>` trace root (as a failover claim reuses its
    /// root), so SAN-faulted upgrades never leak spans.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not running here.
    pub fn request_upgrade(
        &mut self,
        name: &str,
        manifest: BundleManifest,
        now: SimTime,
    ) -> Result<(), CoreError> {
        let iid = self.local(name)?;
        self.wake();
        let sn = manifest.symbolic_name.to_string();
        let name = self.shared_name(name);
        self.upgrade_roots.open(
            &self.recorder,
            (Arc::clone(&name), sn.clone()),
            SpanName::of("upgrade", &name),
            now.as_micros(),
        );
        let blackout = self.swap_persist_cost(iid, &sn) + UPGRADE_SWAP_COST;
        self.upgrades.push(now + blackout, name, manifest);
        Ok(())
    }

    /// The modeled SAN write of bundle `sn`'s persisted state in instance
    /// `iid`.
    fn swap_persist_cost(&self, iid: InstanceId, sn: &str) -> SimDuration {
        let state_bytes = self.mgr.instance(iid).map_or(0, |i| {
            let ns = i.descriptor.state_namespace_text();
            namespace_bytes(&self.store, format_args!("{ns}/data/{sn}"))
        });
        self.kit.config.san.write_cost(state_bytes)
    }

    pub(super) fn process_pending_upgrades(&mut self, now: SimTime) {
        while let Some(t) = self.upgrades.take_due(now) {
            let sn = t.work.symbolic_name.to_string();
            let key = (Arc::clone(&t.name), sn.clone());
            let now_us = now.as_micros();
            // The instance may have migrated away or crashed between the
            // request and the swap instant: abandon the ticket.
            let Some(iid) = self.mgr.find_by_name(&t.name) else {
                let error = "instance no longer placed here".to_owned();
                self.fail_upgrade(t, sn, &key, error, now);
                continue;
            };
            let persist_cost = self.swap_persist_cost(iid, &sn);
            let blackout = persist_cost + UPGRADE_SWAP_COST;
            match self.mgr.upgrade_bundle(iid, &sn, t.work.clone()) {
                Ok(report) => {
                    // Stamp the handoff phases under the upgrade root with
                    // their modeled µs offsets: quiesce is synchronous,
                    // persist pays the SAN write, the new revision's adopt
                    // starts strictly after persist ends (the ordering
                    // trace_check's upgrade rules pin).
                    let root = self.upgrade_roots.take(&key);
                    let bundle: Arc<str> = sn.as_str().into();
                    let stamp = |phase, start_us, end_us| {
                        let span =
                            self.recorder
                                .child_of(root, SpanName::of(phase, &bundle), start_us);
                        self.recorder.end(span, end_us);
                    };
                    let persist_end = now_us + persist_cost.as_micros();
                    let adopt_end = now_us + blackout.as_micros();
                    stamp("u_quiesce", now_us, now_us);
                    stamp("u_persist", now_us, persist_end);
                    stamp("u_adopt", persist_end, adopt_end);
                    self.recorder.end(root, adopt_end);
                    self.finished_upgrade_traces
                        .insert(Arc::clone(&t.name), root);
                    self.metrics.upgrade_completed.incr();
                    self.metrics
                        .upgrade_blackout_us
                        .record(blackout.as_micros());
                    self.events.push(NodeEvent::BundleUpgraded {
                        at: now,
                        name: t.name,
                        bundle: sn,
                        from: report.from,
                        to: report.to,
                        blackout,
                    });
                }
                Err(e) if e.is_transient_store() => match self.upgrades.retry(t, now) {
                    // The framework rolled the old revision back; it keeps
                    // serving during the backoff, and the upgrade root
                    // stays open for the retry to continue.
                    Ok((name, attempt, _)) => {
                        self.metrics.upgrade_retries.incr();
                        self.events.push(NodeEvent::UpgradeRetried {
                            at: now,
                            name: Arc::clone(name),
                            bundle: sn,
                            attempt,
                            error: e.to_string(),
                        });
                    }
                    Err(t) => self.fail_upgrade(t, sn, &key, e.to_string(), now),
                },
                Err(e) => self.fail_upgrade(t, sn, &key, e.to_string(), now),
            }
        }
    }

    /// Gives up on an upgrade: ends its root, counts it and reports it.
    fn fail_upgrade(
        &mut self,
        t: Ticket<BundleManifest>,
        bundle: String,
        key: &(Arc<str>, String),
        error: String,
        now: SimTime,
    ) {
        self.recorder
            .end(self.upgrade_roots.take(key), now.as_micros());
        self.metrics.upgrade_failed.incr();
        self.events.push(NodeEvent::UpgradeFailed {
            at: now,
            name: t.name,
            bundle,
            error,
        });
    }
}
