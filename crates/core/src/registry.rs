//! The replicated instance registry.
//!
//! §3.2, issue 1: *"Knowledge of the available nodes and its resources …
//! by exchanging messages with information about the virtual instances
//! running on each node, we reliably address issue number 1."*
//!
//! Every node holds a copy of this registry and mutates it **only** by
//! applying the totally-ordered [`AppPayload`](crate::AppPayload) stream,
//! so all copies stay identical — which is what lets failover placement be
//! computed independently yet identically on every survivor, and what makes
//! failover *claims* race-free: the first claim for an orphan in the total
//! order wins everywhere; later claims are ignored everywhere.
//!
//! A registry travels between nodes as typed records in a
//! `RegistryTransfer`: a view change's carries them all, a `Hello`'s answer
//! the ones a digest lacks, a correction the ones that moved. A record's
//! name (an `Arc<str>`) and its descriptor (an `Rc`) are both made once by
//! the deploying node and carried by its `Deployed`, so every copy of the registry, every
//! transfer and every digest shares them, as does every later message,
//! event and trace span that names the instance.
//! [`export`](ClusterRegistry::export) is the one serialized rendering; a
//! transfer's reported size is that rendering's encoded length.
//!
//! Records are found by hash and walked in name order: a hash table holds
//! them by name, for the lookup every request's routing makes, and a sorted
//! list beside it holds the same names, the order every walk, export and
//! digest reads.

use crate::msg::AppPayload;
use dosgi_net::{FxHashMap, NodeId};
use dosgi_san::codec::{field_len, header_len, int_len, str_len};
use dosgi_san::Value;
use dosgi_vosgi::{ChangeLog, InstanceDescriptor};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Where an instance is in its placement life-cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceStatus {
    /// Running on its home node.
    Placed,
    /// A migration was ordered; the source is stopping it.
    Migrating {
        /// The destination node.
        to: NodeId,
    },
    /// Its home crashed (or a migration was stranded); awaiting a failover
    /// claim.
    Orphaned,
    /// Its home exhausted its retry budget re-materializing it (persistent
    /// SAN faults). The record is kept — homed on the quarantining node —
    /// but the instance is known-down until the SAN heals, when the home
    /// re-claims it (`Adopted { prior_home: self }`).
    Quarantined,
}

impl InstanceStatus {
    /// The export format's `status` field, and its `to` field if any.
    fn fields(self) -> (&'static str, Option<NodeId>) {
        match self {
            InstanceStatus::Placed => ("placed", None),
            InstanceStatus::Migrating { to } => ("migrating", Some(to)),
            InstanceStatus::Orphaned => ("orphaned", None),
            InstanceStatus::Quarantined => ("quarantined", None),
        }
    }
}

/// One instance's replicated record.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRecord {
    /// The instance name (unique cluster-wide), shared with the registry's
    /// key and every copy of this record.
    pub name: Arc<str>,
    /// The descriptor, policy-free, built once by the deploying node and
    /// shared by every copy of this record and every instance adopted
    /// from it.
    pub descriptor: Rc<InstanceDescriptor>,
    /// The node responsible for it.
    pub home: NodeId,
    /// Placement status.
    pub status: InstanceStatus,
    /// Revision: bumped by every *ordered* mutation that takes effect
    /// (never by local orphan marking), so it is identical on every node
    /// of a partition. Snapshot imports use it to refuse regressions: a
    /// sync exported before a claim can never overwrite the claim.
    pub rev: u64,
}

impl InstanceRecord {
    /// True if `on` picks a node this record depends on: its home and,
    /// while it migrates, its destination. A record is stranded when a
    /// node it depends on leaves, and a failover claim naming such a node
    /// as the prior home may take it.
    pub(crate) fn depends_on(&self, on: impl Fn(NodeId) -> bool) -> bool {
        match self.status {
            InstanceStatus::Migrating { to } => on(self.home) || on(to),
            _ => on(self.home),
        }
    }

    /// The node the instance runs on: its home while it is `Placed`,
    /// none otherwise.
    pub(crate) fn placed_on(&self) -> Option<NodeId> {
        (self.status == InstanceStatus::Placed).then_some(self.home)
    }
}

/// The replicated registry: apply ordered messages, query placements.
///
/// Two copies are equal when they hold the same records, however many
/// writes each took to get there.
#[derive(Debug, Clone, Default)]
pub struct ClusterRegistry {
    // Every record by its name.
    records: FxHashMap<Arc<str>, InstanceRecord>,
    // The keys of `records`, sorted: the order of every walk.
    names: Vec<Arc<str>>,
    // The names whose home, status or presence a write changed since the
    // last `clear_changed`.
    changed: ChangeLog<Arc<str>>,
}

impl PartialEq for ClusterRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl ClusterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The names whose record a write has added, removed, re-homed or
    /// given another status since the last
    /// [`clear_changed`](Self::clear_changed): every other record reads the
    /// home and status it read before. `None` when more changed than the
    /// log holds ([`CHANGE_LOG_CAPACITY`](dosgi_vosgi::CHANGE_LOG_CAPACITY)):
    /// then any record may have.
    pub fn changed(&self) -> Option<impl Iterator<Item = &str>> {
        self.changed.names()
    }

    /// Starts a new [`changed`](Self::changed) log.
    pub fn clear_changed(&mut self) {
        self.changed.clear();
    }

    /// Adds `record` under its name, which the registry must not hold,
    /// placing the name in the sorted list.
    fn insert_new(&mut self, record: InstanceRecord) {
        let at = self.names.partition_point(|held| *held < record.name);
        self.names.insert(at, Arc::clone(&record.name));
        self.records.insert(Arc::clone(&record.name), record);
    }

    /// Removes the record under `name`, which the registry holds, and its
    /// name from the sorted list.
    fn remove_held(&mut self, name: &str) {
        self.records.remove(name);
        let at = self.names.partition_point(|held| **held < *name);
        self.names.remove(at);
    }

    /// Applies one ordered control message and returns whether it wrote
    /// a record. Unknown instances in non-deploy messages are ignored
    /// (idempotent replay tolerance), and messages that lost a race
    /// against an orphaning are ignored too:
    ///
    /// * `Migrate` and `Released` — a hand-off — take effect unless the
    ///   record was orphaned in the meantime (an endpoint died), in which
    ///   case the failover claim protocol takes over;
    /// * `Adopted` is a **failover claim**: it only takes effect on an
    ///   `Orphaned` record or one that still depends on the claim's prior
    ///   home, so exactly the first claim in the total order wins, on
    ///   every node alike.
    ///
    /// `crates/core/tests/ownership_spec.rs` states each payload's rule as
    /// a model.
    pub fn apply(&mut self, msg: &AppPayload) -> bool {
        let r = match msg {
            AppPayload::Deployed {
                name,
                descriptor,
                home,
            } => {
                let held = self.records.get_mut(&**name);
                if held
                    .as_ref()
                    .is_none_or(|r| (r.home, r.status) != (*home, InstanceStatus::Placed))
                {
                    self.changed.log(Arc::clone(name));
                }
                let record = InstanceRecord {
                    name: Arc::clone(name),
                    descriptor: Rc::clone(descriptor),
                    home: *home,
                    status: InstanceStatus::Placed,
                    rev: held.as_ref().map_or(0, |r| r.rev) + 1,
                };
                match held {
                    Some(held) => *held = record,
                    None => self.insert_new(record),
                }
                return true;
            }
            AppPayload::Undeployed { name } => {
                let removed = self.records.contains_key(&**name);
                if removed {
                    self.remove_held(name);
                    self.changed.log(Arc::clone(name));
                }
                return removed;
            }
            AppPayload::Migrate { name, .. }
            | AppPayload::Released { name, .. }
            | AppPayload::Adopted { name, .. }
            | AppPayload::Quarantined { name, .. } => self.records.get_mut(&**name),
            AppPayload::Draining { .. }
            | AppPayload::Hello { .. }
            | AppPayload::RegistryTransfer { .. } => None,
        };
        let Some(r) = r else { return false };
        let (home, status) = match *msg {
            AppPayload::Migrate { to, .. } if r.status != InstanceStatus::Orphaned => {
                (r.home, InstanceStatus::Migrating { to })
            }
            AppPayload::Released { to, .. } if r.status != InstanceStatus::Orphaned => {
                (to, InstanceStatus::Placed)
            }
            // The claim wins iff the record is orphaned locally OR still
            // depends on the home the claimant saw die (this node's failure
            // detector is merely behind).
            AppPayload::Adopted {
                node, prior_home, ..
            } if r.status == InstanceStatus::Orphaned || r.depends_on(|n| n == prior_home) => {
                (node, InstanceStatus::Placed)
            }
            // Only the current home may quarantine: a stale report from a
            // node that already lost the instance (crash + re-claim raced
            // the report) must not shadow the new home's live copy.
            AppPayload::Quarantined { node, .. }
                if r.home == node && r.status != InstanceStatus::Quarantined =>
            {
                (r.home, InstanceStatus::Quarantined)
            }
            _ => return false,
        };
        if (r.home, r.status) != (home, status) {
            self.changed.log(Arc::clone(&r.name));
        }
        r.home = home;
        r.status = status;
        r.rev += 1;
        true
    }

    /// Marks every instance stranded by the departure of the nodes `gone`
    /// picks as orphaned; returns how many it marked. An instance is
    /// stranded when its home is gone or, while it migrates, its
    /// destination — a quarantined one like a placed one: a survivor claims
    /// it and runs its own adopt/retry/quarantine cycle against the SAN.
    /// [`orphans`](Self::orphans) then lists them with the ones orphaned
    /// before.
    pub fn orphan_homes(&mut self, gone: impl Fn(NodeId) -> bool) -> usize {
        let mut marked = 0;
        for name in &self.names {
            let r = self
                .records
                .get_mut(name)
                .expect("every listed name is held");
            if r.status != InstanceStatus::Orphaned && r.depends_on(&gone) {
                r.status = InstanceStatus::Orphaned;
                self.changed.log(Arc::clone(&r.name));
                marked += 1;
            }
        }
        marked
    }

    /// Looks up a record.
    pub fn record(&self, name: &str) -> Option<&InstanceRecord> {
        self.records.get(name)
    }

    /// All records, in name order.
    pub fn records(&self) -> impl Iterator<Item = &InstanceRecord> {
        self.names.iter().map(|name| &self.records[name])
    }

    /// Count of placed instances per node (the deterministic load signal
    /// placement uses).
    pub fn load_by_node(&self) -> BTreeMap<NodeId, usize> {
        let mut m = BTreeMap::new();
        for node in self.records.values().filter_map(InstanceRecord::placed_on) {
            *m.entry(node).or_insert(0) += 1;
        }
        m
    }

    /// Names of instances with [`InstanceStatus::Orphaned`], in name
    /// order, as the registry shares them.
    pub fn orphans(&self) -> impl Iterator<Item = &Arc<str>> {
        self.records()
            .filter(|r| r.status == InstanceStatus::Orphaned)
            .map(|r| &r.name)
    }

    /// Names of instances with [`InstanceStatus::Quarantined`] homed on
    /// `node`, in name order.
    pub(crate) fn quarantined_on(&self, node: NodeId) -> impl Iterator<Item = &Arc<str>> {
        self.records()
            .filter(move |r| r.status == InstanceStatus::Quarantined && r.home == node)
            .map(|r| &r.name)
    }

    /// True when some instance is [`InstanceStatus::Orphaned`].
    pub fn has_orphans(&self) -> bool {
        self.orphans().next().is_some()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no instances are registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes one record in the export format.
    fn record_value(r: &InstanceRecord) -> Value {
        let (status, to) = r.status.fields();
        let mut v = Value::map()
            .with("name", &*r.name)
            .with("descriptor", r.descriptor.to_value())
            .with("home", u64::from(r.home.0))
            .with("status", status)
            .with("rev", r.rev);
        if let Some(to) = to {
            v = v.with("to", u64::from(to.0));
        }
        v
    }

    /// Serializes the full registry: the one rendering of it as a [`Value`],
    /// which fingerprints and convergence checks compare byte for byte.
    pub fn export(&self) -> Value {
        Value::List(self.records().map(Self::record_value).collect())
    }

    /// A compact digest: `(name, rev)` for every record, in name order,
    /// sharing the names. Carried by `Hello` so a peer can answer with a
    /// per-record delta ([`export_delta`](Self::export_delta)) instead of
    /// the full registry.
    pub fn digest(&self) -> Vec<(Arc<str>, u64)> {
        self.records()
            .map(|r| (Arc::clone(&r.name), r.rev))
            .collect()
    }

    /// Computes the per-record delta that brings a registry described by
    /// `digest` (name-ordered, as [`digest`](Self::digest) returns it) up to
    /// date with this one:
    ///
    /// * **upserts** — records the digest is missing or holds at an older
    ///   revision, in name order;
    /// * **removes** — `(name, rev)` for every digest entry this registry
    ///   has no record for. `rev` echoes the digest's revision and acts as
    ///   a compare-and-swap guard at the receiver: revisions restart at 1
    ///   after an undeploy + redeploy, so revision *equality* — not `<=` —
    ///   is the only sound removal condition.
    ///
    /// Records the digest already holds at this registry's revision (or
    /// newer) are omitted entirely — the fast path that makes a
    /// steady-state hello answer near-empty.
    pub fn export_delta(
        &self,
        digest: &[(Arc<str>, u64)],
    ) -> (Vec<InstanceRecord>, Vec<(Arc<str>, u64)>) {
        let known = |name: &str| {
            let at = digest.binary_search_by(|(held, _)| (**held).cmp(name));
            at.ok().map(|i| digest[i].1)
        };
        let stale = |r: &&InstanceRecord| known(&r.name).is_none_or(|rev| rev < r.rev);
        // Counted first, so the list is allocated once, at its size.
        let mut upserts = Vec::with_capacity(self.records().filter(stale).count());
        upserts.extend(self.records().filter(stale).cloned());
        let removes = digest
            .iter()
            .filter(|(name, _)| !self.records.contains_key(name))
            .cloned()
            .collect();
        (upserts, removes)
    }

    /// What this registry has moved past since `shipped` (the records a
    /// transfer carries) was taken: the shipped records it holds at a newer
    /// revision, as upserts, and those it no longer holds, as removes
    /// guarded by the shipped revision — the delta that brings a node that
    /// imported `shipped` to where this registry stands. Both lists are
    /// empty, and nothing is allocated, when nothing moved.
    pub fn moved_since(
        &self,
        shipped: &[InstanceRecord],
    ) -> (Vec<InstanceRecord>, Vec<(Arc<str>, u64)>) {
        let (mut upserts, mut removes) = (Vec::new(), Vec::new());
        for s in shipped {
            match self.records.get(&s.name) {
                Some(r) if r.rev > s.rev => upserts.push(r.clone()),
                Some(_) => {}
                None => removes.push((Arc::clone(&s.name), s.rev)),
            }
        }
        (upserts, removes)
    }

    /// Merges a transfer into this registry. Records `upserts` does not
    /// mention are **kept**, a record it does mention is written only
    /// where it differs, and revision regressions are refused. Merge
    /// (rather than replace) semantics make sync storms safe: a stale
    /// snapshot — e.g. one exported before an in-flight `Deployed`
    /// re-sequenced — cannot wipe fresher records, and since every node
    /// applies the same transfers in the same total order, all copies
    /// still converge. A removal fires only while the local revision still
    /// *equals* its guard, the revision the sender saw (see
    /// [`export_delta`](Self::export_delta)): any ordered mutation
    /// interleaved since (a redeploy, a claim) changes the revision and
    /// voids it.
    ///
    /// A record held already is updated in place, and a descriptor it
    /// shares with the incoming record is not compared, so a member that is
    /// up to date — every member but the joiner — allocates nothing. The
    /// records this registry lacks are counted first, and the table and the
    /// name list grow once for all of them; their names and descriptors are
    /// shared, not copied.
    pub fn import(&mut self, upserts: &[InstanceRecord], removes: &[(Arc<str>, u64)]) {
        let lacking = upserts
            .iter()
            .filter(|r| !self.records.contains_key(&r.name))
            .count();
        self.records.reserve(lacking);
        self.names.reserve(lacking);
        for incoming in upserts {
            match self.records.get_mut(&incoming.name) {
                // Refuse regressions: only adopt the incoming record if it
                // is at least as fresh as ours.
                Some(local) if incoming.rev < local.rev => {}
                // An *equal* revision still writes `home` and `status`: a
                // local `Orphaned` mark bumps no revision, and this is how a
                // transfer carries one or clears it.
                Some(local) => {
                    if (local.home, local.status) != (incoming.home, incoming.status) {
                        self.changed.log(Arc::clone(&local.name));
                    }
                    local.home = incoming.home;
                    local.status = incoming.status;
                    local.rev = incoming.rev;
                    if !Rc::ptr_eq(&local.descriptor, &incoming.descriptor)
                        && local.descriptor != incoming.descriptor
                    {
                        local.descriptor = Rc::clone(&incoming.descriptor);
                    }
                }
                None => {
                    self.changed.log(Arc::clone(&incoming.name));
                    self.insert_new(incoming.clone());
                }
            }
        }
        for (name, rev) in removes {
            if self.records.get(name).is_some_and(|r| r.rev == *rev) {
                self.remove_held(name);
                self.changed.log(Arc::clone(name));
            }
        }
    }
}

/// The encoded length of `records` in the export format — of the list
/// [`export`](ClusterRegistry::export) would render them as — computed from
/// the records, with nothing built: what a transfer of them reports.
pub(crate) fn records_len(records: &[InstanceRecord]) -> usize {
    let records_len = records.iter().map(|r| {
        let (status, to) = r.status.fields();
        let to = to.map_or(0, |to| field_len("to", int_len(to.0.into())));
        header_len(5 + usize::from(to > 0))
            + field_len("name", str_len(&r.name))
            + field_len("descriptor", r.descriptor.encoded_len())
            + field_len("home", int_len(r.home.0.into()))
            + field_len("status", str_len(status))
            + field_len("rev", int_len(r.rev as i64))
            + to
    });
    header_len(records.len()) + records_len.sum::<usize>()
}

/// The encoded length of `removes` rendered as a list of `{name, rev}`
/// maps, with nothing built: what a delta's removes report.
pub(crate) fn removes_len(removes: &[(Arc<str>, u64)]) -> usize {
    let removes_len = removes.iter().map(|(name, rev)| {
        header_len(2) + field_len("name", str_len(name)) + field_len("rev", int_len(*rev as i64))
    });
    header_len(removes.len()) + removes_len.sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::{prop, prop_verify, prop_verify_eq, TestRng};
    use dosgi_vosgi::ResourceQuota;
    use std::cell::Cell;

    fn named(name: &str) -> Rc<InstanceDescriptor> {
        Rc::new(InstanceDescriptor::builder(name, name).build())
    }

    fn deployed(name: &str, home: u32) -> AppPayload {
        AppPayload::Deployed {
            name: name.into(),
            descriptor: named(name),
            home: NodeId(home),
        }
    }

    /// What a view change's transfer carries: every record, descriptors
    /// shared.
    fn transfer(r: &ClusterRegistry) -> Vec<InstanceRecord> {
        r.records().cloned().collect()
    }

    #[test]
    fn deploy_migrate_release_cycle() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        assert_eq!(r.record("a").unwrap().home, NodeId(0));
        assert_eq!(r.record("a").unwrap().status, InstanceStatus::Placed);

        r.apply(&AppPayload::Migrate {
            name: "a".into(),
            from: NodeId(0),
            to: NodeId(1),
        });
        assert_eq!(
            r.record("a").unwrap().status,
            InstanceStatus::Migrating { to: NodeId(1) }
        );
        // Released completes the move: home flips, status placed.
        r.apply(&AppPayload::Released {
            name: "a".into(),
            to: NodeId(1),
        });
        let rec = r.record("a").unwrap();
        assert_eq!(rec.home, NodeId(1));
        assert_eq!(rec.status, InstanceStatus::Placed);

        r.apply(&AppPayload::Undeployed { name: "a".into() });
        assert!(r.is_empty());
    }

    /// The names logged since the last look, and a new log.
    fn take_changed(r: &mut ClusterRegistry) -> Option<Vec<String>> {
        let names = r.changed().map(|n| n.map(str::to_owned).collect());
        r.clear_changed();
        names
    }

    #[test]
    fn every_write_logs_the_names_it_moved_and_equality_ignores_the_log() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 1));
        assert_eq!(take_changed(&mut r).unwrap(), ["a", "b"]);
        let copy = r.clone();
        assert_eq!(r.orphan_homes(|n| n == NodeId(1)), 1);
        assert_eq!(r.orphan_homes(|n| n == NodeId(1)), 0);
        assert_eq!(take_changed(&mut r).unwrap(), ["b"]);
        // An equal revision carries `b`'s status back; an own export and an
        // empty delta change nothing.
        r.import(&transfer(&copy), &[]);
        assert_eq!(take_changed(&mut r).unwrap(), ["b"]);
        r.import(&transfer(&r.clone()), &[]);
        r.import(&[], &[]);
        r.apply(&deployed("b", 1));
        assert!(
            take_changed(&mut r).unwrap().is_empty(),
            "b placed where it was"
        );
        r.apply(&deployed("b", 2));
        assert_eq!(take_changed(&mut r).unwrap(), ["b"]);
        let migrate = AppPayload::Migrate {
            name: "a".into(),
            from: NodeId(0),
            to: NodeId(2),
        };
        r.apply(&migrate);
        assert_eq!(take_changed(&mut r).unwrap(), ["a"]);
        assert!(r.apply(&migrate), "a revision moves ...");
        assert!(take_changed(&mut r).unwrap().is_empty(), "... no status");
        let gone = AppPayload::Undeployed { name: "a".into() };
        assert!(r.apply(&gone) && !r.apply(&gone));
        let _ = (r.record("b"), r.export(), r.digest());
        assert_eq!(take_changed(&mut r).unwrap(), ["a"]);
        // More names than the log holds: any record may have moved.
        for i in 0..=dosgi_vosgi::CHANGE_LOG_CAPACITY {
            r.apply(&deployed(&format!("c{i}"), 0));
        }
        let logged = r.clone();
        assert_eq!(take_changed(&mut r), None);
        assert_eq!(r, logged);
        assert_eq!(take_changed(&mut r).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn what_moved_since_a_transfer_is_what_it_got_wrong() {
        let mut r = ClusterRegistry::new();
        for (name, home) in [("a", 0), ("b", 1), ("c", 2)] {
            r.apply(&deployed(name, home));
        }
        let shipped = transfer(&r);
        let (upserts, removes) = r.moved_since(&shipped);
        assert!(upserts.is_empty() && removes.is_empty());
        // Written after the transfer was taken: a claim moves `a`, `b` goes.
        r.orphan_homes(|n| n == NodeId(0));
        r.apply(&AppPayload::Adopted {
            name: "a".into(),
            node: NodeId(2),
            prior_home: NodeId(0),
        });
        r.apply(&AppPayload::Undeployed { name: "b".into() });
        let (upserts, removes) = r.moved_since(&shipped);
        // Whoever imported the transfer ends where this registry stands.
        let mut joiner = ClusterRegistry::new();
        joiner.import(&shipped, &[]);
        joiner.import(&upserts, &removes);
        assert_eq!(joiner, r);
        assert_eq!((upserts.len(), removes.len()), (1, 1));
    }

    #[test]
    fn unknown_instances_are_ignored() {
        let mut r = ClusterRegistry::new();
        r.apply(&AppPayload::Adopted {
            name: "ghost".into(),
            node: NodeId(1),
            prior_home: NodeId(0),
        });
        assert!(r.is_empty());
    }

    #[test]
    fn orphaning_marks_crashed_homes() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 1));
        r.apply(&deployed("c", 0));
        assert!(!r.has_orphans());
        assert_eq!(r.orphan_homes(|n| n == NodeId(0)), 2);
        assert!(r.has_orphans());
        assert!(r.orphans().map(|n| &**n).eq(["a", "c"]));
        assert_eq!(r.record("b").unwrap().status, InstanceStatus::Placed);
        // Idempotent: a second sweep orphans nothing new.
        assert_eq!(r.orphan_homes(|n| n == NodeId(0)), 0);
    }

    #[test]
    fn first_claim_in_total_order_wins() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.orphan_homes(|n| n == NodeId(0));
        r.apply(&AppPayload::Adopted {
            name: "a".into(),
            node: NodeId(1),
            prior_home: NodeId(0),
        });
        // A competing later claim (against the same dead home) is ignored:
        // the record no longer points at the dead node.
        r.apply(&AppPayload::Adopted {
            name: "a".into(),
            node: NodeId(2),
            prior_home: NodeId(0),
        });
        assert_eq!(r.record("a").unwrap().home, NodeId(1));
        assert_eq!(r.record("a").unwrap().status, InstanceStatus::Placed);
    }

    #[test]
    fn claims_only_apply_to_orphans() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&AppPayload::Adopted {
            name: "a".into(),
            node: NodeId(2),
            prior_home: NodeId(7),
        });
        assert_eq!(
            r.record("a").unwrap().home,
            NodeId(0),
            "claim against an unrelated home is ignored"
        );
    }

    #[test]
    fn stale_release_loses_to_orphaning() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&AppPayload::Migrate {
            name: "a".into(),
            from: NodeId(0),
            to: NodeId(1),
        });
        // Destination n1 dies mid-migration: orphaned.
        assert_eq!(r.orphan_homes(|n| n == NodeId(1)), 1);
        // The source's Released (racing the view change) must not resurrect
        // a placement on the dead destination.
        r.apply(&AppPayload::Released {
            name: "a".into(),
            to: NodeId(1),
        });
        assert_eq!(r.record("a").unwrap().status, InstanceStatus::Orphaned);
    }

    #[test]
    fn source_crash_mid_migration_orphans() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&AppPayload::Migrate {
            name: "a".into(),
            from: NodeId(0),
            to: NodeId(1),
        });
        assert_eq!(r.orphan_homes(|n| n == NodeId(0)), 1);
    }

    #[test]
    fn quarantine_heal_cycle() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.orphan_homes(|n| n == NodeId(0));
        r.apply(&AppPayload::Adopted {
            name: "a".into(),
            node: NodeId(1),
            prior_home: NodeId(0),
        });
        // n1 cannot re-materialize it: quarantine. The record survives.
        r.apply(&AppPayload::Quarantined {
            name: "a".into(),
            node: NodeId(1),
        });
        let rec = r.record("a").unwrap();
        assert_eq!(rec.status, InstanceStatus::Quarantined);
        assert_eq!(rec.home, NodeId(1));
        // A stale quarantine report from a non-home is ignored.
        r.apply(&AppPayload::Quarantined {
            name: "a".into(),
            node: NodeId(2),
        });
        assert_eq!(r.record("a").unwrap().home, NodeId(1));
        // SAN heals: the home self-claims and the record is placed again.
        r.apply(&AppPayload::Adopted {
            name: "a".into(),
            node: NodeId(1),
            prior_home: NodeId(1),
        });
        assert_eq!(r.record("a").unwrap().status, InstanceStatus::Placed);
    }

    #[test]
    fn quarantined_instance_is_orphaned_when_its_home_dies() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&AppPayload::Quarantined {
            name: "a".into(),
            node: NodeId(0),
        });
        assert_eq!(r.orphan_homes(|n| n == NodeId(0)), 1);
        assert_eq!(r.record("a").unwrap().status, InstanceStatus::Orphaned);
    }

    #[test]
    fn export_import_round_trips_quarantined_status() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&AppPayload::Quarantined {
            name: "a".into(),
            node: NodeId(0),
        });
        let mut r2 = ClusterRegistry::new();
        r2.import(&transfer(&r), &[]);
        assert_eq!(r2, r);
        assert_eq!(r2.export().encode(), r.export().encode());
    }

    #[test]
    fn export_import_round_trip() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 1));
        r.apply(&AppPayload::Migrate {
            name: "b".into(),
            from: NodeId(1),
            to: NodeId(2),
        });
        r.apply(&deployed("c", 2));
        r.orphan_homes(|n| n == NodeId(2));
        let mut r2 = ClusterRegistry::new();
        r2.import(&transfer(&r), &[]);
        assert_eq!(r2, r);
        // The joiner's descriptors are the sender's, not copies of them.
        assert!(r2
            .records()
            .zip(r.records())
            .all(|(got, sent)| Rc::ptr_eq(&got.descriptor, &sent.descriptor)));
        // The one serialized rendering survives the codec.
        assert_eq!(Value::decode(&r2.export().encode()).unwrap(), r.export());
    }

    #[test]
    fn import_at_equal_revision_still_carries_status_and_home() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        // A peer marked `a` orphaned locally — no revision bump — and its
        // snapshot carries the mark at the revision this copy holds.
        let mut peer = r.clone();
        peer.orphan_homes(|n| n == NodeId(0));
        r.import(&transfer(&peer), &[]);
        assert_eq!(r.record("a").unwrap().status, InstanceStatus::Orphaned);
        assert_eq!(r.record("a").unwrap().rev, 1);
        // The same way a later snapshot clears it, and moves `home` with it.
        let placed = InstanceRecord {
            name: "a".into(),
            descriptor: named("a"),
            home: NodeId(2),
            status: InstanceStatus::Placed,
            rev: 1,
        };
        r.import(&[placed], &[]);
        let rec = r.record("a").unwrap();
        assert_eq!(
            (rec.home, rec.status, rec.rev),
            (NodeId(2), InstanceStatus::Placed, 1)
        );
    }

    #[test]
    fn import_of_an_own_export_changes_nothing() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 1));
        r.apply(&AppPayload::Migrate {
            name: "b".into(),
            from: NodeId(1),
            to: NodeId(2),
        });
        r.apply(&deployed("c", 2));
        r.apply(&AppPayload::Quarantined {
            name: "c".into(),
            node: NodeId(2),
        });
        r.apply(&deployed("d", 3));
        r.orphan_homes(|n| n == NodeId(3));
        let before = r.clone();
        r.import(&transfer(&r.clone()), &[]);
        assert_eq!(r, before);
        let (upserts, removes) = r.export_delta(&[]);
        r.import(&upserts, &removes);
        assert_eq!(r, before);
    }

    fn node(rng: &mut TestRng) -> NodeId {
        NodeId(rng.u64_below(4) as u32)
    }

    fn descriptor(name: &str, rng: &mut TestRng) -> Rc<InstanceDescriptor> {
        let quota = ResourceQuota {
            memory_bytes: rng.next_u64() >> rng.u64_below(64),
            ..ResourceQuota::standard()
        };
        let mut d = InstanceDescriptor::builder(name, name).quota(quota);
        for b in 0..rng.u64_below(3) {
            d = d.bundle(&format!("b{b}"));
        }
        Rc::new(d.build())
    }

    /// How many names `churn` writes: `i0` to `i5`.
    const CHURN_NAMES: u64 = 6;

    fn churn_name(i: u64) -> Arc<str> {
        format!("i{i}").into()
    }

    /// Random ordered history plus local orphan marks over six names.
    fn churn(r: &mut ClusterRegistry, rng: &mut TestRng, ops: u64) {
        for _ in 0..ops {
            let name = churn_name(rng.u64_below(CHURN_NAMES));
            // Mostly the node the message must name to take effect.
            let home = match r.record(&name) {
                Some(rec) if rng.chance(0.7) => rec.home,
                _ => node(rng),
            };
            let payload = match rng.u64_below(8) {
                0 | 1 => AppPayload::Deployed {
                    descriptor: descriptor(&name, rng),
                    name,
                    home,
                },
                2 => AppPayload::Migrate {
                    name,
                    from: home,
                    to: node(rng),
                },
                3 => AppPayload::Released {
                    name,
                    to: node(rng),
                },
                4 => AppPayload::Adopted {
                    name,
                    node: node(rng),
                    prior_home: home,
                },
                5 => AppPayload::Quarantined { name, node: home },
                6 => AppPayload::Undeployed { name },
                _ => {
                    r.orphan_homes(|n| n == home);
                    continue;
                }
            };
            r.apply(&payload);
        }
    }

    /// Two copies: ours, and the sender's — one that went its own way or,
    /// as after a restart, one that never shared any history — plus a
    /// transfer the sender shipped before they diverged.
    fn diverged(rng: &mut TestRng) -> (ClusterRegistry, ClusterRegistry, Vec<InstanceRecord>) {
        let mut ours = ClusterRegistry::new();
        churn(&mut ours, rng, 12);
        let mut theirs = if rng.chance(0.8) {
            ours.clone()
        } else {
            ClusterRegistry::new()
        };
        let shipped = transfer(&theirs);
        let diverge = rng.u64_below(10);
        churn(&mut theirs, rng, diverge);
        churn(&mut ours, rng, diverge / 2);
        (ours, theirs, shipped)
    }

    /// A transfer reports the encoded length of its records rendered in
    /// the export format, and of its removes as `{name, rev}` maps, counted
    /// from the typed values with nothing built. Mutation-checked: a size
    /// that drops a `Migrating` record's `to` fails.
    #[test]
    fn prop_transfer_lengths_are_their_value_encodings() {
        let rendered = |records: &[InstanceRecord]| {
            let list: Value = records.iter().map(ClusterRegistry::record_value).collect();
            list.encoded_len()
        };
        let rendered_removes = |removes: &[(Arc<str>, u64)]| {
            let map = |(name, rev): &(Arc<str>, u64)| {
                Value::map().with("name", &**name).with("rev", *rev)
            };
            removes.iter().map(map).collect::<Value>().encoded_len()
        };
        let (migrating, removed) = (Cell::new(0), Cell::new(0));
        let cfg = prop::Config::with_cases(300);
        let gen = prop::u64s(0, u64::MAX);
        prop::check_with(
            &cfg,
            "transfer_lengths_are_their_value_encodings",
            &gen,
            |&seed| {
                let mut rng = TestRng::new(seed);
                let (ours, theirs, _) = diverged(&mut rng);
                let records = transfer(&theirs);
                prop_verify_eq!(records_len(&records), theirs.export().encoded_len());
                prop_verify_eq!(records_len(&records), rendered(&records));
                let (upserts, removes) = theirs.export_delta(&ours.digest());
                prop_verify_eq!(records_len(&upserts), rendered(&upserts));
                prop_verify_eq!(removes_len(&removes), rendered_removes(&removes));
                let moving =
                    |r: &InstanceRecord| matches!(r.status, InstanceStatus::Migrating { .. });
                migrating.set(migrating.get() + upserts.iter().filter(|r| moving(r)).count());
                removed.set(removed.get() + removes.len());
                prop_verify!(records_len(&[]) == Value::List(Vec::new()).encoded_len());
                Ok(())
            },
        );
        assert!(migrating.get() > 0 && removed.get() > 0);
    }

    /// The registry as a tree of its records, as it was held before the
    /// hash table and its sorted name list: the oracle of every walk.
    struct Model(BTreeMap<Arc<str>, InstanceRecord>);

    impl Model {
        /// What `r` finds by name, for every name `churn` writes.
        fn found_in(r: &ClusterRegistry) -> Model {
            let found = (0..CHURN_NAMES).filter_map(|i| r.record(&churn_name(i)));
            Model(
                found
                    .map(|rec| (Arc::clone(&rec.name), rec.clone()))
                    .collect(),
            )
        }

        fn digest(&self) -> Vec<(Arc<str>, u64)> {
            self.0
                .values()
                .map(|r| (Arc::clone(&r.name), r.rev))
                .collect()
        }

        fn export_delta(&self, digest: &[(Arc<str>, u64)]) -> Transfer {
            let held: BTreeMap<&str, u64> = digest.iter().map(|(n, rev)| (&**n, *rev)).collect();
            let upserts = self
                .0
                .values()
                .filter(|r| held.get(&*r.name).is_none_or(|rev| *rev < r.rev));
            let removes = digest.iter().filter(|(n, _)| !self.0.contains_key(n));
            (upserts.cloned().collect(), removes.cloned().collect())
        }

        fn moved_since(&self, shipped: &[InstanceRecord]) -> Transfer {
            let (mut upserts, mut removes) = (Vec::new(), Vec::new());
            for s in shipped {
                match self.0.get(&s.name) {
                    Some(r) if r.rev > s.rev => upserts.push(r.clone()),
                    Some(_) => {}
                    None => removes.push((Arc::clone(&s.name), s.rev)),
                }
            }
            (upserts, removes)
        }

        fn import(&mut self, upserts: &[InstanceRecord], removes: &[(Arc<str>, u64)]) {
            for incoming in upserts {
                match self.0.get_mut(&incoming.name) {
                    Some(local) if incoming.rev < local.rev => {}
                    Some(local) => *local = incoming.clone(),
                    None => {
                        self.0.insert(Arc::clone(&incoming.name), incoming.clone());
                    }
                }
            }
            for (name, rev) in removes {
                if self.0.get(name).is_some_and(|r| r.rev == *rev) {
                    self.0.remove(name);
                }
            }
        }

        /// Every walk of `r`, and every lookup, against the tree's.
        fn holds(&self, r: &ClusterRegistry) -> Result<(), String> {
            prop_verify_eq!(r.len(), self.0.len());
            prop_verify!(
                r.records().eq(self.0.values()),
                "records() out of name order"
            );
            for i in 0..=CHURN_NAMES {
                let name = churn_name(i);
                prop_verify_eq!(r.record(&name), self.0.get(&name), "record({name})");
            }
            prop_verify_eq!(r.digest(), self.digest());
            let orphaned = self
                .0
                .values()
                .filter(|r| r.status == InstanceStatus::Orphaned);
            prop_verify!(r.orphans().eq(orphaned.map(|r| &r.name)), "orphans()");
            for node in 0..4 {
                let on = |rec: &&InstanceRecord| {
                    rec.status == InstanceStatus::Quarantined && rec.home == NodeId(node)
                };
                let quarantined = self.0.values().filter(on).map(|r| &r.name);
                prop_verify!(
                    r.quarantined_on(NodeId(node)).eq(quarantined),
                    "quarantined_on(n{node})"
                );
            }
            let export: Value = self.0.values().map(ClusterRegistry::record_value).collect();
            prop_verify!(r.export().encode() == export.encode(), "export() bytes");
            Ok(())
        }
    }

    type Transfer = (Vec<InstanceRecord>, Vec<(Arc<str>, u64)>);

    /// The hash table and its sorted name list read as the tree did, over
    /// random histories: every walk in name order, every lookup, every
    /// export byte, the deltas a transfer carries and the merge of one.
    /// Mutation-checked: a removal that leaves its name in the list, and
    /// an insert that appends its name instead of placing it, each fail.
    #[test]
    fn prop_the_table_and_its_name_list_read_as_a_tree() {
        prop::check_with(
            &prop::Config::with_cases(300),
            "the_table_and_its_name_list_read_as_a_tree",
            &prop::u64s(0, u64::MAX),
            |&seed| {
                let mut rng = TestRng::new(seed);
                let (mut ours, theirs, shipped) = diverged(&mut rng);
                let (mut model, their_model) = (Model::found_in(&ours), Model::found_in(&theirs));
                model.holds(&ours)?;
                their_model.holds(&theirs)?;
                let delta = theirs.export_delta(&ours.digest());
                prop_verify_eq!(delta, their_model.export_delta(&model.digest()));
                let moved = theirs.moved_since(&shipped);
                prop_verify_eq!(moved, their_model.moved_since(&shipped));
                for (upserts, removes) in [&moved, &delta] {
                    ours.import(upserts, removes);
                    model.import(upserts, removes);
                    model.holds(&ours)?;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn delta_against_empty_digest_is_the_full_export() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 1));
        let (upserts, removes) = r.export_delta(&[]);
        assert_eq!(upserts, transfer(&r));
        assert!(removes.is_empty());
        // A fresh replica importing the delta converges exactly.
        let mut r2 = ClusterRegistry::new();
        r2.import(&upserts, &removes);
        assert_eq!(r2, r);
    }

    #[test]
    fn delta_against_current_digest_is_empty() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&AppPayload::Migrate {
            name: "a".into(),
            from: NodeId(0),
            to: NodeId(1),
        });
        let (upserts, removes) = r.export_delta(&r.digest());
        assert!(upserts.is_empty() && removes.is_empty());
    }

    #[test]
    fn delta_ships_only_stale_and_missing_records() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 1));
        let behind = r.clone();
        // `a` advances past the digest; `c` is new; `b` is unchanged.
        r.apply(&AppPayload::Migrate {
            name: "a".into(),
            from: NodeId(0),
            to: NodeId(2),
        });
        r.apply(&deployed("c", 2));
        let (upserts, removes) = r.export_delta(&behind.digest());
        let names: Vec<&str> = upserts.iter().map(|u| &*u.name).collect();
        assert_eq!(names, vec!["a", "c"]);
        assert!(removes.is_empty());
        let mut caught_up = behind.clone();
        caught_up.import(&upserts, &removes);
        assert_eq!(caught_up, r);
    }

    #[test]
    fn delta_removes_are_revision_guarded() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        let stale_digest = r.digest(); // knows a@1
        r.apply(&AppPayload::Undeployed { name: "a".into() });
        let (upserts, removes) = r.export_delta(&stale_digest);
        assert!(upserts.is_empty());
        assert_eq!(removes, [("a".into(), 1)]);

        // A replica still holding a@1 drops it…
        let mut behind = ClusterRegistry::new();
        behind.apply(&deployed("a", 0));
        behind.import(&upserts, &removes);
        assert!(behind.is_empty());

        // …but a replica that re-deployed `a` after the undeploy holds it
        // at rev 1 *again* — the equality guard must still protect it,
        // because that record is a different incarnation. Advance it one
        // rev so the guard visibly mismatches.
        let mut redeployed = ClusterRegistry::new();
        redeployed.apply(&deployed("a", 3));
        redeployed.apply(&AppPayload::Migrate {
            name: "a".into(),
            from: NodeId(3),
            to: NodeId(4),
        });
        redeployed.import(&upserts, &removes);
        assert!(
            redeployed.record("a").is_some(),
            "revision-mismatched remove must be voided"
        );
    }

    #[test]
    fn delta_survives_the_wire_codec() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&AppPayload::Quarantined {
            name: "a".into(),
            node: NodeId(0),
        });
        let (upserts, removes) = r.export_delta(&[]);
        let mut r2 = ClusterRegistry::new();
        r2.import(&upserts, &removes);
        assert_eq!(r2, r);
        assert_eq!(Value::decode(&r2.export().encode()).unwrap(), r.export());
    }

    #[test]
    fn load_by_node_counts_placed_only() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 0));
        r.apply(&deployed("c", 1));
        r.orphan_homes(|n| n == NodeId(1));
        let load = r.load_by_node();
        assert_eq!(load.get(&NodeId(0)), Some(&2));
        assert_eq!(load.get(&NodeId(1)), None);
    }
}
