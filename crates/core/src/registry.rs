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
//! A registry travels between nodes as typed records: a `RegistrySync`
//! carries them all, a `RegistryDelta` the ones a digest lacks. A record's
//! descriptor is an `Arc` made once by the deploy, so every copy of the
//! registry, and every transfer between them, shares that one value.
//! [`export`](ClusterRegistry::export) is the one serialized rendering; a
//! transfer's reported size is that rendering's encoded length.

use crate::msg::AppPayload;
use dosgi_net::NodeId;
use dosgi_san::codec::varint_len;
use dosgi_san::Value;
use std::collections::BTreeMap;
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
    /// The instance name (unique cluster-wide).
    pub name: String,
    /// The serialized descriptor (policy-free; see
    /// [`InstanceDescriptor::from_value`](dosgi_vosgi::InstanceDescriptor::from_value)),
    /// built once by the deploy and shared by every copy of this record.
    pub descriptor: Arc<Value>,
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

/// The replicated registry: apply ordered messages, query placements.
///
/// Two copies are equal when they hold the same records, however many
/// writes each took to get there.
#[derive(Debug, Clone, Default)]
pub struct ClusterRegistry {
    records: BTreeMap<String, InstanceRecord>,
    // Moved by every `&mut self` method.
    epoch: u64,
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

    /// A counter that every write moves: while it stands still, every
    /// record reads what it read before.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies one ordered control message. Unknown instances in
    /// non-deploy messages are ignored (idempotent replay tolerance), and
    /// messages that lost a race against an orphaning are ignored too:
    ///
    /// * `Released` completes a migration — unless the record was orphaned
    ///   in the meantime (destination died), in which case the failover
    ///   claim protocol takes over;
    /// * `Adopted` is a **failover claim**: it only takes effect on an
    ///   `Orphaned` record, so exactly the first claim in the total order
    ///   wins, on every node alike.
    pub fn apply(&mut self, msg: &AppPayload) {
        self.epoch += 1;
        match msg {
            AppPayload::Deployed {
                name,
                descriptor,
                home,
            } => {
                let rev = self.records.get(name).map(|r| r.rev).unwrap_or(0) + 1;
                self.records.insert(
                    name.clone(),
                    InstanceRecord {
                        name: name.clone(),
                        descriptor: Arc::clone(descriptor),
                        home: *home,
                        status: InstanceStatus::Placed,
                        rev,
                    },
                );
            }
            AppPayload::Migrate { name, to, .. } => {
                if let Some(r) = self.records.get_mut(name) {
                    if r.status != InstanceStatus::Orphaned {
                        r.status = InstanceStatus::Migrating { to: *to };
                        r.rev += 1;
                    }
                }
            }
            AppPayload::Released { name, to } => {
                if let Some(r) = self.records.get_mut(name) {
                    if r.status != InstanceStatus::Orphaned {
                        r.home = *to;
                        r.status = InstanceStatus::Placed;
                        r.rev += 1;
                    }
                }
            }
            AppPayload::Adopted {
                name,
                node,
                prior_home,
            } => {
                if let Some(r) = self.records.get_mut(name) {
                    // The claim wins iff the record is orphaned locally OR
                    // still points at the home the claimant saw die (this
                    // node's failure detector is merely behind).
                    let claimable = r.status == InstanceStatus::Orphaned
                        || r.home == *prior_home
                        || matches!(r.status, InstanceStatus::Migrating { to } if to == *prior_home);
                    if claimable {
                        r.home = *node;
                        r.status = InstanceStatus::Placed;
                        r.rev += 1;
                    }
                }
            }
            AppPayload::Quarantined { name, node } => {
                if let Some(r) = self.records.get_mut(name) {
                    // Only the current home may quarantine: a stale report
                    // from a node that already lost the instance (crash +
                    // re-claim raced the report) must not shadow the new
                    // home's live copy.
                    if r.home == *node && r.status != InstanceStatus::Quarantined {
                        r.status = InstanceStatus::Quarantined;
                        r.rev += 1;
                    }
                }
            }
            AppPayload::Undeployed { name } => {
                self.records.remove(name);
            }
            AppPayload::Draining { .. }
            | AppPayload::Hello { .. }
            | AppPayload::RegistrySync { .. }
            | AppPayload::RegistryDelta { .. } => {}
        }
    }

    /// Marks every instance stranded by the departure of `left` as
    /// orphaned; returns the orphaned names, sorted. A `Placed` instance is
    /// stranded when its home left; a `Migrating` one when either endpoint
    /// left.
    pub fn orphan_homes(&mut self, left: &[NodeId]) -> Vec<String> {
        self.epoch += 1;
        let mut orphans = Vec::new();
        for r in self.records.values_mut() {
            let stranded = match r.status {
                InstanceStatus::Migrating { to } => left.contains(&r.home) || left.contains(&to),
                // A quarantined instance is stranded like a placed one when
                // its home dies: a survivor claims it and runs its own
                // adopt/retry/quarantine cycle against the SAN.
                InstanceStatus::Placed | InstanceStatus::Quarantined => left.contains(&r.home),
                InstanceStatus::Orphaned => false,
            };
            if stranded {
                r.status = InstanceStatus::Orphaned;
                orphans.push(r.name.clone());
            }
        }
        orphans.sort();
        orphans
    }

    /// Looks up a record.
    pub fn record(&self, name: &str) -> Option<&InstanceRecord> {
        self.records.get(name)
    }

    /// All records, in name order.
    pub fn records(&self) -> impl Iterator<Item = &InstanceRecord> {
        self.records.values()
    }

    /// Count of placed instances per node (the deterministic load signal
    /// placement uses).
    pub fn load_by_node(&self) -> BTreeMap<NodeId, usize> {
        let mut m = BTreeMap::new();
        for r in self.records.values() {
            if r.status == InstanceStatus::Placed {
                *m.entry(r.home).or_insert(0) += 1;
            }
        }
        m
    }

    /// Names of instances with [`InstanceStatus::Orphaned`], sorted.
    pub fn orphans(&self) -> Vec<String> {
        self.records
            .values()
            .filter(|r| r.status == InstanceStatus::Orphaned)
            .map(|r| r.name.clone())
            .collect()
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
            .with("name", r.name.as_str())
            .with("descriptor", (*r.descriptor).clone())
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
        Value::List(self.records.values().map(Self::record_value).collect())
    }

    /// A compact digest: `(name, rev)` for every record, in name order.
    /// Carried by `Hello` so a peer can answer with a per-record delta
    /// ([`export_delta`](Self::export_delta)) instead of the full registry.
    pub fn digest(&self) -> Vec<(String, u64)> {
        self.records
            .values()
            .map(|r| (r.name.clone(), r.rev))
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
        digest: &[(String, u64)],
    ) -> (Vec<InstanceRecord>, Vec<(String, u64)>) {
        let known = |name: &str| {
            let at = digest.binary_search_by(|(held, _)| held.as_str().cmp(name));
            at.ok().map(|i| digest[i].1)
        };
        let upserts = self
            .records
            .values()
            .filter(|r| known(&r.name).is_none_or(|rev| rev < r.rev))
            .cloned()
            .collect();
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
    ) -> (Vec<InstanceRecord>, Vec<(String, u64)>) {
        let (mut upserts, mut removes) = (Vec::new(), Vec::new());
        for s in shipped {
            match self.records.get(&s.name) {
                Some(r) if r.rev > s.rev => upserts.push(r.clone()),
                Some(_) => {}
                None => removes.push((s.name.clone(), s.rev)),
            }
        }
        (upserts, removes)
    }

    /// Applies a per-record delta (see [`export_delta`](Self::export_delta)).
    /// Upserts merge exactly like [`import`](Self::import) — revision
    /// regressions are refused — and removals only fire while the local
    /// revision still *equals* the guard: any ordered mutation interleaved
    /// between the digest and the delta (a redeploy, a claim) changes the
    /// revision and voids the removal.
    pub fn import_delta(&mut self, upserts: &[InstanceRecord], removes: &[(String, u64)]) {
        // (`import` moves the epoch.)
        self.import(upserts);
        for (name, rev) in removes {
            if self.records.get(name).is_some_and(|r| r.rev == *rev) {
                self.records.remove(name);
            }
        }
    }

    /// Merges a transfer's records into this registry: records it does not
    /// mention are **kept**, and a record it does mention is written only
    /// where it differs. Merge (rather than replace) semantics make sync
    /// storms safe: a stale snapshot — e.g. one exported before an
    /// in-flight `Deployed` re-sequenced — cannot wipe fresher records, and
    /// since every node applies the same syncs in the same total order, all
    /// copies still converge.
    ///
    /// A record held already is updated in place, and a descriptor it
    /// shares with the incoming record is not compared, so a member that is
    /// up to date — every member but the joiner — allocates nothing. A
    /// record this registry lacks costs its name and its place in the map;
    /// its descriptor is shared, not copied.
    pub fn import(&mut self, records: &[InstanceRecord]) {
        self.epoch += 1;
        for incoming in records {
            match self.records.get_mut(&incoming.name) {
                // Refuse regressions: only adopt the incoming record if it
                // is at least as fresh as ours.
                Some(local) if incoming.rev < local.rev => {}
                // An *equal* revision still writes `home` and `status`: a
                // local `Orphaned` mark bumps no revision, and this is how a
                // sync carries one or clears it.
                Some(local) => {
                    local.home = incoming.home;
                    local.status = incoming.status;
                    local.rev = incoming.rev;
                    if !Arc::ptr_eq(&local.descriptor, &incoming.descriptor)
                        && local.descriptor != incoming.descriptor
                    {
                        local.descriptor = Arc::clone(&incoming.descriptor);
                    }
                }
                None => {
                    self.records.insert(incoming.name.clone(), incoming.clone());
                }
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
            + field_len("rev", int_len(r.rev))
            + to
    });
    header_len(records.len()) + records_len.sum::<usize>()
}

/// The encoded length of `removes` rendered as a list of `{name, rev}`
/// maps, with nothing built: what a delta's removes report.
pub(crate) fn removes_len(removes: &[(String, u64)]) -> usize {
    let removes_len = removes.iter().map(|(name, rev)| {
        header_len(2) + field_len("name", str_len(name)) + field_len("rev", int_len(*rev))
    });
    header_len(removes.len()) + removes_len.sum::<usize>()
}

/// A tag and a varint length or count: a string's, list's or map's header.
fn header_len(count: usize) -> usize {
    1 + varint_len(count as u64)
}

fn str_len(s: &str) -> usize {
    header_len(s.len()) + s.len()
}

fn int_len(i: u64) -> usize {
    Value::Int(i as i64).encoded_len()
}

/// A map entry: its key, a string without the tag, then its value.
fn field_len(key: &str, value_len: usize) -> usize {
    str_len(key) - 1 + value_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::{prop, prop_verify, prop_verify_eq, TestRng};
    use std::cell::Cell;

    fn deployed(name: &str, home: u32) -> AppPayload {
        AppPayload::Deployed {
            name: name.into(),
            descriptor: Value::map().with("name", name).into(),
            home: NodeId(home),
        }
    }

    /// What a `RegistrySync` carries: every record, descriptors shared.
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

    #[test]
    fn every_write_moves_the_epoch_and_equality_ignores_it() {
        let mut r = ClusterRegistry::new();
        let mut epoch = r.epoch();
        let mut moved = |r: &ClusterRegistry| std::mem::replace(&mut epoch, r.epoch()) != r.epoch();
        r.apply(&deployed("a", 0));
        assert!(moved(&r));
        let copy = r.clone();
        assert!(r.orphan_homes(&[NodeId(1)]).is_empty());
        assert!(moved(&r), "a write that changes nothing still counts");
        r.import(&transfer(&copy));
        assert!(moved(&r));
        r.import_delta(&[], &[]);
        assert!(moved(&r));
        let _ = (r.record("a"), r.export(), r.digest());
        assert!(!moved(&r));
        assert_eq!(r, copy);
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
        r.orphan_homes(&[NodeId(0)]);
        r.apply(&AppPayload::Adopted {
            name: "a".into(),
            node: NodeId(2),
            prior_home: NodeId(0),
        });
        r.apply(&AppPayload::Undeployed { name: "b".into() });
        let (upserts, removes) = r.moved_since(&shipped);
        // Whoever imported the transfer ends where this registry stands.
        let mut joiner = ClusterRegistry::new();
        joiner.import(&shipped);
        joiner.import_delta(&upserts, &removes);
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
        let orphans = r.orphan_homes(&[NodeId(0)]);
        assert_eq!(orphans, vec!["a", "c"]);
        assert_eq!(r.orphans(), vec!["a", "c"]);
        assert_eq!(r.record("b").unwrap().status, InstanceStatus::Placed);
        // Idempotent: a second sweep orphans nothing new.
        assert!(r.orphan_homes(&[NodeId(0)]).is_empty());
    }

    #[test]
    fn first_claim_in_total_order_wins() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.orphan_homes(&[NodeId(0)]);
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
        assert_eq!(r.orphan_homes(&[NodeId(1)]), vec!["a"]);
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
        assert_eq!(r.orphan_homes(&[NodeId(0)]), vec!["a"]);
    }

    #[test]
    fn quarantine_heal_cycle() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.orphan_homes(&[NodeId(0)]);
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
        assert_eq!(r.orphan_homes(&[NodeId(0)]), vec!["a"]);
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
        r2.import(&transfer(&r));
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
        r.orphan_homes(&[NodeId(2)]);
        let mut r2 = ClusterRegistry::new();
        r2.import(&transfer(&r));
        assert_eq!(r2, r);
        // The joiner's descriptors are the sender's, not copies of them.
        assert!(r2
            .records()
            .zip(r.records())
            .all(|(got, sent)| Arc::ptr_eq(&got.descriptor, &sent.descriptor)));
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
        peer.orphan_homes(&[NodeId(0)]);
        r.import(&transfer(&peer));
        assert_eq!(r.record("a").unwrap().status, InstanceStatus::Orphaned);
        assert_eq!(r.record("a").unwrap().rev, 1);
        // The same way a later snapshot clears it, and moves `home` with it.
        let placed = InstanceRecord {
            name: "a".into(),
            descriptor: Value::map().with("name", "a").into(),
            home: NodeId(2),
            status: InstanceStatus::Placed,
            rev: 1,
        };
        r.import(&[placed]);
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
        r.orphan_homes(&[NodeId(3)]);
        let before = r.clone();
        r.import(&transfer(&r.clone()));
        assert_eq!(r, before);
        let (upserts, removes) = r.export_delta(&[]);
        r.import_delta(&upserts, &removes);
        assert_eq!(r, before);
    }

    /// The transfer before it was typed, kept as the model the typed one is
    /// held to: records rendered as export-format `Value`s, digests and
    /// removes as maps, and every receiver parsing them back. Its `import`
    /// overwrites a whole record, the simplest rule the in-place merge
    /// must agree with.
    mod value_model {
        use super::super::*;
        use dosgi_san::Map;

        pub fn render(records: &[InstanceRecord]) -> Value {
            records.iter().map(ClusterRegistry::record_value).collect()
        }

        pub fn render_removes(removes: &[(String, u64)]) -> Value {
            removes
                .iter()
                .map(|(name, rev)| Value::map().with("name", name.as_str()).with("rev", *rev))
                .collect()
        }

        pub fn digest(reg: &ClusterRegistry) -> Value {
            reg.records
                .values()
                .map(|r| (r.name.clone(), Value::Int(r.rev as i64)))
                .collect()
        }

        pub fn export_delta(reg: &ClusterRegistry, digest: &Value) -> (Value, Value) {
            let empty = Map::new();
            let known = match digest {
                Value::Map(m) => m,
                _ => &empty,
            };
            let upserts: Value = reg
                .records
                .values()
                .filter(|r| {
                    known
                        .get(&r.name)
                        .and_then(Value::as_int)
                        .map(|rev| (rev as u64) < r.rev)
                        .unwrap_or(true)
                })
                .map(ClusterRegistry::record_value)
                .collect();
            let removes: Value = known
                .iter()
                .filter(|&(name, _)| !reg.records.contains_key(&**name))
                .map(|(name, rev)| {
                    Value::map()
                        .with("name", &**name)
                        .with("rev", rev.as_int().unwrap_or(0))
                })
                .collect();
            (upserts, removes)
        }

        pub fn moved_since(reg: &ClusterRegistry, shipped: &Value) -> (Value, Value) {
            let (mut upserts, mut removes) = (Vec::new(), Vec::new());
            for entry in shipped.as_list().unwrap_or_default() {
                let Some(name) = entry.get("name").and_then(Value::as_str) else {
                    continue;
                };
                let rev = entry.get("rev").and_then(Value::as_int).unwrap_or(0);
                match reg.records.get(name) {
                    Some(r) if r.rev > rev as u64 => upserts.push(ClusterRegistry::record_value(r)),
                    Some(_) => {}
                    None => removes.push(Value::map().with("name", name).with("rev", rev)),
                }
            }
            (Value::List(upserts), Value::List(removes))
        }

        pub fn import(reg: &mut ClusterRegistry, v: &Value) {
            let Some(list) = v.as_list() else { return };
            for entry in list {
                let Some(name) = entry.get("name").and_then(Value::as_str) else {
                    continue;
                };
                let Some(home) = entry.get("home").and_then(Value::as_int) else {
                    continue;
                };
                let to = entry
                    .get("to")
                    .and_then(Value::as_int)
                    .map(|i| NodeId(i as u32));
                let status = match (entry.get("status").and_then(Value::as_str), to) {
                    (Some("placed"), _) => InstanceStatus::Placed,
                    (Some("migrating"), Some(to)) => InstanceStatus::Migrating { to },
                    (Some("orphaned"), _) => InstanceStatus::Orphaned,
                    (Some("quarantined"), _) => InstanceStatus::Quarantined,
                    _ => continue,
                };
                let rev = entry.get("rev").and_then(Value::as_int).unwrap_or(0) as u64;
                if reg.records.get(name).is_some_and(|local| rev < local.rev) {
                    continue;
                }
                reg.records.insert(
                    name.to_owned(),
                    InstanceRecord {
                        name: name.to_owned(),
                        descriptor: Arc::new(entry.get("descriptor").cloned().unwrap_or_default()),
                        home: NodeId(home as u32),
                        status,
                        rev,
                    },
                );
            }
        }

        pub fn import_delta(reg: &mut ClusterRegistry, upserts: &Value, removes: &Value) {
            import(reg, upserts);
            for entry in removes.as_list().unwrap_or_default() {
                let Some(name) = entry.get("name").and_then(Value::as_str) else {
                    continue;
                };
                let Some(rev) = entry.get("rev").and_then(Value::as_int) else {
                    continue;
                };
                if reg.records.get(name).is_some_and(|r| r.rev == rev as u64) {
                    reg.records.remove(name);
                }
            }
        }
    }

    fn node(rng: &mut TestRng) -> NodeId {
        NodeId(rng.u64_below(4) as u32)
    }

    fn descriptor(name: &str, rng: &mut TestRng) -> Arc<Value> {
        let bundles: Value = (0..rng.u64_below(3))
            .map(|b| Value::Int(b as i64))
            .collect();
        Arc::new(Value::map().with("name", name).with("bundles", bundles))
    }

    /// Random ordered history plus local orphan marks over six names.
    fn churn(r: &mut ClusterRegistry, rng: &mut TestRng, ops: u64) {
        for _ in 0..ops {
            let name = format!("i{}", rng.u64_below(6));
            // Mostly the node the message must name to take effect.
            let home = match r.record(&name) {
                Some(rec) if rng.chance(0.7) => rec.home,
                _ => node(rng),
            };
            match rng.u64_below(8) {
                0 | 1 => r.apply(&AppPayload::Deployed {
                    descriptor: descriptor(&name, rng),
                    name,
                    home,
                }),
                2 => r.apply(&AppPayload::Migrate {
                    name,
                    from: home,
                    to: node(rng),
                }),
                3 => r.apply(&AppPayload::Released {
                    name,
                    to: node(rng),
                }),
                4 => r.apply(&AppPayload::Adopted {
                    name,
                    node: node(rng),
                    prior_home: home,
                }),
                5 => r.apply(&AppPayload::Quarantined { name, node: home }),
                6 => r.apply(&AppPayload::Undeployed { name }),
                _ => drop(r.orphan_homes(&[home])),
            }
        }
    }

    /// What a diverged sender's records differ by beyond history: entries
    /// at a revision `held` already has but with another status, home or
    /// descriptor — an equal descriptor in a value of its own, or the very
    /// one `held` shares.
    fn tamper(records: &mut [InstanceRecord], held: &ClusterRegistry, rng: &mut TestRng) {
        for record in records.iter_mut() {
            let local = held.record(&record.name);
            if let Some(local) = local {
                if rng.chance(0.6) {
                    record.rev = local.rev + rng.u64_below(3) - 1;
                }
            }
            match rng.u64_below(8) {
                0 => record.descriptor = descriptor(&record.name, rng),
                1 => {
                    if let Some(local) = local {
                        record.descriptor = Arc::clone(&local.descriptor);
                    }
                }
                2 => record.home = node(rng),
                3 => {
                    record.status = match rng.u64_below(4) {
                        0 => InstanceStatus::Placed,
                        1 => InstanceStatus::Migrating { to: node(rng) },
                        2 => InstanceStatus::Orphaned,
                        _ => InstanceStatus::Quarantined,
                    }
                }
                _ => {}
            }
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

    /// The typed transfer against the `Value` one it replaced: a sync's
    /// import, a `Hello` answer's `export_delta` and `import_delta`, and a
    /// correction's `moved_since`, each leaving the receiver's export
    /// byte-identical to the model's. Mutation-checked: an equal-revision
    /// import that leaves `status` alone fails.
    #[test]
    fn prop_typed_transfer_matches_the_value_transfer() {
        let bytes = |(upserts, removes): (Value, Value)| (upserts.encode(), removes.encode());
        let cfg = prop::Config::with_cases(300);
        let gen = prop::u64s(0, u64::MAX);
        prop::check_with(
            &cfg,
            "typed_transfer_matches_the_value_transfer",
            &gen,
            |&seed| {
                let mut rng = TestRng::new(seed);
                let (mut ours, theirs, shipped) = diverged(&mut rng);
                let mut model = ours.clone();
                match rng.u64_below(3) {
                    0 => {
                        let mut records = transfer(&theirs);
                        tamper(&mut records, &ours, &mut rng);
                        ours.import(&records);
                        value_model::import(&mut model, &value_model::render(&records));
                    }
                    1 => {
                        let (digest, model_digest) = if rng.chance(0.3) {
                            (Vec::new(), Value::map())
                        } else {
                            (ours.digest(), value_model::digest(&ours))
                        };
                        let (mut upserts, removes) = theirs.export_delta(&digest);
                        prop_verify_eq!(
                            bytes((
                                value_model::render(&upserts),
                                value_model::render_removes(&removes)
                            )),
                            bytes(value_model::export_delta(&theirs, &model_digest))
                        );
                        tamper(&mut upserts, &ours, &mut rng);
                        ours.import_delta(&upserts, &removes);
                        value_model::import_delta(
                            &mut model,
                            &value_model::render(&upserts),
                            &value_model::render_removes(&removes),
                        );
                    }
                    _ => {
                        let (upserts, removes) = theirs.moved_since(&shipped);
                        let (model_upserts, model_removes) =
                            value_model::moved_since(&theirs, &value_model::render(&shipped));
                        prop_verify_eq!(
                            bytes((
                                value_model::render(&upserts),
                                value_model::render_removes(&removes)
                            )),
                            bytes((model_upserts.clone(), model_removes.clone()))
                        );
                        ours.import_delta(&upserts, &removes);
                        value_model::import_delta(&mut model, &model_upserts, &model_removes);
                    }
                }
                prop_verify_eq!(ours.export().encode(), model.export().encode());
                Ok(())
            },
        );
    }

    /// A transfer reports the encoded length of the `Value`s it used to
    /// ship, counted from its typed records. Mutation-checked: a size that
    /// drops a `Migrating` record's `to` fails.
    #[test]
    fn prop_transfer_lengths_are_their_value_encodings() {
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
                let (upserts, removes) = theirs.export_delta(&ours.digest());
                let (model_upserts, model_removes) =
                    value_model::export_delta(&theirs, &value_model::digest(&ours));
                prop_verify_eq!(records_len(&upserts), model_upserts.encoded_len());
                prop_verify_eq!(removes_len(&removes), model_removes.encoded_len());
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
        r2.import_delta(&upserts, &removes);
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
        let names: Vec<&str> = upserts.iter().map(|u| u.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"]);
        assert!(removes.is_empty());
        let mut caught_up = behind.clone();
        caught_up.import_delta(&upserts, &removes);
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
        assert_eq!(removes, [("a".to_owned(), 1)]);

        // A replica still holding a@1 drops it…
        let mut behind = ClusterRegistry::new();
        behind.apply(&deployed("a", 0));
        behind.import_delta(&upserts, &removes);
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
        redeployed.import_delta(&upserts, &removes);
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
        r2.import_delta(&upserts, &removes);
        assert_eq!(r2, r);
        assert_eq!(Value::decode(&r2.export().encode()).unwrap(), r.export());
    }

    #[test]
    fn load_by_node_counts_placed_only() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 0));
        r.apply(&deployed("c", 1));
        r.orphan_homes(&[NodeId(1)]);
        let load = r.load_by_node();
        assert_eq!(load.get(&NodeId(0)), Some(&2));
        assert_eq!(load.get(&NodeId(1)), None);
    }
}
