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

use crate::msg::AppPayload;
use dosgi_net::NodeId;
use dosgi_san::{Map, Value};
use std::collections::BTreeMap;

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

/// One instance's replicated record.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRecord {
    /// The instance name (unique cluster-wide).
    pub name: String,
    /// The serialized descriptor (policy-free; see
    /// [`InstanceDescriptor::from_value`](dosgi_vosgi::InstanceDescriptor::from_value)).
    pub descriptor: Value,
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
                        descriptor: descriptor.clone(),
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

    /// Names of instances currently homed (and placed) on `node`, sorted.
    pub fn placed_on(&self, node: NodeId) -> Vec<String> {
        self.records
            .values()
            .filter(|r| r.home == node && r.status == InstanceStatus::Placed)
            .map(|r| r.name.clone())
            .collect()
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

    /// Serializes one record in the export wire format.
    fn record_value(r: &InstanceRecord) -> Value {
        let (status, to) = match r.status {
            InstanceStatus::Placed => ("placed", None),
            InstanceStatus::Migrating { to } => ("migrating", Some(to)),
            InstanceStatus::Orphaned => ("orphaned", None),
            InstanceStatus::Quarantined => ("quarantined", None),
        };
        let mut v = Value::map()
            .with("name", r.name.as_str())
            .with("descriptor", r.descriptor.clone())
            .with("home", u64::from(r.home.0))
            .with("status", status)
            .with("rev", r.rev);
        if let Some(to) = to {
            v = v.with("to", u64::from(to.0));
        }
        v
    }

    /// Serializes the full registry for state transfer to a joining node.
    pub fn export(&self) -> Value {
        Value::List(self.records.values().map(Self::record_value).collect())
    }

    /// A compact digest: `name → rev` for every record. Carried by `Hello`
    /// so a peer can answer with a per-record delta
    /// ([`export_delta`](Self::export_delta)) instead of the full registry.
    pub fn digest(&self) -> Value {
        self.records
            .values()
            .map(|r| (r.name.clone(), Value::Int(r.rev as i64)))
            .collect()
    }

    /// Computes the per-record delta that brings a registry described by
    /// `digest` (see [`digest`](Self::digest)) up to date with this one:
    ///
    /// * **upserts** — export-format records the digest is missing or holds
    ///   at an older revision (name-ascending, like [`export`](Self::export));
    /// * **removes** — `{name, rev}` for every digest entry this registry
    ///   has no record for. `rev` echoes the digest's revision and acts as
    ///   a compare-and-swap guard at the receiver: revisions restart at 1
    ///   after an undeploy + redeploy, so revision *equality* — not `<=` —
    ///   is the only sound removal condition.
    ///
    /// Records the digest already holds at this registry's revision (or
    /// newer) are omitted entirely — the fast path that makes a
    /// steady-state hello answer near-empty.
    pub fn export_delta(&self, digest: &Value) -> (Value, Value) {
        let empty = Map::new();
        let known = digest.as_map().unwrap_or(&empty);
        let upserts: Value = self
            .records
            .values()
            .filter(|r| {
                known
                    .get(&r.name)
                    .and_then(Value::as_int)
                    .map(|rev| (rev as u64) < r.rev)
                    .unwrap_or(true)
            })
            .map(Self::record_value)
            .collect();
        let removes: Value = known
            .iter()
            .filter(|&(name, _)| !self.records.contains_key(&**name))
            .map(|(name, rev)| {
                Value::map()
                    .with("name", &**name)
                    .with("rev", rev.as_int().unwrap_or(0))
            })
            .collect();
        (upserts, removes)
    }

    /// What this registry has moved past since `shipped` (an export-format
    /// record list, as a transfer carries) was taken: the shipped records it
    /// holds at a newer revision, as upserts, and those it no longer holds,
    /// as removes guarded by the shipped revision — the delta that brings a
    /// node that imported `shipped` to where this registry stands. Both
    /// lists are empty, and nothing is allocated, when nothing moved.
    pub fn moved_since(&self, shipped: &Value) -> (Value, Value) {
        let (mut upserts, mut removes) = (Vec::new(), Vec::new());
        for entry in shipped.as_list().unwrap_or_default() {
            let Some(name) = entry.get("name").and_then(Value::as_str) else {
                continue;
            };
            let rev = entry.get("rev").and_then(Value::as_int).unwrap_or(0);
            match self.records.get(name) {
                Some(r) if r.rev > rev as u64 => upserts.push(Self::record_value(r)),
                Some(_) => {}
                None => removes.push(Value::map().with("name", name).with("rev", rev)),
            }
        }
        (Value::List(upserts), Value::List(removes))
    }

    /// Applies a per-record delta (see [`export_delta`](Self::export_delta)).
    /// Upserts merge exactly like [`import`](Self::import) — revision
    /// regressions are refused — and removals only fire while the local
    /// revision still *equals* the guard: any ordered mutation interleaved
    /// between the digest and the delta (a redeploy, a claim) changes the
    /// revision and voids the removal.
    pub fn import_delta(&mut self, upserts: &Value, removes: &Value) {
        // (`import` moves the epoch.)
        self.import(upserts);
        let Some(list) = removes.as_list() else {
            return;
        };
        for entry in list {
            let Some(name) = entry.get("name").and_then(Value::as_str) else {
                continue;
            };
            let Some(rev) = entry.get("rev").and_then(Value::as_int) else {
                continue;
            };
            if self
                .records
                .get(name)
                .map(|r| r.rev == rev as u64)
                .unwrap_or(false)
            {
                self.records.remove(name);
            }
        }
    }

    /// Merges an exported snapshot into this registry: records the snapshot
    /// does not mention are **kept**, and a record it does mention is
    /// written only where it differs. Merge (rather than replace) semantics
    /// make sync storms safe: a stale snapshot — e.g. one exported before an
    /// in-flight `Deployed` re-sequenced — cannot wipe fresher records, and
    /// since every node applies the same syncs in the same total order, all
    /// copies still converge. Malformed entries are skipped (a sync must
    /// never wedge a joining node).
    ///
    /// A record held already is updated in place, so a member that is up to
    /// date — every member but the joiner — allocates nothing; only a
    /// record this registry lacks costs a name and a descriptor.
    pub fn import(&mut self, v: &Value) {
        self.epoch += 1;
        let Some(list) = v.as_list() else { return };
        for entry in list {
            let Some(name) = entry.get("name").and_then(Value::as_str) else {
                continue;
            };
            let Some(home) = entry.get("home").and_then(Value::as_int) else {
                continue;
            };
            let home = NodeId(home as u32);
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
            let descriptor = entry.get("descriptor").unwrap_or(&Value::Null);
            match self.records.get_mut(name) {
                // Refuse regressions: only adopt the incoming record if it
                // is at least as fresh as ours.
                Some(local) if rev < local.rev => {}
                // An *equal* revision still writes `home` and `status`: a
                // local `Orphaned` mark bumps no revision, and this is how a
                // sync carries one or clears it.
                Some(local) => {
                    local.home = home;
                    local.status = status;
                    local.rev = rev;
                    if local.descriptor != *descriptor {
                        local.descriptor = descriptor.clone();
                    }
                }
                None => {
                    self.records.insert(
                        name.to_owned(),
                        InstanceRecord {
                            name: name.to_owned(),
                            descriptor: descriptor.clone(),
                            home,
                            status,
                            rev,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::{prop, prop_verify_eq, TestRng};

    fn deployed(name: &str, home: u32) -> AppPayload {
        AppPayload::Deployed {
            name: name.into(),
            descriptor: Value::map().with("name", name),
            home: NodeId(home),
        }
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
        r.import(&copy.export());
        assert!(moved(&r));
        r.import_delta(&Value::List(Vec::new()), &Value::List(Vec::new()));
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
        let shipped = r.export();
        let (upserts, removes) = r.moved_since(&shipped);
        assert_eq!(
            (upserts.as_list(), removes.as_list()),
            (Some(&[][..]), Some(&[][..]))
        );
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
        assert_eq!(upserts.as_list().map(<[Value]>::len), Some(1));
        assert_eq!(removes.as_list().map(<[Value]>::len), Some(1));
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
        assert_eq!(r.placed_on(NodeId(1)), vec!["b"]);
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
        assert_eq!(r.placed_on(NodeId(1)), Vec::<String>::new());
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
        r2.import(&Value::decode(&r.export().encode()).unwrap());
        assert_eq!(r2, r);
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
        r2.import(&r.export());
        assert_eq!(r2, r);
        // Import through the binary codec (the wire path).
        let mut r3 = ClusterRegistry::new();
        r3.import(&Value::decode(&r.export().encode()).unwrap());
        assert_eq!(r3, r);
    }

    #[test]
    fn import_at_equal_revision_still_carries_status_and_home() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        // A peer marked `a` orphaned locally — no revision bump — and its
        // snapshot carries the mark at the revision this copy holds.
        let mut peer = r.clone();
        peer.orphan_homes(&[NodeId(0)]);
        r.import(&peer.export());
        assert_eq!(r.record("a").unwrap().status, InstanceStatus::Orphaned);
        assert_eq!(r.record("a").unwrap().rev, 1);
        // The same way a later snapshot clears it, and moves `home` with it.
        let placed = Value::map()
            .with("name", "a")
            .with("descriptor", Value::map().with("name", "a"))
            .with("home", 2u64)
            .with("status", "placed")
            .with("rev", 1u64);
        r.import(&Value::List(vec![placed]));
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
        r.import(&Value::decode(&r.export().encode()).unwrap());
        assert_eq!(r, before);
        let (upserts, removes) = r.export_delta(&Value::map());
        r.import_delta(&upserts, &removes);
        assert_eq!(r, before);
    }

    /// What `import` was before it merged in place — every accepted entry
    /// overwrites the whole record — kept as the model the merge is held to.
    fn reference_import(reg: &mut ClusterRegistry, v: &Value) {
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
                    descriptor: entry.get("descriptor").cloned().unwrap_or(Value::Null),
                    home: NodeId(home as u32),
                    status,
                    rev,
                },
            );
        }
    }

    fn node(rng: &mut TestRng) -> NodeId {
        NodeId(rng.u64_below(4) as u32)
    }

    fn descriptor(name: &str, rng: &mut TestRng) -> Value {
        let bundles: Value = (0..rng.u64_below(3))
            .map(|b| Value::Int(b as i64))
            .collect();
        Value::map().with("name", name).with("bundles", bundles)
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

    /// What a hostile or merely unlucky sender adds to a list of export
    /// records: entries at a revision `held` already has but with another
    /// status, home or descriptor, a missing `descriptor`, and garbage.
    fn tamper(payload: &mut Value, held: &ClusterRegistry, rng: &mut TestRng) {
        let Value::List(entries) = payload else {
            panic!("an export is a list");
        };
        for entry in entries.iter_mut() {
            let Value::Map(fields) = entry else {
                panic!("an export record is a map");
            };
            let name = fields
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned();
            if let Some(local) = held.record(&name) {
                if rng.chance(0.6) {
                    let rev = local.rev + rng.u64_below(3) - 1;
                    fields.insert("rev".into(), Value::Int(rev as i64));
                }
            }
            match rng.u64_below(8) {
                0 => drop(fields.remove("descriptor")),
                1 => drop(fields.insert("descriptor".into(), descriptor(&name, rng))),
                2 => drop(fields.insert("home".into(), Value::Int(node(rng).0.into()))),
                3 => {
                    let status = ["placed", "migrating", "orphaned", "quarantined", "lost"];
                    let status = status[rng.u64_below(5) as usize];
                    fields.insert("status".into(), status.into());
                    if rng.chance(0.8) {
                        fields.insert("to".into(), Value::Int(node(rng).0.into()));
                    }
                }
                _ => {}
            }
        }
        for _ in 0..rng.u64_below(3) {
            let garbage = match rng.u64_below(3) {
                0 => Value::Int(7),
                1 => Value::map().with("home", 1u64).with("status", "placed"),
                _ => Value::map().with("name", "i0").with("status", "placed"),
            };
            let at = rng.usize_in(0, entries.len());
            entries.insert(at, garbage);
        }
    }

    /// The in-place merge against the whole-record overwrite it replaced.
    /// Mutation-checked: skipping an entry at an equal revision, leaving the
    /// descriptor of a held record alone, and not writing `status` each fail.
    #[test]
    fn prop_import_matches_whole_record_overwrite() {
        let wire = |v: Value| Value::decode(&v.encode()).unwrap();
        let cfg = prop::Config::with_cases(300);
        let gen = prop::u64s(0, u64::MAX);
        prop::check_with(
            &cfg,
            "import_matches_whole_record_overwrite",
            &gen,
            |&seed| {
                let mut rng = TestRng::new(seed);
                let mut ours = ClusterRegistry::new();
                churn(&mut ours, &mut rng, 12);
                // The sender: a copy that went its own way — or, as after a
                // restart, one that never shared any history.
                let mut theirs = if rng.chance(0.8) {
                    ours.clone()
                } else {
                    ClusterRegistry::new()
                };
                let diverge = rng.u64_below(10);
                churn(&mut theirs, &mut rng, diverge);
                churn(&mut ours, &mut rng, diverge / 2);
                let mut model = ours.clone();
                if rng.chance(0.5) {
                    let mut snapshot = wire(theirs.export());
                    tamper(&mut snapshot, &ours, &mut rng);
                    ours.import(&snapshot);
                    reference_import(&mut model, &snapshot);
                } else {
                    let digest = if rng.chance(0.3) {
                        Value::map()
                    } else {
                        ours.digest()
                    };
                    let (upserts, removes) = theirs.export_delta(&wire(digest));
                    let (mut upserts, removes) = (wire(upserts), wire(removes));
                    tamper(&mut upserts, &ours, &mut rng);
                    ours.import_delta(&upserts, &removes);
                    reference_import(&mut model, &upserts);
                    model.import_delta(&Value::List(Vec::new()), &removes);
                }
                prop_verify_eq!(ours, model);
                Ok(())
            },
        );
    }

    #[test]
    fn import_skips_garbage_entries() {
        let mut r = ClusterRegistry::new();
        r.import(&Value::List(vec![
            Value::map()
                .with("name", "ok")
                .with("home", 1u64)
                .with("status", "placed"),
            Value::map().with("home", 1u64), // no name
            Value::Int(7),                   // not a map
        ]));
        assert_eq!(r.len(), 1);
        assert!(r.record("ok").is_some());
        // Non-list import is a no-op.
        r.import(&Value::Null);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn delta_against_empty_digest_is_the_full_export() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.apply(&deployed("b", 1));
        let (upserts, removes) = r.export_delta(&Value::map());
        assert_eq!(upserts, r.export());
        assert_eq!(removes.as_list().unwrap().len(), 0);
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
        assert_eq!(upserts.as_list().unwrap().len(), 0);
        assert_eq!(removes.as_list().unwrap().len(), 0);
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
        let names: Vec<&str> = upserts
            .as_list()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, vec!["a", "c"]);
        assert_eq!(removes.as_list().unwrap().len(), 0);
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
        assert_eq!(upserts.as_list().unwrap().len(), 0);
        assert_eq!(removes.as_list().unwrap().len(), 1);

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
        let (upserts, removes) = r.export_delta(&Value::map());
        let mut r2 = ClusterRegistry::new();
        r2.import_delta(
            &Value::decode(&upserts.encode()).unwrap(),
            &Value::decode(&removes.encode()).unwrap(),
        );
        assert_eq!(r2, r);
    }

    #[test]
    fn import_delta_skips_garbage_removes() {
        let mut r = ClusterRegistry::new();
        r.apply(&deployed("a", 0));
        r.import_delta(
            &Value::List(Vec::new()),
            &Value::List(vec![
                Value::map().with("rev", 1u64), // no name
                Value::map().with("name", "a"), // no rev guard
                Value::Int(9),                  // not a map
            ]),
        );
        assert!(r.record("a").is_some());
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
