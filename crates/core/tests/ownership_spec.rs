//! The registry's ownership as an executable spec.
//!
//! [`Model`] is a pure description of who owns each instance, in the style
//! of Blech's OSGi formalization: a name *is* its home, its placement
//! status and its revision (plus which deploy made it, its incarnation).
//! Each ordered payload, each view change and each transfer names the
//! states it applies from and what it leaves:
//!
//! | change | applies from | leaves |
//! |---|---|---|
//! | `Deployed { home }` | any | `Placed` on `home`, revision one past the held one (1 if none) |
//! | `Migrate { to }` | held, not `Orphaned` | `Migrating { to }` |
//! | `Released { to }` | held, not `Orphaned` | `Placed` on `to` |
//! | `Adopted { node, prior_home }` | `Orphaned`, or depending on `prior_home` | `Placed` on `node` |
//! | `Quarantined { node }` | homed on `node`, not `Quarantined` | `Quarantined` |
//! | `Undeployed` | any | nothing |
//! | a view change that drops `left` | depending on a node of `left`, not `Orphaned` | `Orphaned`, same revision |
//! | a transfer carrying a record | held at the carried revision, same incarnation | the carried home and status |
//!
//! A record *depends on* its home and, while `Migrating`, its destination.
//! Every ordered payload that takes effect moves the revision by one; a
//! payload from any other state leaves the record as it was. A view
//! change's mark moves no revision.
//!
//! So a transfer overwrites one thing only: an equal revision's placement,
//! which is how a sync carries an orphan mark to a joiner or clears one the
//! joiner made alone (a mark the exporter had not made yet is lost with it,
//! and the stranded sweep makes it again). What was ordered after the
//! transfer was taken survives it: a newer revision, a removal, a redeploy.
//!
//! The property runs that model against 3–5 [`ClusterRegistry`]s driven the
//! way nodes drive them. A node is a member of the primary view, waiting
//! (restarted, in the view and following the ordered stream, its transfer
//! not yet applied) or away (cut off, or crashed and restarted empty: it
//! applies nothing ordered and may mark orphans of its own). Every ordered
//! payload and view change reaches the model and every node in the view at
//! once, and a settled member's `apply` reports what the model did. A
//! transfer is taken at one stream position and applied at a later one, as
//! a node's is:
//!
//! - a view change that admits away nodes has the lowest member export a
//!   `RegistryTransfer` of every record, which every node in the view
//!   imports at its position;
//! - a node that restarts inside the suspicion timeout asks with a `Hello`,
//!   which the lowest other member answers with a `RegistryTransfer` of
//!   what its digest lacks; one whose
//!   transfer was cut asks again, and every member answers;
//! - where a transfer is applied, the lowest node in the view that is not
//!   among its addressees ships what moved since the transfer was taken.
//!
//! A rejoin transfer may be cut, as seeds 1024 and 1905 cut theirs. At
//! quiescence — no transfer in flight, then every away or waiting node
//! admitted by one sync or answered by one delta — every registry must read
//! what the model holds, so every name has exactly one home. The cases
//! leave out the rejoin transfer's known gaps, each named where it is left
//! out (`World::left_out`, `World::rejoining`, `World::survives`, `Cut`).

use dosgi_core::{AppPayload, ClusterRegistry, InstanceRecord, InstanceStatus};
use dosgi_net::NodeId;
use dosgi_testkit::{prop, Gen, PropResult};
use dosgi_vosgi::{InstanceDescriptor, ResourceQuota};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// What the model holds for one name. `tag` tells incarnations apart: it
/// is the step that deployed it, carried in the descriptor's memory quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Own {
    home: NodeId,
    status: InstanceStatus,
    rev: u64,
    tag: u64,
}

impl Own {
    fn depends_on(&self, node: NodeId) -> bool {
        self.home == node || self.status == InstanceStatus::Migrating { to: node }
    }
}

type Owned = BTreeMap<String, Own>;

/// The ordered state, as the primary view holds it.
#[derive(Debug, Clone, Default)]
struct Model(Owned);

impl Model {
    /// One ordered payload: the first arm whose state it applies from.
    /// Returns whether it took effect.
    fn ordered(&mut self, payload: &AppPayload, tag: u64) -> bool {
        use InstanceStatus::{Migrating, Orphaned, Placed, Quarantined};
        let Some(name) = name_of(payload) else {
            return false;
        };
        let held = self.0.get(name).copied();
        let next = match (payload, held) {
            (AppPayload::Deployed { home, .. }, _) => Some(Own {
                home: *home,
                status: Placed,
                rev: held.map_or(0, |h| h.rev) + 1,
                tag,
            }),
            (AppPayload::Undeployed { .. }, _) | (_, None) => None,
            (AppPayload::Migrate { to, .. }, Some(h)) if h.status != Orphaned => Some(Own {
                status: Migrating { to: *to },
                rev: h.rev + 1,
                ..h
            }),
            (AppPayload::Released { to, .. }, Some(h)) if h.status != Orphaned => Some(Own {
                home: *to,
                status: Placed,
                rev: h.rev + 1,
                ..h
            }),
            (
                AppPayload::Adopted {
                    node, prior_home, ..
                },
                Some(h),
            ) if h.status == Orphaned || h.depends_on(*prior_home) => Some(Own {
                home: *node,
                status: Placed,
                rev: h.rev + 1,
                ..h
            }),
            (AppPayload::Quarantined { node, .. }, Some(h))
                if h.home == *node && h.status != Quarantined =>
            {
                Some(Own {
                    status: Quarantined,
                    rev: h.rev + 1,
                    ..h
                })
            }
            // From any other state the payload lost a race: nothing moves.
            _ => return false,
        };
        match next {
            Some(own) => {
                self.0.insert(name.to_owned(), own);
                true
            }
            None => self.0.remove(name).is_some(),
        }
    }

    /// A view change that drops `left`.
    fn leave(&mut self, left: NodeId) {
        for own in self.0.values_mut() {
            if own.status != InstanceStatus::Orphaned && own.depends_on(left) {
                own.status = InstanceStatus::Orphaned;
            }
        }
    }

    /// A transfer taken when the model held `shipped`, applied now.
    fn transfer(&mut self, shipped: &Owned) {
        for (name, carried) in shipped {
            if let Some(own) = self.0.get_mut(name) {
                if own.tag == carried.tag && own.rev == carried.rev {
                    own.home = carried.home;
                    own.status = carried.status;
                }
            }
        }
    }

    /// The model's entries for the records a transfer carries.
    fn shipped(&self, records: &[InstanceRecord]) -> Owned {
        let carried = |r: &InstanceRecord| self.0.get_key_value(&*r.name);
        let entries = records.iter().filter_map(carried);
        entries.map(|(name, own)| (name.clone(), *own)).collect()
    }
}

fn name_of(payload: &AppPayload) -> Option<&str> {
    match payload {
        AppPayload::Deployed { name, .. }
        | AppPayload::Migrate { name, .. }
        | AppPayload::Released { name, .. }
        | AppPayload::Adopted { name, .. }
        | AppPayload::Quarantined { name, .. }
        | AppPayload::Undeployed { name } => Some(name),
        _ => None,
    }
}

/// What a registry holds, in the model's terms.
fn seen(registry: &ClusterRegistry) -> Owned {
    let own = |r: &InstanceRecord| Own {
        home: r.home,
        status: r.status,
        rev: r.rev,
        tag: r.descriptor.quota.memory_bytes,
    };
    registry
        .records()
        .map(|r| (r.name.to_string(), own(r)))
        .collect()
}

/// An ordered payload's raw choices, resolved against the model when it is
/// ordered: mostly the node the payload must name to take effect.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    name: u8,
    a: u8,
    b: u8,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// A payload is ordered and applied.
    Order(Op),
    /// A node leaves the primary view: a crash or a cut.
    Leave(u8),
    /// An away node marks orphans of its own (the homes in a mask).
    Mark(u8, u8),
    /// An away node restarts with an empty registry.
    Restart(u8),
    /// A view change admits the away nodes in a mask.
    Admit(u8),
    /// A member restarts inside the suspicion timeout and asks.
    Bounce(u8),
    /// The first transfer in flight reaches its position.
    Deliver,
    /// The first transfer in flight, if it is for restarted nodes only, is
    /// lost.
    Cut,
    /// A waiting node whose transfer is lost asks again.
    Ask(u8),
}

/// Where a node stands: as its transfer state and the view make it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seat {
    /// In the view, holding the registry.
    Member,
    /// In the view and following the stream, restarted and waiting for a
    /// transfer addressed to it.
    Waiting,
    /// Out of the view, with the registry it had (cut off).
    Away,
    /// Out of the view, restarted with an empty one (crashed).
    Restarted,
}

impl Seat {
    fn away(self) -> bool {
        matches!(self, Seat::Away | Seat::Restarted)
    }
}

enum Payload {
    Sync(Vec<InstanceRecord>),
    Delta(Vec<InstanceRecord>, Vec<(Arc<str>, u64)>),
}

/// A transfer in flight: what it carries, the nodes it is for, and the
/// model's entries for it when it was taken. A delta is addressed to the
/// first of them; a sync's correction is for every joiner.
struct Transfer {
    payload: Payload,
    to: Vec<NodeId>,
    shipped: Owned,
}

impl Transfer {
    fn carries(&self, name: &str) -> bool {
        let (records, removes): (&[InstanceRecord], &[_]) = match &self.payload {
            Payload::Sync(records) => (records, &[]),
            Payload::Delta(upserts, removes) => (upserts, removes),
        };
        records.iter().any(|r| *r.name == *name) || removes.iter().any(|(n, _)| **n == *name)
    }
}

/// How often the cases reach what the property is about, over a run.
#[derive(Default)]
struct Tally {
    /// Transfers applied after a write or a removal they did not carry.
    overtaken: Cell<u32>,
    /// Corrections shipped.
    corrections: Cell<u32>,
    /// Rejoin transfers cut.
    cuts: Cell<u32>,
}

fn bump(count: &Cell<u32>) {
    count.set(count.get() + 1);
}

struct World<'t> {
    model: Model,
    nodes: Vec<(ClusterRegistry, Seat)>,
    flight: Vec<Transfer>,
    tally: &'t Tally,
}

impl<'t> World<'t> {
    fn new(n: usize, tally: &'t Tally) -> Self {
        World {
            model: Model::default(),
            nodes: (0..n)
                .map(|_| (ClusterRegistry::new(), Seat::Member))
                .collect(),
            flight: Vec::new(),
            tally,
        }
    }

    fn node(&self, raw: u8) -> NodeId {
        NodeId(u32::from(raw) % self.nodes.len() as u32)
    }

    fn seat(&self, node: NodeId) -> Seat {
        self.nodes[node.index()].1
    }

    fn in_view(&self) -> impl Iterator<Item = NodeId> + '_ {
        let ids = (0..self.nodes.len() as u32).map(NodeId);
        ids.filter(|&n| !self.seat(n).away())
    }

    fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.in_view().filter(|&n| self.seat(n) == Seat::Member)
    }

    fn in_view_mut(&mut self) -> impl Iterator<Item = &mut ClusterRegistry> {
        self.nodes
            .iter_mut()
            .filter(|(_, seat)| !seat.away())
            .map(|(registry, _)| registry)
    }

    fn registry(&self, node: NodeId) -> &ClusterRegistry {
        &self.nodes[node.index()].0
    }

    fn payload(&self, op: Op, tag: u64) -> AppPayload {
        let name: Arc<str> = format!("i{}", op.name % 4).into();
        let held = self.model.0.get(&*name);
        let (a, b) = (self.node(op.a), self.node(op.b));
        let home = held.map_or(a, |h| h.home);
        let to = match held.map(|h| h.status) {
            Some(InstanceStatus::Migrating { to }) if !op.b.is_multiple_of(4) => to,
            _ => b,
        };
        match op.kind % 8 {
            0 | 1 => {
                let quota = ResourceQuota {
                    memory_bytes: tag,
                    ..ResourceQuota::standard()
                };
                let descriptor = InstanceDescriptor::builder("spec", &name).quota(quota);
                AppPayload::Deployed {
                    name,
                    descriptor: Rc::new(descriptor.build()),
                    home: a,
                }
            }
            2 => AppPayload::Migrate {
                name,
                from: home,
                to: b,
            },
            3 => AppPayload::Released { name, to },
            4 | 5 => AppPayload::Adopted {
                name,
                node: a,
                prior_home: if op.b.is_multiple_of(2) { home } else { to },
            },
            6 => AppPayload::Quarantined {
                name,
                node: if op.b.is_multiple_of(4) { b } else { home },
            },
            _ => AppPayload::Undeployed { name },
        }
    }

    fn step(&mut self, at: usize, step: Step) -> PropResult {
        match step {
            Step::Order(op) => {
                let payload = self.payload(op, at as u64 + 1);
                if self.left_out(&payload) {
                    return Ok(());
                }
                let took = self.model.ordered(&payload, at as u64 + 1);
                // A settled member reports what the model did.
                let settled: Vec<NodeId> = self.members().filter(|&m| !self.owed(m)).collect();
                for n in self.in_view().collect::<Vec<_>>() {
                    let applied = self.nodes[n.index()].0.apply(&payload);
                    if settled.contains(&n) && applied != took {
                        return Err(format!(
                            "step {at}: node {} applied {payload:?}: {applied}",
                            n.0
                        ));
                    }
                }
            }
            Step::Leave(raw) => {
                let left = self.node(raw);
                if !self.seat(left).away() && self.survives(left) && !self.rejoining() {
                    self.nodes[left.index()].1 = Seat::Away;
                    self.model.leave(left);
                    self.in_view_mut().for_each(|r| {
                        r.orphan_homes(|n| n == left);
                    });
                }
            }
            Step::Mark(raw, mask) => {
                let node = self.node(raw);
                if self.seat(node).away() {
                    let homes = |n: NodeId| mask >> n.0 & 1 == 1;
                    self.nodes[node.index()].0.orphan_homes(homes);
                }
            }
            Step::Restart(raw) => {
                let node = self.node(raw);
                if self.seat(node).away() {
                    self.nodes[node.index()] = (ClusterRegistry::new(), Seat::Restarted);
                }
            }
            Step::Admit(mask) if !self.rejoining() => self.admit(|n| mask >> n.0 & 1 == 1),
            Step::Bounce(raw) if !self.rejoining() => {
                let node = self.node(raw);
                if self.seat(node) == Seat::Member && self.survives(node) {
                    self.nodes[node.index()] = (ClusterRegistry::new(), Seat::Waiting);
                    self.ask(node, false);
                }
            }
            Step::Admit(_) | Step::Bounce(_) => {}
            Step::Deliver => self.deliver(),
            Step::Cut => {
                // Only a transfer for restarted nodes: a node that was cut
                // off holds the registry already, so it never asks again
                // for a sync that is lost (a gap, ROADMAP item 1(a)).
                let rejoin = |t: &Transfer| {
                    let waiting = |n: &NodeId| self.seat(*n) == Seat::Waiting;
                    t.to.iter().all(waiting)
                };
                if self.flight.first().is_some_and(rejoin) {
                    self.flight.remove(0);
                    bump(&self.tally.cuts);
                }
            }
            Step::Ask(raw) => {
                let node = self.node(raw);
                if self.seat(node) == Seat::Waiting && !self.owed(node) {
                    self.ask(node, true);
                }
            }
        }
        Ok(())
    }

    /// True if a member other than `node` holds the registry: the primary
    /// view never loses its last one, which takes syncs and answers.
    fn survives(&self, node: NodeId) -> bool {
        self.members().any(|m| m != node)
    }

    /// True if a transfer in flight is addressed to `node`.
    fn owed(&self, node: NodeId) -> bool {
        self.flight.iter().any(|t| t.to.contains(&node))
    }

    /// True while a rejoin is under way: a node waits for its transfer,
    /// or a transfer or its correction is in flight. View changes wait
    /// until it has landed (gaps): a node still waiting, or still owed a
    /// correction, may be the lowest in the view and export a sync or
    /// correct a transfer from a registry that is behind; a departure may
    /// take the last node that could correct it, or leave holding a record
    /// a transfer put back.
    fn rejoining(&self) -> bool {
        let waiting = self.nodes.iter().any(|(_, seat)| *seat == Seat::Waiting);
        waiting || !self.flight.is_empty()
    }

    /// True for a payload the property leaves out, each a gap of the
    /// rejoin transfer that no fix has closed yet (ROADMAP item 1(a)):
    /// - an `Undeployed` of a name an away node holds: a sync does not
    ///   remove what it does not mention, so that node keeps the record
    ///   once admitted;
    /// - an `Undeployed` of a name more than one transfer in flight
    ///   carries (a retry's answers, say): the first one back puts the
    ///   record back where the next one's correction reads what moved;
    /// - any payload naming a name the model no longer holds while a
    ///   transfer carrying it is in flight: the transfer puts the record
    ///   back until its correction removes it, and a redeploy or a write
    ///   on the record in between moves the revision the removal is
    ///   guarded by (revisions restart at 1 on a redeploy);
    /// - any payload naming a name a sync's correction carries to more
    ///   than one joiner: a delta has one addressee, so the lowest node
    ///   other than it, which corrects it in turn, may be another joiner
    ///   still behind;
    /// - a hand-off, a claim or a quarantine while a member is owed a
    ///   transfer (a joiner that was cut off, or one whose correction is
    ///   in flight): a cut-off joiner's orphan marks are its own until the
    ///   sync lands, and each of these reads the status, so it may take
    ///   effect on that joiner alone (or everywhere but on it), past the
    ///   revision the sync carries — hole (a).
    fn left_out(&self, payload: &AppPayload) -> bool {
        let Some(name) = name_of(payload) else {
            return false;
        };
        let mut away = self.nodes.iter().filter(|(_, seat)| seat.away());
        let carried = self.flight.iter().filter(|t| t.carries(name)).count();
        let kept = matches!(payload, AppPayload::Undeployed { .. })
            && (carried > 1 || away.any(|(registry, _)| registry.record(name).is_some()));
        let limbo = !self.model.0.contains_key(name) && carried > 0;
        let shared = |t: &Transfer| matches!(t.payload, Payload::Delta(..)) && t.to.len() > 1;
        let overtaken = self.flight.iter().any(|t| shared(t) && t.carries(name));
        let guarded = !matches!(
            payload,
            AppPayload::Deployed { .. } | AppPayload::Undeployed { .. }
        );
        let unmarked = guarded && self.members().any(|m| self.owed(m));
        kept || limbo || overtaken || unmarked
    }

    /// A view change admitting the away nodes `joins` picks: the lowest
    /// member takes the sync at once, and it is applied when delivered.
    fn admit(&mut self, joins: impl Fn(NodeId) -> bool) {
        let ids = (0..self.nodes.len() as u32).map(NodeId);
        let joined: Vec<NodeId> = ids.filter(|&n| self.seat(n).away() && joins(n)).collect();
        let Some(sender) = self.members().next() else {
            return;
        };
        if joined.is_empty() {
            return;
        }
        // A restarted joiner waits for the sync; one that was cut off
        // holds the registry already, and imports it like a member.
        for n in &joined {
            let seat = &mut self.nodes[n.index()].1;
            *seat = match seat {
                Seat::Restarted => Seat::Waiting,
                _ => Seat::Member,
            };
        }
        let records: Vec<InstanceRecord> = self.registry(sender).records().cloned().collect();
        self.flight.push(Transfer {
            payload: Payload::Sync(records),
            to: joined,
            shipped: self.model.0.clone(),
        });
    }

    /// `node` orders a `Hello` with its digest. The lowest other member
    /// answers a first ask if it holds anything and the delta is not
    /// empty; every member answers a retry.
    fn ask(&mut self, node: NodeId, retry: bool) {
        let digest = self.registry(node).digest();
        let lowest = self.in_view().find(|&m| m != node);
        let responders: Vec<NodeId> = self.members().filter(|&m| m != node).collect();
        for m in responders {
            let first = Some(m) == lowest && !self.registry(m).is_empty();
            if !retry && !first {
                continue;
            }
            let (upserts, removes) = self.registry(m).export_delta(&digest);
            if retry || !upserts.is_empty() || !removes.is_empty() {
                self.ship_transfer(&[node], upserts, removes);
            }
        }
    }

    fn ship_transfer(
        &mut self,
        to: &[NodeId],
        upserts: Vec<InstanceRecord>,
        removes: Vec<(Arc<str>, u64)>,
    ) {
        self.flight.push(Transfer {
            shipped: self.model.shipped(&upserts),
            payload: Payload::Delta(upserts, removes),
            to: to.to_vec(),
        });
    }

    /// The lowest node in the view that is not among a transfer's
    /// `addressees` (a delta's is its first node, a sync's are all its
    /// joiners), if it holds the registry, ships what moved since the
    /// transfer was taken, for the nodes the transfer was `for_nodes`.
    fn correct(&mut self, shipped: &[InstanceRecord], addressees: &[NodeId], for_nodes: &[NodeId]) {
        let sender = self.in_view().find(|n| !addressees.contains(n));
        let Some(sender) = sender.filter(|&n| self.seat(n) == Seat::Member) else {
            return;
        };
        let (moved, gone) = self.registry(sender).moved_since(shipped);
        if !moved.is_empty() || !gone.is_empty() {
            bump(&self.tally.corrections);
            self.ship_transfer(for_nodes, moved, gone);
        }
    }

    /// The first transfer in flight reaches its position: every node in
    /// the view applies it, and its addressees hold the registry.
    fn deliver(&mut self) {
        if self.flight.is_empty() {
            return;
        }
        let transfer = self.flight.remove(0);
        let held = |(name, own): (&String, &Own)| self.model.0.get(name) == Some(own);
        if !transfer.shipped.iter().all(held) {
            bump(&self.tally.overtaken);
        }
        let to = &transfer.to;
        match &transfer.payload {
            Payload::Sync(records) => {
                self.correct(records, to, to);
                self.in_view_mut().for_each(|r| r.import(records, &[]));
            }
            Payload::Delta(upserts, removes) => {
                self.correct(upserts, &to[..1], to);
                self.in_view_mut().for_each(|r| r.import(upserts, removes));
            }
        }
        self.model.transfer(&transfer.shipped);
        for n in &transfer.to {
            if self.seat(*n) == Seat::Waiting {
                self.nodes[n.index()].1 = Seat::Member;
            }
        }
    }

    fn drain(&mut self) {
        while !self.flight.is_empty() {
            self.deliver();
        }
    }

    /// Every node named by `nodes` reads what the model holds.
    fn agrees(&self, nodes: impl Iterator<Item = NodeId>, when: &str) -> PropResult {
        for n in nodes {
            let got = seen(self.registry(n));
            if got != self.model.0 {
                return Err(format!(
                    "{when}: node {} holds\n    {got:?}\n  the model holds\n    {:?}",
                    n.0, self.model.0
                ));
            }
        }
        Ok(())
    }

    /// Quiescence: nothing in flight, and every member agrees; then every
    /// away node is admitted by one sync, every waiting one answered, and
    /// every node agrees.
    fn quiesce(&mut self) -> PropResult {
        self.drain();
        let members: Vec<NodeId> = self.members().collect();
        self.agrees(members.into_iter(), "members, nothing in flight")?;
        self.admit(|_| true);
        self.drain();
        let ids = (0..self.nodes.len() as u32).map(NodeId);
        let waiting: Vec<NodeId> = ids.filter(|&n| self.seat(n) == Seat::Waiting).collect();
        for n in waiting {
            self.ask(n, true);
        }
        self.drain();
        let all = (0..self.nodes.len() as u32).map(NodeId);
        self.agrees(all, "every node, quiescent")
    }
}

#[derive(Debug, Clone)]
struct Case {
    nodes: usize,
    steps: Vec<Step>,
}

fn run_case(case: &Case, tally: &Tally) -> PropResult {
    let mut world = World::new(case.nodes, tally);
    for (at, &step) in case.steps.iter().enumerate() {
        world.step(at, step)?;
    }
    world.quiesce()
}

fn cases() -> Gen<Case> {
    let raw = || prop::u8s(0, 255);
    let op = Gen::new(move |rng| Op {
        kind: rng.u64_below(8) as u8,
        name: rng.u64_below(4) as u8,
        a: raw().sample(rng),
        b: raw().sample(rng),
    });
    let step = prop::one_of(vec![
        op.map(Step::Order),
        op.map(Step::Order),
        op.map(Step::Order),
        op.map(Step::Order),
        op.map(Step::Order),
        op.map(Step::Order),
        raw().map(Step::Leave),
        Gen::new(move |rng| Step::Mark(raw().sample(rng), raw().sample(rng))),
        raw().map(Step::Restart),
        raw().map(Step::Admit),
        raw().map(Step::Bounce),
        Gen::new(|_| Step::Deliver),
        Gen::new(|_| Step::Deliver),
        Gen::new(|_| Step::Cut),
        raw().map(Step::Ask),
    ]);
    let steps = prop::vecs(step, 1, 40);
    Gen::new(move |rng| Case {
        nodes: rng.usize_in(3, 5),
        steps: steps.sample(rng),
    })
}

fn shrink(case: &Case) -> Vec<Case> {
    let steps = prop::shrink_vec(&case.steps).into_iter();
    let fewer = (case.nodes > 3).then(|| Case {
        nodes: case.nodes - 1,
        steps: case.steps.clone(),
    });
    let shorter = steps.map(|steps| Case {
        nodes: case.nodes,
        steps,
    });
    fewer.into_iter().chain(shorter).collect()
}

#[test]
fn every_registry_follows_the_ownership_model() {
    let tally = Tally::default();
    prop::check_shrink(
        &prop::Config::with_cases(500),
        "every_registry_follows_the_ownership_model",
        &cases(),
        shrink,
        |case| run_case(case, &tally),
    );
    let reached = [&tally.overtaken, &tally.corrections, &tally.cuts].map(Cell::get);
    assert!(reached.iter().all(|&n| n > 0), "{reached:?}");
}
