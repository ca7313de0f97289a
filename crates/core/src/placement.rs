//! Deterministic placement: where does an instance go?
//!
//! §3.2: after a failure *"the Migration Module (of the remaining nodes)
//! should use the knowledge about that node to redeploy the virtual
//! instances among the available nodes in a decentralized way."*
//!
//! Decentralization here is achieved by determinism: every survivor holds
//! the same replicated registry and the same agreed view, and placement is
//! a pure function of those two inputs — so each node computes the global
//! assignment independently, arrives at the same answer, and simply adopts
//! the instances assigned to itself. No election, no coordinator, no extra
//! round trips.

use crate::registry::ClusterRegistry;
use dosgi_net::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Chooses a destination among `candidates` (sorted): the one currently
/// hosting the fewest placed instances, ties to the lowest node id, given
/// the replicated registry and an accumulating count of assignments made
/// earlier in this same placement round (`pending` — so a batch of orphans
/// spreads instead of all landing on the same least-loaded node). `None`
/// when there is no candidate.
pub(crate) fn choose(
    candidates: &[NodeId],
    registry: &ClusterRegistry,
    pending: &BTreeMap<NodeId, usize>,
) -> Option<NodeId> {
    least_loaded(candidates, &registry.load_by_node(), pending)
}

fn least_loaded(
    candidates: &[NodeId],
    load: &BTreeMap<NodeId, usize>,
    pending: &BTreeMap<NodeId, usize>,
) -> Option<NodeId> {
    candidates
        .iter()
        .min_by_key(|n| load.get(n).copied().unwrap_or(0) + pending.get(n).copied().unwrap_or(0))
        .copied()
}

/// Assigns every orphan of `registry` to a candidate, spreading within the
/// batch. Returns `(instance, destination)` pairs in name order, the names
/// shared with the registry. The registry's load is read once: nothing in
/// the round writes it.
pub fn assign_all(candidates: &[NodeId], registry: &ClusterRegistry) -> Vec<(Arc<str>, NodeId)> {
    let load = registry.load_by_node();
    let mut pending: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut out = Vec::with_capacity(registry.orphans().count());
    for name in registry.orphans() {
        if let Some(dest) = least_loaded(candidates, &load, &pending) {
            *pending.entry(dest).or_insert(0) += 1;
            out.push((Arc::clone(name), dest));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AppPayload;
    use dosgi_testkit::{prop, prop_verify_eq, TestRng};
    use dosgi_vosgi::InstanceDescriptor;
    use std::rc::Rc;

    fn deployed(name: &str, home: u32) -> AppPayload {
        AppPayload::Deployed {
            name: name.into(),
            descriptor: Rc::new(InstanceDescriptor::builder(name, name).build()),
            home: NodeId(home),
        }
    }

    fn registry_with(homes: &[(&str, u32)]) -> ClusterRegistry {
        let mut r = ClusterRegistry::new();
        for (name, home) in homes {
            r.apply(&deployed(name, *home));
        }
        r
    }

    #[test]
    fn fewest_instances_picks_least_loaded() {
        let r = registry_with(&[("a", 0), ("b", 0), ("c", 1)]);
        let candidates = vec![NodeId(0), NodeId(1), NodeId(2)];
        let dest = choose(&candidates, &r, &BTreeMap::new()).unwrap();
        assert_eq!(dest, NodeId(2), "empty node wins");
    }

    #[test]
    fn batch_assignment_spreads() {
        let mut r = registry_with(&[("i0", 9), ("i1", 9), ("i2", 9), ("i3", 9)]);
        assert_eq!(r.orphan_homes(|n| n == NodeId(9)), 4);
        let candidates = vec![NodeId(0), NodeId(1)];
        let assignment = assign_all(&candidates, &r);
        let on0 = assignment.iter().filter(|(_, n)| *n == NodeId(0)).count();
        let on1 = assignment.iter().filter(|(_, n)| *n == NodeId(1)).count();
        assert_eq!(on0, 2);
        assert_eq!(on1, 2);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let r = registry_with(&[]);
        assert_eq!(choose(&[], &r, &BTreeMap::new()), None);
    }

    /// What `assign_all` was before it read the load once: a fresh
    /// `choose`, and with it a fresh load, for every orphan.
    fn assign_each(candidates: &[NodeId], registry: &ClusterRegistry) -> Vec<(Arc<str>, NodeId)> {
        let mut pending: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut out = Vec::new();
        for name in registry.orphans() {
            if let Some(dest) = choose(candidates, registry, &pending) {
                *pending.entry(dest).or_insert(0) += 1;
                out.push((name.clone(), dest));
            }
        }
        out
    }

    /// Mutation-checked: an `assign_all` that forgets to count its own
    /// assignments (no `pending`) fails.
    #[test]
    fn prop_assign_all_matches_a_choice_per_orphan() {
        let cfg = prop::Config::with_cases(200);
        prop::check_with(
            &cfg,
            "assign_all_matches_a_choice_per_orphan",
            &prop::u64s(0, u64::MAX),
            |&seed| {
                let mut rng = TestRng::new(seed);
                let mut r = registry_with(&[]);
                for i in 0..rng.u64_below(12) {
                    r.apply(&deployed(&format!("i{i}"), rng.u64_below(5) as u32));
                    if rng.chance(0.3) {
                        let gone = NodeId(rng.u64_below(5) as u32);
                        r.orphan_homes(|n| n == gone);
                    }
                }
                let candidates: Vec<NodeId> =
                    (0..5).filter(|_| rng.chance(0.7)).map(NodeId).collect();
                prop_verify_eq!(assign_all(&candidates, &r), assign_each(&candidates, &r));
                Ok(())
            },
        );
    }
}
