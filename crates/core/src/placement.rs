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
    let load = registry.load_by_node();
    candidates
        .iter()
        .min_by_key(|n| load.get(n).copied().unwrap_or(0) + pending.get(n).copied().unwrap_or(0))
        .copied()
}

/// Assigns every `orphan` to a candidate, spreading within the batch.
/// Returns `(instance, destination)` pairs in input order.
pub(crate) fn assign_all(
    orphans: &[String],
    candidates: &[NodeId],
    registry: &ClusterRegistry,
) -> Vec<(String, NodeId)> {
    let mut pending: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut out = Vec::with_capacity(orphans.len());
    for name in orphans {
        if let Some(dest) = choose(candidates, registry, &pending) {
            *pending.entry(dest).or_insert(0) += 1;
            out.push((name.clone(), dest));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AppPayload;
    use dosgi_san::Value;

    fn registry_with(homes: &[(&str, u32)]) -> ClusterRegistry {
        let mut r = ClusterRegistry::new();
        for (name, home) in homes {
            r.apply(&AppPayload::Deployed {
                name: (*name).to_owned(),
                descriptor: Value::Null,
                home: NodeId(*home),
            });
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
        let r = registry_with(&[]);
        let candidates = vec![NodeId(0), NodeId(1)];
        let orphans: Vec<String> = (0..4).map(|i| format!("i{i}")).collect();
        let assignment = assign_all(&orphans, &candidates, &r);
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
}
