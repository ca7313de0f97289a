//! Network partitions.

use crate::{FxHashSet, NodeId};

/// A set of network partitions: nodes in different groups cannot exchange
/// messages; nodes in the same group (or in no group at all) communicate
/// normally.
///
/// Partitions are the failure mode that distinguishes a *dependable*
/// distributed OSGi environment from a single-node one: the group
/// communication layer must not migrate a customer onto both sides of a
/// split. Experiments inject partitions through
/// [`SimNet::partition`](crate::SimNet::partition).
#[derive(Debug, Clone, Default)]
pub struct Partition {
    groups: Vec<FxHashSet<NodeId>>,
}

impl Partition {
    /// No partition: full connectivity.
    pub fn none() -> Self {
        Self::default()
    }

    /// Splits the network into the given groups.
    ///
    /// Nodes not mentioned in any group can talk to everyone — this models a
    /// partial partition where only some links are cut.
    ///
    /// # Panics
    ///
    /// Panics if a node appears in more than one group.
    pub fn split<I, G>(groups: I) -> Self
    where
        I: IntoIterator<Item = G>,
        G: IntoIterator<Item = NodeId>,
    {
        let groups: Vec<FxHashSet<NodeId>> = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
        let mut seen = FxHashSet::default();
        for g in &groups {
            for n in g {
                assert!(seen.insert(*n), "node {n} appears in multiple partitions");
            }
        }
        Partition { groups }
    }

    /// True if `a` and `b` can currently communicate.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let ga = self.groups.iter().position(|g| g.contains(&a));
        let gb = self.groups.iter().position(|g| g.contains(&b));
        match (ga, gb) {
            (Some(x), Some(y)) => x == y,
            // A node outside every group is connected to all.
            _ => ga.is_none() && gb.is_none() || ga.is_none() || gb.is_none(),
        }
    }

    /// True if there is no partition in effect.
    pub fn is_none(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_partition_connects_all() {
        let p = Partition::none();
        assert!(p.connected(NodeId(0), NodeId(1)));
        assert!(p.is_none());
    }

    #[test]
    fn split_blocks_cross_group() {
        let p = Partition::split([vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        assert!(p.connected(NodeId(0), NodeId(1)));
        assert!(!p.connected(NodeId(0), NodeId(2)));
        assert!(!p.connected(NodeId(2), NodeId(1)));
        assert!(p.connected(NodeId(2), NodeId(2)));
    }

    #[test]
    fn unlisted_nodes_remain_connected() {
        let p = Partition::split([vec![NodeId(0)], vec![NodeId(1)]]);
        // Node 5 is in no group: it can reach both sides.
        assert!(p.connected(NodeId(5), NodeId(0)));
        assert!(p.connected(NodeId(5), NodeId(1)));
        assert!(p.connected(NodeId(5), NodeId(6)));
    }

    #[test]
    #[should_panic(expected = "appears in multiple partitions")]
    fn overlapping_groups_rejected() {
        let _ = Partition::split([vec![NodeId(0)], vec![NodeId(0)]]);
    }
}
