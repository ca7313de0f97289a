//! Membership views.

use dosgi_net::NodeId;
use std::fmt;

/// A view identifier: `(epoch, proposer)`, totally ordered. Higher epochs
/// supersede lower; the proposer id breaks ties between concurrent
/// proposals (which can only arise across a partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ViewId {
    /// Monotonically increasing epoch.
    pub epoch: u64,
    /// The node that proposed the view.
    pub proposer: NodeId,
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}@{}", self.epoch, self.proposer)
    }
}

/// An agreed membership view: the set of nodes currently believed alive.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct View {
    /// The view's identifier.
    pub id: ViewId,
    /// Members, sorted ascending. The first member is the coordinator
    /// (lowest live id), which also acts as the total-order sequencer.
    pub members: Vec<NodeId>,
    /// The coordinator's ordered-stream position (last assigned global
    /// sequence number) when this view was proposed. Whoever this view
    /// makes a member of that stream — every member when the coordinator
    /// changes, the admitted nodes when it stays — is joining an ongoing
    /// stream: it starts its delivery cursor just past `stream_base` rather
    /// than replaying the stream's history — messages ordered before it
    /// joined belong to a state it obtains via application-level state
    /// transfer, and re-applying them on top of that state is not
    /// idempotent.
    pub stream_base: u64,
}

impl View {
    /// Creates a view, sorting and deduplicating the members.
    pub fn new(id: ViewId, mut members: Vec<NodeId>) -> Self {
        members.sort();
        members.dedup();
        View {
            id,
            members,
            stream_base: 0,
        }
    }

    /// Sets the ordered-stream base (see the field docs).
    pub fn with_stream_base(mut self, stream_base: u64) -> Self {
        self.stream_base = stream_base;
        self
    }

    /// The coordinator: lowest member id.
    pub fn coordinator(&self) -> Option<NodeId> {
        self.members.first().copied()
    }

    /// True if `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True for the empty view.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True if this view contains a strict majority of `universe_size`
    /// nodes — the primary-component test that gates failover actions.
    pub fn has_majority(&self, universe_size: usize) -> bool {
        self.members.len() * 2 > universe_size
    }

    /// Members in `self` but not `older` (joined) and members in `older`
    /// but not `self` (left).
    pub fn diff(&self, older: &View) -> (Vec<NodeId>, Vec<NodeId>) {
        let joined = self
            .members
            .iter()
            .filter(|m| !older.contains(**m))
            .copied()
            .collect();
        let left = older
            .members
            .iter()
            .filter(|m| !self.contains(**m))
            .copied()
            .collect();
        (joined, left)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(epoch: u64, members: &[u32]) -> View {
        View::new(
            ViewId {
                epoch,
                proposer: NodeId(members.first().copied().unwrap_or(0)),
            },
            members.iter().map(|&i| NodeId(i)).collect(),
        )
    }

    #[test]
    fn members_sorted_and_deduped() {
        let view = View::new(ViewId::default(), vec![NodeId(2), NodeId(0), NodeId(2)]);
        assert_eq!(view.members, vec![NodeId(0), NodeId(2)]);
        assert_eq!(view.coordinator(), Some(NodeId(0)));
        assert!(view.contains(NodeId(2)));
        assert!(!view.contains(NodeId(1)));
    }

    #[test]
    fn view_ids_order_lexicographically() {
        let a = ViewId {
            epoch: 1,
            proposer: NodeId(5),
        };
        let b = ViewId {
            epoch: 2,
            proposer: NodeId(0),
        };
        let c = ViewId {
            epoch: 2,
            proposer: NodeId(1),
        };
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn majority_test() {
        assert!(v(1, &[0, 1, 2]).has_majority(5));
        assert!(!v(1, &[0, 1]).has_majority(5));
        assert!(!v(1, &[0]).has_majority(2)); // exactly half is not majority
        assert!(v(1, &[0, 1]).has_majority(3));
    }

    #[test]
    fn diff_computes_joins_and_leaves() {
        let old = v(1, &[0, 1, 2]);
        let new = v(2, &[1, 2, 3]);
        let (joined, left) = new.diff(&old);
        assert_eq!(joined, vec![NodeId(3)]);
        assert_eq!(left, vec![NodeId(0)]);
        let (j2, l2) = new.diff(&new);
        assert!(j2.is_empty() && l2.is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(v(3, &[0, 2]).to_string(), "v3@n0{n0,n2}");
        assert!(View::default().is_empty());
    }
}
