//! Failure detection: who is alive, and which life of each peer this node
//! has heard from.
//!
//! A peer is alive while it has been heard from within the suspicion
//! timeout and has not announced its departure. Every peer's heartbeat
//! carries its incarnation, so a genuine restart is told from a suspicion
//! flap (DESIGN §6b, "Incarnation numbers").
//!
//! What the detector knows of each peer — when it was last heard, the
//! incarnation it advertised — sits in one vector beside the sorted peer
//! list, so the checks every wake runs walk two slices and look nothing up.

use crate::config::due;
use crate::{GcsConfig, View};
use dosgi_net::{NodeId, SimDuration, SimTime};

#[derive(Debug)]
pub(crate) struct Detector {
    /// The fixed universe, this node included, in id order.
    pub(crate) peers: Vec<NodeId>,
    /// What this node knows of each of `peers`, at the same index.
    heard: Vec<Heard>,
    config: GcsConfig,
    /// This node's life: its start time plus one, so never 0.
    pub(crate) incarnation: u64,
    last_hb_sent: Option<SimTime>,
}

/// What a detector knows of one peer.
#[derive(Debug, Clone, Copy)]
struct Heard {
    /// When it was last heard from; `None` once it announced its departure
    /// and until it is heard from again.
    at: Option<SimTime>,
    /// The incarnation it last advertised, if any.
    incarnation: Option<u64>,
}

impl Detector {
    /// A detector that has just heard every peer.
    pub fn new(mut peers: Vec<NodeId>, config: GcsConfig, now: SimTime) -> Self {
        peers.sort_unstable();
        let heard = Heard {
            at: Some(now),
            incarnation: None,
        };
        Detector {
            heard: vec![heard; peers.len()],
            peers,
            config,
            incarnation: now.as_micros().wrapping_add(1),
            last_hb_sent: None,
        }
    }

    /// What this node knows of `peer`; `None` for a node that is not one.
    fn of(&mut self, peer: NodeId) -> Option<&mut Heard> {
        let at = self.peers.binary_search(&peer).ok()?;
        self.heard.get_mut(at)
    }

    /// Any traffic counts as liveness. Traffic from a node that is not a
    /// peer changes nothing.
    pub fn heard(&mut self, from: NodeId, now: SimTime) {
        if let Some(h) = self.of(from) {
            h.at = Some(now);
        }
    }

    /// `from` announced a graceful departure.
    pub fn left(&mut self, from: NodeId) {
        if let Some(h) = self.of(from) {
            h.at = None;
        }
    }

    /// Records the incarnation `from` advertises; true when it replaces a
    /// different one, i.e. `from` truly restarted.
    pub fn restarted(&mut self, from: NodeId, incarnation: u64) -> bool {
        self.of(from).is_some_and(|h| {
            let prev = h.incarnation.replace(incarnation);
            prev.is_some_and(|prev| prev != incarnation)
        })
    }

    /// The incarnation of `peer` this node knows, 0 before it has heard one.
    pub fn incarnation_of(&self, peer: NodeId) -> u64 {
        let at = self.peers.binary_search(&peer).ok();
        at.and_then(|at| self.heard[at].incarnation).unwrap_or(0)
    }

    /// True, once per heartbeat interval, when a heartbeat is due; the
    /// caller sends it.
    pub fn beat(&mut self, now: SimTime) -> bool {
        due(&mut self.last_hb_sent, self.config.heartbeat_interval, now)
    }

    /// The peers alive at `now`, in id order: this node, and every peer
    /// heard from within the suspicion timeout that has not departed.
    pub fn alive(&self, me: NodeId, now: SimTime) -> impl Iterator<Item = NodeId> + '_ {
        let timeout = self.config.suspect_timeout();
        let live = move |(p, h): (&NodeId, &Heard)| {
            let heard = h.at.is_some_and(|at| now.since(at) <= timeout);
            (*p == me || heard).then_some(*p)
        };
        self.peers.iter().zip(&self.heard).filter_map(live)
    }

    /// True while the live peers are exactly `view`'s members (both are in
    /// id order).
    pub fn alive_match(&self, me: NodeId, view: &View, now: SimTime) -> bool {
        self.alive(me, now).eq(view.members.iter().copied())
    }

    /// The next heartbeat, or the moment the first member of `view` falls
    /// silent for longer than the suspicion timeout, whichever is first.
    pub fn next_deadline(&self, me: NodeId, view: &View, now: SimTime) -> SimTime {
        let mut at = self
            .last_hb_sent
            .map_or(now, |sent| sent + self.config.heartbeat_interval);
        // A member counts as alive up to and including `suspect_timeout` of
        // silence (every member has been heard, or it would not be alive).
        let suspect_after = self.config.suspect_timeout() + SimDuration::from_micros(1);
        // Both lists are in id order: one walk finds each member's slot.
        let mut peers = self.peers.iter().zip(&self.heard).peekable();
        for &m in view.members.iter() {
            while peers.next_if(|(p, _)| **p < m).is_some() {}
            let heard = peers.next_if(|(p, _)| **p == m).and_then(|(_, h)| h.at);
            if let Some(heard) = heard.filter(|_| m != me) {
                at = at.min(heard + suspect_after);
            }
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ViewId;
    use dosgi_testkit::prop::{self, Config, Gen};
    use dosgi_testkit::{prop_verify_eq, TestRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// The detector as it was kept in two maps and a set, to hold the
    /// dense one to.
    struct Maps {
        peers: Vec<NodeId>,
        config: GcsConfig,
        peer_incarnations: BTreeMap<NodeId, u64>,
        last_heard: BTreeMap<NodeId, SimTime>,
        last_hb_sent: Option<SimTime>,
        departed: BTreeSet<NodeId>,
    }

    impl Maps {
        fn new(mut peers: Vec<NodeId>, config: GcsConfig, now: SimTime) -> Self {
            peers.sort_unstable();
            let last_heard = peers.iter().map(|p| (*p, now)).collect();
            Maps {
                peers,
                config,
                peer_incarnations: BTreeMap::new(),
                last_heard,
                last_hb_sent: None,
                departed: BTreeSet::new(),
            }
        }

        fn heard(&mut self, from: NodeId, now: SimTime) {
            self.last_heard.insert(from, now);
            self.departed.remove(&from);
        }

        fn left(&mut self, from: NodeId) {
            self.departed.insert(from);
            self.last_heard.remove(&from);
        }

        fn restarted(&mut self, from: NodeId, incarnation: u64) -> bool {
            let prev = self.peer_incarnations.insert(from, incarnation);
            prev.is_some_and(|prev| prev != incarnation)
        }

        fn incarnation_of(&self, peer: NodeId) -> u64 {
            self.peer_incarnations.get(&peer).copied().unwrap_or(0)
        }

        fn beat(&mut self, now: SimTime) -> bool {
            due(&mut self.last_hb_sent, self.config.heartbeat_interval, now)
        }

        fn alive(&self, me: NodeId, now: SimTime) -> Vec<NodeId> {
            let timeout = self.config.suspect_timeout();
            let heard = |p: &NodeId| {
                self.last_heard
                    .get(p)
                    .is_some_and(|&at| now.since(at) <= timeout)
            };
            let live = |p: &NodeId| *p == me || (!self.departed.contains(p) && heard(p));
            self.peers.iter().copied().filter(live).collect()
        }

        fn alive_match(&self, me: NodeId, view: &View, now: SimTime) -> bool {
            self.alive(me, now).iter().eq(view.members.iter())
        }

        fn next_deadline(&self, me: NodeId, view: &View, now: SimTime) -> SimTime {
            let mut at = self
                .last_hb_sent
                .map_or(now, |sent| sent + self.config.heartbeat_interval);
            let suspect_after = self.config.suspect_timeout() + SimDuration::from_micros(1);
            for m in view.members.iter() {
                if let Some(&heard) = self.last_heard.get(m).filter(|_| *m != me) {
                    at = at.min(heard + suspect_after);
                }
            }
            at
        }
    }

    /// One input: traffic from a node, its departure, the incarnation it
    /// advertises, time passing, or a heartbeat asked for. Nodes 0–9, of
    /// which only some are peers.
    #[derive(Debug, Clone)]
    enum Input {
        Heard(u32),
        Left(u32),
        Restarted(u32, u64),
        Advance(u64),
        Beat,
    }

    /// Under random traffic, departures, restarts and senders that are not
    /// peers, the dense detector answers every question about its peers
    /// as the map-based one does — who is alive, whether a view matches
    /// them, the next deadline against views of them, incarnations and
    /// restarts — and knows nothing of a node that is not a peer.
    #[test]
    fn the_dense_detector_answers_as_the_maps_did_300_cases() {
        let runs = Gen::new(|rng: &mut TestRng| {
            let peers: Vec<u32> = (0..10).filter(|_| rng.chance(0.5)).collect();
            let peers = if peers.is_empty() { vec![3] } else { peers };
            let me = peers[rng.usize_in(0, peers.len() - 1)];
            let inputs = (0..rng.usize_in(1, 80))
                .map(|_| {
                    let node = rng.u64_below(10) as u32;
                    match rng.u64_below(10) {
                        0..=3 => Input::Heard(node),
                        4 => Input::Left(node),
                        5 | 6 => Input::Restarted(node, rng.u64_below(4)),
                        7 | 8 => Input::Advance(rng.u64_in(0, 300_000)),
                        _ => Input::Beat,
                    }
                })
                .collect::<Vec<_>>();
            let views = (0..4)
                .map(|_| peers.iter().copied().filter(|_| rng.chance(0.6)).collect())
                .collect::<Vec<Vec<u32>>>();
            (peers, me, inputs, views)
        });
        prop::check_with(&Config::with_cases(300), "dense_detector", &runs, |run| {
            let (peers, me, inputs, views) = run;
            let ids = |nodes: &[u32]| nodes.iter().map(|&n| NodeId(n)).collect::<Vec<_>>();
            let (peer_ids, me) = (ids(peers), NodeId(*me));
            let config = GcsConfig::default();
            let mut now = SimTime::from_millis(1);
            let mut dense = Detector::new(peer_ids.clone(), config, now);
            let mut maps = Maps::new(peer_ids.clone(), config, now);
            let mut views: Vec<View> = views
                .iter()
                .map(|v| View::new(ViewId::default(), &ids(v)))
                .collect();
            for (i, input) in inputs.iter().enumerate() {
                let is_peer = |n: &u32| peers.contains(n);
                match *input {
                    Input::Heard(n) => {
                        dense.heard(NodeId(n), now);
                        maps.heard(NodeId(n), now);
                    }
                    Input::Left(n) => {
                        dense.left(NodeId(n));
                        maps.left(NodeId(n));
                    }
                    Input::Restarted(n, inc) => {
                        let (got, want) = (
                            dense.restarted(NodeId(n), inc),
                            maps.restarted(NodeId(n), inc),
                        );
                        if is_peer(&n) {
                            prop_verify_eq!(got, want, "restarted, input {i}");
                        } else {
                            prop_verify_eq!(got, false, "a stranger restarted, input {i}");
                        }
                    }
                    Input::Advance(us) => now += SimDuration::from_micros(us),
                    Input::Beat => prop_verify_eq!(dense.beat(now), maps.beat(now)),
                }
                let alive = maps.alive(me, now);
                prop_verify_eq!(dense.alive(me, now).collect::<Vec<_>>(), alive.clone());
                views.push(View::new(ViewId::default(), &alive));
                for view in &views {
                    let members = &view.members;
                    prop_verify_eq!(
                        dense.alive_match(me, view, now),
                        maps.alive_match(me, view, now),
                        "alive_match {members:?}, input {i}"
                    );
                    prop_verify_eq!(
                        dense.next_deadline(me, view, now),
                        maps.next_deadline(me, view, now),
                        "next_deadline {members:?}, input {i}"
                    );
                }
                views.pop();
                for n in 0..10 {
                    let want = if is_peer(&n) {
                        maps.incarnation_of(NodeId(n))
                    } else {
                        0
                    };
                    prop_verify_eq!(dense.incarnation_of(NodeId(n)), want, "node {n}");
                }
            }
            Ok(())
        });
    }
}
