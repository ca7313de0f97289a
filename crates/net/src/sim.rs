//! The discrete-event network simulator.

use crate::{IpBindings, LinkConfig, NetStats, NodeId, Partition, SimDuration, SimTime};
use dosgi_testkit::TestRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// A delivered message together with its transit metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Simulated instant the message was sent.
    pub sent_at: SimTime,
    /// Simulated instant the message reached the destination mailbox.
    pub delivered_at: SimTime,
    /// The application payload.
    pub payload: M,
}

#[derive(Debug)]
struct Queued<M> {
    at: SimTime,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The deterministic message fabric connecting the cluster's nodes.
///
/// `SimNet` is generic over the payload type `M`, so upper layers exchange
/// ordinary Rust values — no serialization format is needed inside the
/// simulation. All nondeterminism (jitter, loss) comes from a single seeded
/// RNG, making runs reproducible.
///
/// Failure model:
///
/// * **crash-stop nodes** — [`crash`](Self::crash) silently discards traffic
///   to and from the node until [`restart`](Self::restart);
/// * **partitions** — [`partition`](Self::partition) installs a
///   [`Partition`]; messages crossing the split at *delivery* time are
///   dropped, so messages in flight when the partition forms are lost, as on
///   a real network;
/// * **message loss** — each link has an independent drop probability.
#[derive(Debug)]
pub struct SimNet<M> {
    now: SimTime,
    default_link: LinkConfig,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    partition: Partition,
    alive: Vec<bool>,
    mailboxes: Vec<VecDeque<Envelope<M>>>,
    queue: BinaryHeap<Reverse<Queued<M>>>,
    seq: u64,
    rng: TestRng,
    stats: NetStats,
    ips: IpBindings,
}

impl<M> SimNet<M> {
    /// Creates a network with the given default link quality and RNG seed.
    pub fn new(default_link: LinkConfig, seed: u64) -> Self {
        SimNet {
            now: SimTime::ZERO,
            default_link,
            links: HashMap::new(),
            partition: Partition::none(),
            alive: Vec::new(),
            mailboxes: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            rng: TestRng::new(seed),
            stats: NetStats::default(),
            ips: IpBindings::new(),
        }
    }

    /// Registers a new node and returns its id. Ids are dense and stable.
    pub fn register_node(&mut self) -> NodeId {
        let id = NodeId(self.alive.len() as u32);
        self.alive.push(true);
        self.mailboxes.push(VecDeque::new());
        id
    }

    /// Number of registered nodes (alive or crashed).
    pub fn node_count(&self) -> usize {
        self.alive.len()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Marks `node` as crashed. Its mailbox is cleared (a crashed process
    /// loses its volatile state) and traffic involving it is discarded.
    pub fn crash(&mut self, node: NodeId) {
        self.alive[node.index()] = false;
        self.mailboxes[node.index()].clear();
        self.ips.release_all(node);
    }

    /// Restarts a crashed node with an empty mailbox.
    pub fn restart(&mut self, node: NodeId) {
        self.alive[node.index()] = true;
        self.mailboxes[node.index()].clear();
    }

    /// True if the node is up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// Overrides the link quality between `a` and `b`, in both directions.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.links.insert((a, b), cfg);
        self.links.insert((b, a), cfg);
    }

    /// Installs a partition (replacing any previous one).
    pub fn partition(&mut self, p: Partition) {
        self.partition = p;
    }

    /// Removes any partition.
    pub fn heal(&mut self) {
        self.partition = Partition::none();
    }

    fn link(&self, from: NodeId, to: NodeId) -> LinkConfig {
        self.links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Sends `payload` from `from` to `to`, subject to link latency, jitter
    /// and loss. Messages from or to crashed nodes are silently discarded
    /// (counted in [`NetStats::dropped_dead`]).
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        self.stats.sent += 1;
        if !self.is_alive(from) || !self.is_alive(to) {
            self.stats.dropped_dead += 1;
            return;
        }
        let link = self.link(from, to);
        if link.loss > 0.0 && self.rng.f64() < link.loss {
            self.stats.lost += 1;
            return;
        }
        let jitter = if link.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.rng.u64_in(0, link.jitter.as_micros()))
        };
        let at = self.now + link.latency + jitter;
        let env = Envelope {
            from,
            to,
            sent_at: self.now,
            delivered_at: at,
            payload,
        };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Queued { at, seq, env }));
    }

    /// Pops the next message delivered to `node`, if any.
    pub fn recv(&mut self, node: NodeId) -> Option<Envelope<M>> {
        self.mailboxes[node.index()].pop_front()
    }

    /// Drains every pending message for `node` into a fresh vector: the
    /// driver's and the tests' view. A node's tick goes through
    /// [`Fabric::drain`](crate::Fabric::drain), which fills a buffer the
    /// node keeps.
    pub fn drain(&mut self, node: NodeId) -> Vec<Envelope<M>> {
        self.mailboxes[node.index()].drain(..).collect()
    }

    /// Number of messages waiting in `node`'s mailbox.
    pub fn pending(&self, node: NodeId) -> usize {
        self.mailboxes[node.index()].len()
    }

    /// Advances the clock by `d`, processing all events up to the new time.
    pub fn advance(&mut self, d: SimDuration) {
        let target = self.now + d;
        self.advance_to(target);
    }

    /// Advances the clock to `target`, processing all events due by then.
    ///
    /// # Panics
    ///
    /// Panics if `target` is in the past.
    pub fn advance_to(&mut self, target: SimTime) {
        assert!(target >= self.now, "cannot advance backwards");
        while let Some(Reverse(q)) = self.queue.peek() {
            if q.at > target {
                break;
            }
            let Reverse(q) = self.queue.pop().expect("peeked");
            self.now = q.at;
            self.dispatch(q.env);
        }
        self.now = target;
    }

    /// Advances to the next queued event, if any, and processes every event
    /// at that same instant. Returns the new now, or `None` if idle.
    pub fn step(&mut self) -> Option<SimTime> {
        let at = self.queue.peek().map(|Reverse(q)| q.at)?;
        self.advance_to(at);
        Some(at)
    }

    fn dispatch(&mut self, env: Envelope<M>) {
        if !self.is_alive(env.to) || !self.is_alive(env.from) {
            self.stats.dropped_dead += 1;
            return;
        }
        if !self.partition.connected(env.from, env.to) {
            self.stats.partitioned += 1;
            return;
        }
        self.stats.delivered += 1;
        self.mailboxes[env.to.index()].push_back(env);
    }

    /// Traffic counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Sends a copy of `payload` to every node in `to`.
    pub fn broadcast<I>(&mut self, from: NodeId, to: I, payload: M)
    where
        M: Clone,
        I: IntoIterator<Item = NodeId>,
    {
        for dest in to {
            if dest != from {
                self.send(from, dest, payload.clone());
            }
        }
    }

    /// Read access to the virtual-IP binding table.
    pub fn ips(&self) -> &IpBindings {
        &self.ips
    }

    /// Mutable access to the virtual-IP binding table.
    pub fn ips_mut(&mut self) -> &mut IpBindings {
        &mut self.ips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(seed: u64) -> SimNet<u32> {
        SimNet::new(LinkConfig::lan(), seed)
    }

    #[test]
    fn delivery_respects_latency() {
        let mut n = net(1);
        let a = n.register_node();
        let b = n.register_node();
        n.send(a, b, 7);
        // Nothing before the base latency.
        n.advance(SimDuration::from_micros(100));
        assert!(n.recv(b).is_none());
        // Latency 200us + jitter <= 100us.
        n.advance(SimDuration::from_micros(300));
        let env = n.recv(b).unwrap();
        assert_eq!(env.payload, 7);
        assert!(env.delivered_at >= SimTime::from_micros(200));
        assert!(env.delivered_at <= SimTime::from_micros(300));
    }

    #[test]
    fn fifo_per_link_with_equal_latency() {
        let mut n: SimNet<u32> = SimNet::new(LinkConfig::ideal(), 1);
        let a = n.register_node();
        let b = n.register_node();
        for i in 0..10 {
            n.send(a, b, i);
        }
        n.advance(SimDuration::from_millis(1));
        let got: Vec<u32> = n.drain(b).into_iter().map(|e| e.payload).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn crash_discards_traffic_and_mailbox() {
        let mut n = net(2);
        let a = n.register_node();
        let b = n.register_node();
        n.send(a, b, 1);
        n.crash(b);
        n.advance(SimDuration::from_millis(1));
        assert!(n.recv(b).is_none());
        assert_eq!(n.stats().dropped_dead, 1);
        // Sending to a dead node is counted immediately.
        n.send(a, b, 2);
        assert_eq!(n.stats().dropped_dead, 2);
        n.restart(b);
        n.send(a, b, 3);
        n.advance(SimDuration::from_millis(1));
        assert_eq!(n.recv(b).unwrap().payload, 3);
    }

    #[test]
    fn partition_drops_in_flight_messages() {
        let mut n = net(3);
        let a = n.register_node();
        let b = n.register_node();
        n.send(a, b, 1);
        // Partition forms while the message is in flight.
        n.partition(Partition::split([vec![a], vec![b]]));
        n.advance(SimDuration::from_millis(1));
        assert!(n.recv(b).is_none());
        assert_eq!(n.stats().partitioned, 1);
        n.heal();
        n.send(a, b, 2);
        n.advance(SimDuration::from_millis(1));
        assert_eq!(n.recv(b).unwrap().payload, 2);
    }

    #[test]
    fn loss_is_probabilistic_and_seeded() {
        let mut n: SimNet<u32> = SimNet::new(LinkConfig::lossy(0.5), 42);
        let a = n.register_node();
        let b = n.register_node();
        for i in 0..1000 {
            n.send(a, b, i);
        }
        n.advance(SimDuration::from_millis(10));
        let delivered = n.drain(b).len();
        // ~500 expected; allow wide tolerance.
        assert!((300..=700).contains(&delivered), "delivered={delivered}");
        // Same seed => identical outcome.
        let mut n2: SimNet<u32> = SimNet::new(LinkConfig::lossy(0.5), 42);
        let a2 = n2.register_node();
        let b2 = n2.register_node();
        for i in 0..1000 {
            n2.send(a2, b2, i);
        }
        n2.advance(SimDuration::from_millis(10));
        assert_eq!(n2.drain(b2).len(), delivered);
    }

    #[test]
    fn step_jumps_to_next_event() {
        let mut n = net(6);
        let a = n.register_node();
        let b = n.register_node();
        n.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(7),
                ..LinkConfig::ideal()
            },
        );
        n.send(a, b, 1);
        let t = n.step().unwrap();
        assert_eq!(t, SimTime::from_millis(7));
        assert_eq!(n.recv(b).unwrap().payload, 1);
        assert!(n.step().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot advance backwards")]
    fn advance_backwards_panics() {
        let mut n = net(7);
        n.advance(SimDuration::from_millis(5));
        n.advance_to(SimTime::from_millis(1));
    }

    #[test]
    fn broadcast_is_just_multiple_sends() {
        let mut n = net(8);
        let a = n.register_node();
        let b = n.register_node();
        let c = n.register_node();
        n.broadcast(a, [b, c], 5);
        n.advance(SimDuration::from_millis(1));
        assert_eq!(n.recv(b).unwrap().payload, 5);
        assert_eq!(n.recv(c).unwrap().payload, 5);
    }
}
