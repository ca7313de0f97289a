//! The discrete-event network simulator.

use crate::{IpBindings, LinkConfig, NetStats, NodeId, Partition, SimDuration, SimTime};
use dosgi_testkit::TestRng;
use std::collections::{HashMap, VecDeque};

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

/// An envelope in flight, the `seq`-th message sent.
#[derive(Debug)]
struct Queued<M> {
    seq: u64,
    env: Envelope<M>,
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
    pub(crate) mailboxes: Vec<VecDeque<Envelope<M>>>,
    /// Every message in flight, in send order past the last advance.
    /// Sorted by (delivery time, send order) once per advance.
    in_flight: Vec<Queued<M>>,
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
            in_flight: Vec::new(),
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
        self.in_flight.push(Queued { seq, env });
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
    /// Delivers in (delivery time, send order): the in-flight list is
    /// sorted once, then its due prefix is dispatched and the rest kept.
    ///
    /// # Panics
    ///
    /// Panics if `target` is in the past.
    pub fn advance_to(&mut self, target: SimTime) {
        assert!(target >= self.now, "cannot advance backwards");
        // Lent out beside `&mut self`, then put back.
        let mut in_flight = std::mem::take(&mut self.in_flight);
        in_flight.sort_unstable_by_key(|q| (q.env.delivered_at, q.seq));
        let due = in_flight.partition_point(|q| q.env.delivered_at <= target);
        for q in in_flight.drain(..due) {
            self.now = q.env.delivered_at;
            self.dispatch(q.env);
        }
        self.in_flight = in_flight;
        self.now = target;
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
    use crate::Fabric;
    use dosgi_testkit::prop::{self, Config, Gen};
    use dosgi_testkit::prop_verify_eq;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    /// A message in flight in [`HeapNet`]. Field order is heap order, and
    /// `seq` is unique, so it orders by (delivery time, send order).
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Flight {
        at: SimTime,
        seq: u64,
        from: NodeId,
        to: NodeId,
        sent_at: SimTime,
        payload: u32,
    }

    /// The simulator as it kept its in-flight messages in a binary heap,
    /// popped one at a time, to hold the sorted list to.
    struct HeapNet {
        now: SimTime,
        default_link: LinkConfig,
        links: HashMap<(NodeId, NodeId), LinkConfig>,
        partition: Partition,
        alive: Vec<bool>,
        mailboxes: Vec<VecDeque<Envelope<u32>>>,
        queue: BinaryHeap<Reverse<Flight>>,
        seq: u64,
        rng: TestRng,
        stats: NetStats,
    }

    impl HeapNet {
        fn new(default_link: LinkConfig, seed: u64, nodes: usize) -> Self {
            HeapNet {
                now: SimTime::ZERO,
                default_link,
                links: HashMap::new(),
                partition: Partition::none(),
                alive: vec![true; nodes],
                mailboxes: (0..nodes).map(|_| VecDeque::new()).collect(),
                queue: BinaryHeap::new(),
                seq: 0,
                rng: TestRng::new(seed),
                stats: NetStats::default(),
            }
        }

        fn send(&mut self, from: NodeId, to: NodeId, payload: u32) {
            self.stats.sent += 1;
            if !self.alive[from.index()] || !self.alive[to.index()] {
                self.stats.dropped_dead += 1;
                return;
            }
            let link = self.links.get(&(from, to)).copied();
            let link = link.unwrap_or(self.default_link);
            if link.loss > 0.0 && self.rng.f64() < link.loss {
                self.stats.lost += 1;
                return;
            }
            let jitter = if link.jitter.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(self.rng.u64_in(0, link.jitter.as_micros()))
            };
            let (at, seq, sent_at) = (self.now + link.latency + jitter, self.seq, self.now);
            self.seq += 1;
            self.queue.push(Reverse(Flight {
                at,
                seq,
                from,
                to,
                sent_at,
                payload,
            }));
        }

        fn advance_to(&mut self, target: SimTime) {
            while let Some(Reverse(q)) = self.queue.peek() {
                if q.at > target {
                    break;
                }
                let Reverse(q) = self.queue.pop().expect("peeked");
                self.now = q.at;
                let (from, to) = (q.from, q.to);
                if !self.alive[to.index()] || !self.alive[from.index()] {
                    self.stats.dropped_dead += 1;
                } else if !self.partition.connected(from, to) {
                    self.stats.partitioned += 1;
                } else {
                    self.stats.delivered += 1;
                    self.mailboxes[to.index()].push_back(Envelope {
                        from,
                        to,
                        sent_at: q.sent_at,
                        delivered_at: q.at,
                        payload: q.payload,
                    });
                }
            }
            self.now = target;
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Link {
        Ideal,
        Lan,
        Lossy(f64),
        /// Latency and jitter in µs; the latency is longer than a 5 ms tick.
        Slow(u64, u64),
    }

    impl Link {
        fn config(self) -> LinkConfig {
            match self {
                Link::Ideal => LinkConfig::ideal(),
                Link::Lan => LinkConfig::lan(),
                Link::Lossy(p) => LinkConfig::lossy(p),
                Link::Slow(latency, jitter) => LinkConfig {
                    latency: SimDuration::from_micros(latency),
                    jitter: SimDuration::from_micros(jitter),
                    loss: 0.0,
                },
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Input {
        Send(u32, u32),
        /// So many sends at once on one link.
        Burst(u32, u32, u32),
        Broadcast(u32),
        SetLink(u32, u32, Link),
        Crash(u32),
        Restart(u32),
        /// The listed nodes on one side, the rest on the other.
        Split(Vec<u32>),
        Heal,
        AdvanceUs(u64),
        /// Drain a mailbox through the inherent API or through `Fabric`.
        Drain(u32, bool),
    }

    /// The sorted in-flight list delivers what the heap delivered: the
    /// same envelopes to the same mailboxes in the same order, and the
    /// same counters, over sends on LAN, lossy and slower-than-a-tick
    /// links, crashes and restarts, partitions and heals, and advances of
    /// random length.
    #[test]
    fn the_sorted_list_delivers_as_the_heap_did_300_cases() {
        let runs = Gen::new(|rng: &mut TestRng| {
            let nodes = rng.u64_in(2, 6) as u32;
            let node = |rng: &mut TestRng| rng.u64_below(u64::from(nodes)) as u32;
            let default_loss = if rng.chance(0.3) { 0.2 } else { 0.0 };
            let inputs = (0..rng.usize_in(1, 120))
                .map(|_| match rng.u64_below(21) {
                    0..=5 => Input::Send(node(rng), node(rng)),
                    6 => Input::Burst(node(rng), node(rng), rng.u64_in(20, 60) as u32),
                    7 => Input::Broadcast(node(rng)),
                    8 | 9 => {
                        // Ideal and jitter-free links tie deliveries, and
                        // land them exactly on an advance's target.
                        let link = match rng.u64_below(4) {
                            0 => Link::Ideal,
                            1 => Link::Lan,
                            2 => Link::Lossy(0.1 * rng.u64_in(1, 9) as f64),
                            _ if rng.chance(0.5) => Link::Slow(10_000, 0),
                            _ => Link::Slow(rng.u64_in(5_001, 40_000), rng.u64_in(0, 10_000)),
                        };
                        Input::SetLink(node(rng), node(rng), link)
                    }
                    10 => Input::Crash(node(rng)),
                    11 => Input::Restart(node(rng)),
                    12 => Input::Split((0..nodes).filter(|_| rng.chance(0.5)).collect()),
                    13 => Input::Heal,
                    14 | 15 => Input::AdvanceUs(rng.u64_in(0, 20_000)),
                    16 | 17 => Input::AdvanceUs([0, 5_000][rng.usize_in(0, 1)]),
                    _ => Input::Drain(node(rng), rng.chance(0.5)),
                })
                .collect::<Vec<_>>();
            (rng.next_u64(), nodes, default_loss, inputs)
        });
        prop::check_with(&Config::with_cases(300), "sorted_in_flight", &runs, |run| {
            let (seed, nodes, default_loss, inputs) = run;
            let default_link = LinkConfig::lossy(*default_loss);
            let mut net: SimNet<u32> = SimNet::new(default_link, *seed);
            let ids: Vec<NodeId> = (0..*nodes).map(|_| net.register_node()).collect();
            let mut model = HeapNet::new(default_link, *seed, ids.len());
            let id = |n: &u32| NodeId(*n);
            for (i, input) in inputs.iter().enumerate() {
                let payload = i as u32 * 100;
                match input {
                    Input::Send(a, b) => {
                        net.send(id(a), id(b), payload);
                        model.send(id(a), id(b), payload);
                    }
                    Input::Burst(a, b, n) => {
                        for k in 0..*n {
                            net.send(id(a), id(b), payload + k);
                            model.send(id(a), id(b), payload + k);
                        }
                    }
                    Input::Broadcast(a) => {
                        net.broadcast(id(a), ids.iter().copied(), payload);
                        for &to in ids.iter().filter(|&&to| to != id(a)) {
                            model.send(id(a), to, payload);
                        }
                    }
                    Input::SetLink(a, b, link) => {
                        net.set_link(id(a), id(b), link.config());
                        model.links.insert((id(a), id(b)), link.config());
                        model.links.insert((id(b), id(a)), link.config());
                    }
                    Input::Crash(n) => {
                        net.crash(id(n));
                        model.alive[*n as usize] = false;
                        model.mailboxes[*n as usize].clear();
                    }
                    Input::Restart(n) => {
                        net.restart(id(n));
                        model.alive[*n as usize] = true;
                        model.mailboxes[*n as usize].clear();
                    }
                    Input::Split(side) => {
                        let (a, b): (Vec<NodeId>, Vec<NodeId>) =
                            ids.iter().partition(|n| side.contains(&n.0));
                        net.partition(Partition::split([a.clone(), b.clone()]));
                        model.partition = Partition::split([a, b]);
                    }
                    Input::Heal => {
                        net.heal();
                        model.partition = Partition::none();
                    }
                    Input::AdvanceUs(us) => {
                        net.advance(SimDuration::from_micros(*us));
                        model.advance_to(model.now + SimDuration::from_micros(*us));
                    }
                    Input::Drain(n, via_fabric) => {
                        let got = if *via_fabric {
                            let mut got = Vec::new();
                            Fabric::drain(&mut net, id(n), &mut got);
                            got
                        } else {
                            net.drain(id(n))
                        };
                        let want: Vec<_> = model.mailboxes[*n as usize].drain(..).collect();
                        prop_verify_eq!(got, want, "mailbox {n}, input {i}");
                    }
                }
                prop_verify_eq!(net.stats(), model.stats, "stats, input {i}");
                prop_verify_eq!(net.now(), model.now, "now, input {i}");
            }
            // Everything still in flight lands as the heap would land it.
            net.advance(SimDuration::from_millis(100));
            model.advance_to(model.now + SimDuration::from_millis(100));
            prop_verify_eq!(net.stats(), model.stats, "stats at the end");
            for &n in &ids {
                let want: Vec<_> = model.mailboxes[n.index()].drain(..).collect();
                prop_verify_eq!(net.drain(n), want, "mailbox {n:?} at the end");
            }
            Ok(())
        });
    }
}
