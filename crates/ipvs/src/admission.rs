//! Admission control: request classes, bounded per-backend queues, and
//! deterministic service draining.
//!
//! Under open-loop overload an unbounded director melts down: every
//! request is accepted, queueing delay grows without bound, and goodput
//! (requests finished *within their SLO*) collapses. This module gives
//! each backend a bounded FIFO per [`RequestClass`] drained at a fixed
//! deterministic service rate; when a queue is full the lowest-priority
//! work is shed first, so SLO-critical traffic keeps its latency budget
//! while best-effort traffic absorbs the overload.
//!
//! Everything here is exact integer arithmetic on simulated microseconds:
//! the same admit/drain call sequence always produces the same
//! completions, sheds, and deadline verdicts, which is what lets the
//! chaos harness fingerprint overload runs byte-identically.

use dosgi_net::NodeId;
use std::collections::VecDeque;

/// Request priority classes with per-class latency SLOs.
///
/// Classes are ordered by priority: [`Critical`](RequestClass::Critical)
/// is admitted first and shed last; [`Background`](RequestClass::Background)
/// is the first to go when a queue fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestClass {
    /// Interactive, SLO-critical traffic (tight latency budget).
    Critical,
    /// Ordinary interactive traffic.
    Standard,
    /// Batch / best-effort traffic — shed first under overload.
    Background,
}

impl RequestClass {
    /// All classes, highest priority first.
    pub const ALL: [RequestClass; 3] = [
        RequestClass::Critical,
        RequestClass::Standard,
        RequestClass::Background,
    ];

    /// Stable lowercase name (telemetry keys, policy scripts).
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Critical => "critical",
            RequestClass::Standard => "standard",
            RequestClass::Background => "background",
        }
    }

    /// Parses a class name as produced by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        RequestClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Priority lane index: 0 is served first, shed last.
    pub fn priority(self) -> usize {
        match self {
            RequestClass::Critical => 0,
            RequestClass::Standard => 1,
            RequestClass::Background => 2,
        }
    }

    /// The per-class latency SLO (admission-to-completion budget).
    pub fn slo_us(self) -> u64 {
        match self {
            RequestClass::Critical => 50_000,
            RequestClass::Standard => 250_000,
            RequestClass::Background => 2_000_000,
        }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Admission-control parameters for one virtual service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum requests queued per backend (across all classes). Beyond
    /// this the shed policy applies.
    pub queue_capacity: usize,
    /// Deterministic service time per request: a backend completes one
    /// queued request every this many simulated microseconds.
    pub service_us_per_request: u64,
}

impl AdmissionConfig {
    /// A config for a backend serving `rate_per_sec` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is zero or above 1,000,000 (sub-µs service
    /// times cannot be represented).
    pub fn per_second(rate_per_sec: u64, queue_capacity: usize) -> Self {
        assert!(
            rate_per_sec > 0 && rate_per_sec <= 1_000_000,
            "rate must be in 1..=1e6"
        );
        AdmissionConfig {
            queue_capacity,
            service_us_per_request: 1_000_000 / rate_per_sec,
        }
    }
}

/// One queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// The requesting client.
    pub client: u64,
    /// The request's priority class.
    pub class: RequestClass,
    /// Admission timestamp (simulated µs).
    pub enqueued_us: u64,
}

/// The verdict of one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// Queued; the backend had room.
    Queued,
    /// Queued after evicting a lower-priority request (returned).
    Displaced(QueuedRequest),
    /// Shed: the queue is full of equal-or-higher-priority work.
    Shed,
}

/// A completed (fully served) request with its measured latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The backend that served it.
    pub node: NodeId,
    /// The requesting client.
    pub client: u64,
    /// The request's priority class.
    pub class: RequestClass,
    /// Admission timestamp (simulated µs).
    pub enqueued_us: u64,
    /// Service completion timestamp (simulated µs).
    pub completed_us: u64,
}

impl Completion {
    /// Admission-to-completion latency.
    pub fn latency_us(&self) -> u64 {
        self.completed_us - self.enqueued_us
    }

    /// Whether the request blew its class SLO.
    pub fn missed_deadline(&self) -> bool {
        self.latency_us() > self.class.slo_us()
    }
}

/// A bounded per-backend queue: one FIFO lane per class, served in
/// priority order, drained at the configured deterministic rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendQueue {
    config: AdmissionConfig,
    lanes: [VecDeque<QueuedRequest>; 3],
    /// When the backend's (single) server next becomes free.
    free_at_us: u64,
}

impl BackendQueue {
    /// An empty queue under `config`. Each lane is made at the queue's
    /// capacity, which is the most it can hold, so an offer never grows
    /// one; a capacity that cannot be reserved (`usize::MAX`, a queue that
    /// accepts everything) leaves the lanes to grow on demand.
    pub fn new(config: AdmissionConfig) -> Self {
        let lane = || {
            let mut lane = VecDeque::new();
            let _ = lane.try_reserve_exact(config.queue_capacity);
            lane
        };
        BackendQueue {
            config,
            lanes: [lane(), lane(), lane()],
            free_at_us: 0,
        }
    }

    /// Total queued requests across all classes.
    pub fn depth(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Offers a request. When the queue is full, a strictly
    /// lower-priority request (the youngest of the lowest occupied lane)
    /// is displaced to make room; if none exists the offer itself is shed.
    pub fn offer(&mut self, request: QueuedRequest) -> Admitted {
        if self.depth() < self.config.queue_capacity {
            self.lanes[request.class.priority()].push_back(request);
            return Admitted::Queued;
        }
        // Full: look for a victim strictly below the incoming priority,
        // lowest lane first, youngest first (it has waited least).
        for lane in (request.class.priority() + 1..3).rev() {
            if let Some(victim) = self.lanes[lane].pop_back() {
                self.lanes[request.class.priority()].push_back(request);
                return Admitted::Displaced(victim);
            }
        }
        Admitted::Shed
    }

    /// Drains every request whose deterministic completion time is
    /// `<= now_us`, priority lanes first, appending [`Completion`]s for
    /// `node` to `out`. A request admitted at `t` into an idle backend
    /// completes at `t + service_us_per_request`; a busy backend serves
    /// strictly one request per service interval.
    pub fn drain_until(&mut self, node: NodeId, now_us: u64, out: &mut Vec<Completion>) {
        loop {
            // The server picks its next request the moment it is both free
            // and work has arrived; among requests available at that
            // instant, the highest-priority lane wins (non-preemptive
            // priority, work-conserving: a critical request that has not
            // arrived yet must not stall older lower-priority work).
            let Some(earliest) = (0..3)
                .filter_map(|l| self.lanes[l].front().map(|r| r.enqueued_us))
                .min()
            else {
                return;
            };
            let start = self.free_at_us.max(earliest);
            let done = start + self.config.service_us_per_request;
            if done > now_us {
                return;
            }
            let lane = (0..3)
                .find(|&l| {
                    self.lanes[l]
                        .front()
                        .is_some_and(|r| r.enqueued_us <= start)
                })
                .expect("the earliest arrival is a candidate");
            let head = self.lanes[lane].pop_front().expect("lane is non-empty");
            self.free_at_us = done;
            out.push(Completion {
                node,
                client: head.client,
                class: head.class,
                enqueued_us: head.enqueued_us,
                completed_us: done,
            });
        }
    }

    /// Empties every lane (backend died), returning the abandoned
    /// requests in priority order.
    pub fn flush(&mut self) -> Vec<QueuedRequest> {
        let mut out = Vec::with_capacity(self.depth());
        for lane in &mut self.lanes {
            out.extend(lane.drain(..));
        }
        out
    }

    /// The admission parameters.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(client: u64, class: RequestClass, at: u64) -> QueuedRequest {
        QueuedRequest {
            client,
            class,
            enqueued_us: at,
        }
    }

    #[test]
    fn class_ordering_and_names_round_trip() {
        for c in RequestClass::ALL {
            assert_eq!(RequestClass::from_name(c.name()), Some(c));
        }
        assert_eq!(RequestClass::from_name("nope"), None);
        assert!(RequestClass::Critical.slo_us() < RequestClass::Standard.slo_us());
        assert!(RequestClass::Standard.slo_us() < RequestClass::Background.slo_us());
        assert_eq!(RequestClass::Critical.priority(), 0);
    }

    #[test]
    fn lanes_are_made_at_a_bounded_capacity_and_grow_when_unbounded() {
        let queue = |queue_capacity| {
            BackendQueue::new(AdmissionConfig {
                queue_capacity,
                service_us_per_request: 1000,
            })
        };
        let bounded = queue(64);
        assert!(bounded.lanes.iter().all(|l| l.capacity() >= 64));
        let mut unbounded = queue(usize::MAX);
        assert!(unbounded.lanes.iter().all(|l| l.capacity() == 0));
        for at in 0..100 {
            assert_eq!(
                unbounded.offer(req(at, RequestClass::Standard, at)),
                Admitted::Queued
            );
        }
        assert_eq!(unbounded.depth(), 100);
    }

    #[test]
    fn offer_sheds_lowest_priority_first() {
        let mut q = BackendQueue::new(AdmissionConfig {
            queue_capacity: 2,
            service_us_per_request: 1000,
        });
        assert_eq!(
            q.offer(req(1, RequestClass::Background, 0)),
            Admitted::Queued
        );
        assert_eq!(q.offer(req(2, RequestClass::Standard, 0)), Admitted::Queued);
        // Full. A critical arrival displaces the background request.
        match q.offer(req(3, RequestClass::Critical, 5)) {
            Admitted::Displaced(victim) => assert_eq!(victim.client, 1),
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        // Another background arrival finds only equal/higher work: shed.
        assert_eq!(q.offer(req(4, RequestClass::Background, 6)), Admitted::Shed);
        // And a critical arrival with no lower-priority victim is shed too.
        match q.offer(req(5, RequestClass::Critical, 7)) {
            Admitted::Displaced(victim) => assert_eq!(victim.class, RequestClass::Standard),
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(q.offer(req(6, RequestClass::Critical, 8)), Admitted::Shed);
    }

    #[test]
    fn drain_is_deterministic_fifo_within_class_priority_across() {
        let mut q = BackendQueue::new(AdmissionConfig {
            queue_capacity: 10,
            service_us_per_request: 100,
        });
        q.offer(req(1, RequestClass::Background, 0));
        q.offer(req(2, RequestClass::Critical, 0));
        q.offer(req(3, RequestClass::Critical, 0));
        let mut out = Vec::new();
        q.drain_until(NodeId(7), 1_000, &mut out);
        let order: Vec<u64> = out.iter().map(|c| c.client).collect();
        assert_eq!(order, vec![2, 3, 1], "critical lane drains first");
        assert_eq!(out[0].completed_us, 100);
        assert_eq!(out[1].completed_us, 200);
        assert_eq!(out[2].completed_us, 300);
        assert!(out.iter().all(|c| c.node == NodeId(7)));
    }

    #[test]
    fn drain_respects_service_rate_and_idle_gaps() {
        let mut q = BackendQueue::new(AdmissionConfig {
            queue_capacity: 10,
            service_us_per_request: 100,
        });
        q.offer(req(1, RequestClass::Standard, 0));
        let mut out = Vec::new();
        q.drain_until(NodeId(0), 99, &mut out);
        assert!(out.is_empty(), "service not finished yet");
        q.drain_until(NodeId(0), 100, &mut out);
        assert_eq!(out.len(), 1);
        // After a long idle gap, service restarts from the enqueue time,
        // not from the stale free_at cursor.
        q.offer(req(2, RequestClass::Standard, 5_000));
        q.drain_until(NodeId(0), 5_100, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].completed_us, 5_100);
        assert_eq!(out[1].latency_us(), 100);
    }

    #[test]
    fn drain_is_work_conserving_across_lanes() {
        let mut q = BackendQueue::new(AdmissionConfig {
            queue_capacity: 10,
            service_us_per_request: 100,
        });
        // Old background work waits; a critical request arrives "now"
        // (too late to finish by now). The server must not idle: the
        // background requests drain, then the critical one next tick.
        q.offer(req(1, RequestClass::Background, 0));
        q.offer(req(2, RequestClass::Background, 0));
        q.offer(req(3, RequestClass::Critical, 1_000));
        let mut out = Vec::new();
        q.drain_until(NodeId(0), 1_000, &mut out);
        let order: Vec<u64> = out.iter().map(|c| c.client).collect();
        assert_eq!(order, vec![1, 2], "older available work is served");
        q.drain_until(NodeId(0), 1_100, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].client, 3);
        // But priority still wins among requests available at pick time:
        // the server frees at 1_100; both heads below arrived by then.
        q.offer(req(4, RequestClass::Background, 1_050));
        q.offer(req(5, RequestClass::Critical, 1_080));
        q.drain_until(NodeId(0), 2_000, &mut out);
        let tail: Vec<u64> = out[3..].iter().map(|c| c.client).collect();
        assert_eq!(tail, vec![5, 4], "critical first when both have arrived");
    }

    #[test]
    fn deadline_detection_per_class() {
        let c = Completion {
            node: NodeId(0),
            client: 1,
            class: RequestClass::Critical,
            enqueued_us: 0,
            completed_us: RequestClass::Critical.slo_us() + 1,
        };
        assert!(c.missed_deadline());
        let ok = Completion {
            class: RequestClass::Background,
            ..c
        };
        assert!(!ok.missed_deadline(), "background budget is looser");
    }

    #[test]
    fn flush_empties_all_lanes() {
        let mut q = BackendQueue::new(AdmissionConfig {
            queue_capacity: 5,
            service_us_per_request: 10,
        });
        q.offer(req(1, RequestClass::Background, 0));
        q.offer(req(2, RequestClass::Critical, 0));
        let flushed = q.flush();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].class, RequestClass::Critical);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn per_second_config() {
        let cfg = AdmissionConfig::per_second(2_000, 64);
        assert_eq!(cfg.service_us_per_request, 500);
        assert_eq!(cfg.queue_capacity, 64);
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn zero_rate_rejected() {
        let _ = AdmissionConfig::per_second(0, 1);
    }
}
