//! The director's telemetry handles: every `ipvs.*` metric resolved to a
//! slot once, so routing, admission and draining never build a name.

use crate::admission::RequestClass;
use dosgi_net::NodeId;
use dosgi_telemetry::{Counter, Gauge, HistogramHandle, Telemetry};

/// Why admission control shed a request (`ipvs.shed.reason.<name>`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShedReason {
    /// The class is shed outright by policy.
    Policy,
    /// Displaced from a full queue by higher-priority work.
    Displaced,
    /// The queue was full of equal-or-higher-priority work.
    Full,
    /// Abandoned in the queue of a backend that died.
    NodeDown,
}

impl ShedReason {
    const ALL: [ShedReason; 4] = [
        ShedReason::Policy,
        ShedReason::Displaced,
        ShedReason::Full,
        ShedReason::NodeDown,
    ];

    fn name(self) -> &'static str {
        match self {
            ShedReason::Policy => "policy",
            ShedReason::Displaced => "displaced",
            ShedReason::Full => "full",
            ShedReason::NodeDown => "node_down",
        }
    }
}

/// Per-class metrics, `ipvs.<metric>.<class>`.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassMetrics {
    pub queued: Counter,
    pub shed: Counter,
    pub deadline_missed: Counter,
    pub latency_us: HistogramHandle,
}

/// Per-backend metrics, `ipvs.<metric>.n<node>`.
#[derive(Debug, Clone, Default)]
pub(crate) struct BackendMetrics {
    pub routed: Counter,
    pub queue_depth: Gauge,
    pub drained: Counter,
    pub undrained: Counter,
}

/// Everything the director writes. The fixed names are resolved when the
/// registry is attached; a backend's four when the director first touches
/// that node — which covers services and replicas added before or after.
#[derive(Debug, Clone, Default)]
pub(crate) struct Metrics {
    telemetry: Telemetry,
    pub rejected: Counter,
    pub rejected_no_service: Counter,
    pub rejected_no_backend: Counter,
    pub queued: Counter,
    pub completed: Counter,
    pub shed: Counter,
    pub deadline_missed: Counter,
    // Indexed by `RequestClass::priority()`.
    classes: [ClassMetrics; 3],
    // Indexed by `ShedReason as usize`.
    shed_reasons: [Counter; 4],
    // A handful of nodes, met in no particular order: scanned, not indexed.
    backends: Vec<(NodeId, BackendMetrics)>,
}

impl Metrics {
    pub fn new(telemetry: Telemetry) -> Self {
        let t = &telemetry;
        Metrics {
            rejected: t.counter_handle("ipvs.rejected"),
            rejected_no_service: t.counter_handle("ipvs.rejected.no_service"),
            rejected_no_backend: t.counter_handle("ipvs.rejected.no_backend"),
            queued: t.counter_handle("ipvs.queued"),
            completed: t.counter_handle("ipvs.completed"),
            shed: t.counter_handle("ipvs.shed"),
            deadline_missed: t.counter_handle("ipvs.deadline_missed"),
            classes: RequestClass::ALL.map(|c| ClassMetrics {
                queued: t.counter_handle(format_args!("ipvs.queued.{c}")),
                shed: t.counter_handle(format_args!("ipvs.shed.{c}")),
                deadline_missed: t.counter_handle(format_args!("ipvs.deadline_missed.{c}")),
                latency_us: t.histogram_handle(format_args!("ipvs.latency_us.{c}")),
            }),
            shed_reasons: ShedReason::ALL
                .map(|r| t.counter_handle(format_args!("ipvs.shed.reason.{}", r.name()))),
            backends: Vec::new(),
            telemetry,
        }
    }

    pub fn class(&self, class: RequestClass) -> &ClassMetrics {
        &self.classes[class.priority()]
    }

    pub fn shed_reason(&self, why: ShedReason) -> &Counter {
        &self.shed_reasons[why as usize]
    }

    pub fn backend(&mut self, node: NodeId) -> &BackendMetrics {
        let known = self.backends.iter().position(|(n, _)| *n == node);
        let i = known.unwrap_or_else(|| {
            let (t, n) = (&self.telemetry, node.0);
            self.backends.push((
                node,
                BackendMetrics {
                    routed: t.counter_handle(format_args!("ipvs.routed.n{n}")),
                    queue_depth: t.gauge_handle(format_args!("ipvs.queue_depth.n{n}")),
                    drained: t.counter_handle(format_args!("ipvs.drained.n{n}")),
                    undrained: t.counter_handle(format_args!("ipvs.undrained.n{n}")),
                },
            ));
            self.backends.len() - 1
        });
        &self.backends[i].1
    }
}
