//! The endpoint's telemetry handles: every `gcs.*` metric resolved to its
//! slot once, so the protocol paths write without naming anything.

dosgi_telemetry::metrics! {
    pub(crate) struct Metrics {
        counter antientropy_rebased = "gcs.antientropy.rebased",
        counter antientropy_replay_requests = "gcs.antientropy.replay_requests",
        counter antientropy_replayed = "gcs.antientropy.replayed",
        counter antientropy_view_repairs = "gcs.antientropy.view_repairs",
        counter order_delivered = "gcs.order.delivered",
        counter order_resequenced = "gcs.order.resequenced",
        counter order_sent = "gcs.order.sent",
        counter view_acks = "gcs.view.acks",
        counter view_installed = "gcs.view.installed",
        gauge order_retained = "gcs.order.retained",
        gauge order_low_water = "gcs.order.low_water",
    }
}
