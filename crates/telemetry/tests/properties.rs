//! Property tests: the log-bucketed [`Histogram`] against a naive
//! `Vec<u64>` reference model, including merge = concatenation.

use dosgi_telemetry::{bucket_index, Histogram, BUCKETS};
use dosgi_testkit::prop::{self, Config, Gen};
use dosgi_testkit::rng::TestRng;
use dosgi_testkit::{prop_verify, prop_verify_eq};

/// Naive reference: keep every sample and recompute aggregates on demand.
#[derive(Debug, Default, Clone)]
struct Model {
    samples: Vec<u64>,
}

impl Model {
    fn record(&mut self, v: u64) {
        self.samples.push(v);
    }

    fn buckets(&self) -> Vec<u64> {
        let mut out = vec![0u64; BUCKETS];
        for &v in &self.samples {
            out[bucket_index(v)] += 1;
        }
        out
    }

    fn sum(&self) -> u64 {
        self.samples.iter().fold(0u64, |a, &v| a.saturating_add(v))
    }

    fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }
}

fn verify_against_model(h: &Histogram, m: &Model) -> Result<(), String> {
    prop_verify_eq!(h.count(), m.samples.len() as u64);
    prop_verify_eq!(h.sum(), m.sum());
    prop_verify_eq!(h.min(), m.min());
    prop_verify_eq!(h.max(), m.max());
    let expected = m.buckets();
    for (i, want) in expected.iter().enumerate() {
        prop_verify!(
            h.bucket(i) == *want,
            "bucket {i}: histogram {} != model {want}",
            h.bucket(i)
        );
    }
    Ok(())
}

/// Value streams spanning the interesting ranges: zeros, small values,
/// bucket-boundary powers of two, and full-range u64s.
fn streams(max_len: usize) -> Gen<Vec<u64>> {
    Gen::new(move |rng: &mut TestRng| {
        let len = rng.usize_in(0, max_len);
        (0..len)
            .map(|_| match rng.u64_below(4) {
                0 => rng.u64_in(0, 16),
                1 => 1u64 << rng.u64_below(64),
                2 => (1u64 << rng.u64_below(64)).wrapping_sub(1),
                _ => rng.next_u64(),
            })
            .collect()
    })
}

#[test]
fn histogram_matches_naive_reference_200_cases() {
    prop::check_with(
        &Config::with_cases(200),
        "histogram_matches_naive_reference",
        &streams(400),
        |stream| {
            let mut h = Histogram::new();
            let mut m = Model::default();
            for &v in stream {
                h.record(v);
                m.record(v);
            }
            verify_against_model(&h, &m)
        },
    );
}

#[test]
fn merged_histogram_equals_histogram_of_concatenation_200_cases() {
    let pairs = Gen::new(|rng: &mut TestRng| {
        let gen = streams(200);
        (gen.sample(rng), gen.sample(rng))
    });
    prop::check_with(
        &Config::with_cases(200),
        "merged_histogram_equals_concatenation",
        &pairs,
        |(a, b)| {
            let mut ha = Histogram::new();
            for &v in a {
                ha.record(v);
            }
            let mut hb = Histogram::new();
            for &v in b {
                hb.record(v);
            }
            ha.merge(&hb);

            let mut concat = Histogram::new();
            let mut m = Model::default();
            for &v in a.iter().chain(b.iter()) {
                concat.record(v);
                m.record(v);
            }
            prop_verify!(ha == concat, "merge != concatenated recording");
            verify_against_model(&ha, &m)
        },
    );
}

// ---------------------------------------------------------------------
// Causal tracing: the tree reconstructed from a merged flight-recorder
// log must match the reference happens-before order of the execution
// that produced it, for random cross-node interleavings.
// ---------------------------------------------------------------------

use dosgi_telemetry::{FlightRecorder, SpanName, TraceEvent, TraceLog, TraceRef};
use std::collections::BTreeMap;

/// Reference model of one span in a random distributed execution: the
/// ground truth the merged log is checked against.
#[derive(Debug)]
struct SpanModel {
    span_id: u64,
    trace_id: u64,
    node: u64,
    parent_span: u64,
    closed: bool,
}

/// Drives 2–4 recorders through a random interleaving of root-open,
/// (possibly cross-node) child-open, and close operations, exactly the
/// way the protocol layer does: children are only ever opened from an
/// exported [`TraceContext`].
fn random_execution(rng: &mut TestRng) -> (Vec<FlightRecorder>, Vec<SpanModel>) {
    let nodes = rng.usize_in(2, 4);
    let recorders: Vec<FlightRecorder> =
        (0..nodes).map(|n| FlightRecorder::new(n as u64)).collect();
    let mut spans: Vec<SpanModel> = Vec::new();
    let mut refs: Vec<TraceRef> = Vec::new();
    let mut now_us = 0u64;
    for _ in 0..rng.usize_in(5, 60) {
        now_us += rng.u64_in(1, 1_000);
        let open: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.closed)
            .map(|(i, _)| i)
            .collect();
        let op = if open.is_empty() { 0 } else { rng.u64_below(4) };
        match op {
            0 => {
                let node = rng.usize_in(0, nodes - 1);
                let r = recorders[node].root(SpanName::verb("root"), now_us);
                spans.push(SpanModel {
                    span_id: r.span_id,
                    trace_id: r.trace_id,
                    node: node as u64,
                    parent_span: 0,
                    closed: false,
                });
                refs.push(r);
            }
            1 | 2 => {
                let pi = open[rng.usize_in(0, open.len() - 1)];
                let (p_node, p_span, p_trace) =
                    (spans[pi].node, spans[pi].span_id, spans[pi].trace_id);
                let ctx = recorders[p_node as usize]
                    .context(refs[pi])
                    .expect("open spans export a context");
                let node = rng.usize_in(0, nodes - 1);
                let r = recorders[node].child(ctx, SpanName::verb("child"), now_us);
                spans.push(SpanModel {
                    span_id: r.span_id,
                    trace_id: p_trace,
                    node: node as u64,
                    parent_span: p_span,
                    closed: false,
                });
                refs.push(r);
            }
            _ => {
                let i = open[rng.usize_in(0, open.len() - 1)];
                recorders[spans[i].node as usize].end(refs[i], now_us);
                spans[i].closed = true;
            }
        }
    }
    (recorders, spans)
}

#[test]
fn merged_trace_matches_happens_before_reference_200_interleavings() {
    prop::check_with(
        &Config::with_cases(200),
        "merged_trace_matches_happens_before",
        &Gen::new(|rng: &mut TestRng| rng.next_u64()),
        |seed| {
            let mut rng = TestRng::new(*seed);
            let (recorders, model) = random_execution(&mut rng);
            let log = TraceLog::merge(recorders.iter());
            prop_verify_eq!(log.dropped, 0u64);
            prop_verify_eq!(log.events.len(), model.len());

            let by_span: BTreeMap<u64, &TraceEvent> =
                log.events.iter().map(|e| (e.span_id, e)).collect();
            for m in &model {
                let e = by_span
                    .get(&m.span_id)
                    .ok_or_else(|| format!("span {} missing from merged log", m.span_id))?;
                // Tree reconstruction: linkage, trace membership, origin
                // node, and open/closed state all round-trip.
                prop_verify_eq!(e.trace_id, m.trace_id);
                prop_verify_eq!(e.parent_span, m.parent_span);
                prop_verify_eq!(e.node, m.node);
                prop_verify_eq!(e.open, !m.closed);
                prop_verify_eq!(TraceEvent::node_of(e.span_id), m.node);
                if m.closed {
                    prop_verify!(e.lamport_end > e.lamport_start, "close must tick the clock");
                } else {
                    prop_verify_eq!(e.lamport_end, e.lamport_start);
                }
                if m.parent_span != 0 {
                    // Happens-before along the edge: parent open, then
                    // context export, then child open — strictly ordered
                    // Lamport stamps even across nodes.
                    let p = by_span[&m.parent_span];
                    prop_verify!(e.ctx_lamport != 0, "child without imported context");
                    prop_verify!(
                        p.lamport_start < e.ctx_lamport && e.ctx_lamport < e.lamport_start,
                        "edge {} -> {}: {} < {} < {} violated",
                        p.span_id,
                        e.span_id,
                        p.lamport_start,
                        e.ctx_lamport,
                        e.lamport_start
                    );
                    prop_verify!(e.start_us >= p.start_us, "child opened before parent");
                }
            }

            // The merged order is a linear extension of happens-before:
            // every parent sorts before every one of its children.
            let pos: BTreeMap<u64, usize> = log
                .events
                .iter()
                .enumerate()
                .map(|(i, e)| (e.span_id, i))
                .collect();
            for e in &log.events {
                if e.parent_span != 0 {
                    prop_verify!(
                        pos[&e.parent_span] < pos[&e.span_id],
                        "merged log orders child {} before parent {}",
                        e.span_id,
                        e.parent_span
                    );
                }
            }
            Ok(())
        },
    );
}
