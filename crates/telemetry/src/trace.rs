//! Distributed causal tracing: per-node flight recorders, wire-carried
//! trace contexts, and a deterministic cluster-wide trace log.
//!
//! The stack's one span system. A span kept in one node's registry cannot
//! describe a protocol that runs across nodes: a migration is released by
//! one node, ordered by the sequencer, and adopted by another. This module
//! links those pieces into one tree:
//!
//! * a [`TraceContext`] — trace id, parent span id, and a **Lamport
//!   stamp** — minted at protocol entry points and carried inside GCS
//!   wire messages, so a span opened on the receiving node records which
//!   logical instant of the sender it causally follows;
//! * a bounded per-node [`FlightRecorder`] of causally-stamped
//!   [`TraceEvent`]s (the black box: survives into the snapshot, drops
//!   the oldest event on overflow and counts the loss);
//! * a [`TraceLog`] that merges every node's recorder into one
//!   deterministic event list and exports it as Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto).
//!
//! A span is named by a [`SpanName`]: a static verb and a subject shared
//! with its owner, such as the registry's instance name. The recorder keeps
//! that pair while the span is open and after it closes, and renders it as
//! `verb/subject` only at export; the Chrome trace writes the rendered name
//! through the crate's one JSON string writer. Opening, exporting a context
//! under and ending a span allocates nothing once the recorder is warm, and
//! nothing at all on a disabled recorder, the call site's name included.
//!
//! ## Lamport stamping rules
//!
//! Each enabled recorder keeps one logical clock `C`:
//!
//! 1. opening a local span (root or local child) ticks `C += 1`; the
//!    new value is the span's `lamport_start`;
//! 2. exporting a context ([`FlightRecorder::context`]) is a *send*:
//!    `C += 1`, and the new value rides in the context;
//! 3. importing a context ([`FlightRecorder::child`] /
//!    [`FlightRecorder::observe`]) is a *receive*:
//!    `C = max(C, ctx.lamport) + 1`;
//! 4. closing a span ticks `C += 1` into its `lamport_end`.
//!
//! Therefore `parent.lamport_start < ctx.lamport < child.lamport_start`
//! holds for every cross-node edge, which is exactly what the
//! `trace_check` analyzer verifies (happens-before is respected, no
//! span was closed on a node that never saw its parent's stamp).
//!
//! ## Determinism & passivity
//!
//! Like the rest of `dosgi-telemetry`, recorders are strictly passive:
//! timestamps are caller-supplied sim-time micros, no wall clock, no
//! randomness, no control-flow influence. Span ids are allocated as
//! `(node + 1) << 40 | seq`, so they are unique cluster-wide, ordered
//! per node, and a pure function of the (seeded) run — the merged log
//! serializes to byte-identical JSON on every replay. Ids stay below
//! 2^53 for any realistic node count, so strict JSON readers that use
//! doubles still round-trip them exactly.

use crate::json::JsonStr;
use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// Schema version stamped into exported trace files (`metadata.schema`).
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Default capacity of a flight recorder's event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

const NODE_SHIFT: u32 = 40;

/// A causal reference carried inside wire messages.
///
/// `lamport` is the sender's logical clock at context-export time; the
/// receiver folds it into its own clock before opening the child span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceContext {
    /// Id of the trace (== span id of its root span).
    pub trace_id: u64,
    /// Span the receiver should attach children to.
    pub parent_span: u64,
    /// Sender's Lamport stamp at export time (always > 0).
    pub lamport: u64,
}

/// Handle onto a span opened in a [`FlightRecorder`].
///
/// `TraceRef::NONE` is the inert null handle (handed out by disabled
/// recorders); every operation on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceRef {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// The span's cluster-unique id.
    pub span_id: u64,
}

impl TraceRef {
    /// The null reference: never names a live span.
    pub const NONE: TraceRef = TraceRef {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether this reference names a real span.
    pub fn is_some(&self) -> bool {
        self.span_id != 0
    }
}

/// One causally-stamped protocol event (a closed — or, at export time,
/// still-open — span on one node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace this event belongs to.
    pub trace_id: u64,
    /// Cluster-unique span id (`(node + 1) << 40 | seq`).
    pub span_id: u64,
    /// Parent span id; `0` for a trace root.
    pub parent_span: u64,
    /// Node the span was recorded on.
    pub node: u64,
    /// The span's [`SpanName`], rendered: `verb/subject` or the bare verb.
    pub name: String,
    /// Sim-time open instant, microseconds.
    pub start_us: u64,
    /// Sim-time close instant (== `start_us` when still open).
    pub end_us: u64,
    /// Recorder clock right after opening the span.
    pub lamport_start: u64,
    /// Recorder clock right after closing (== `lamport_start` if open).
    pub lamport_end: u64,
    /// The Lamport stamp of the imported [`TraceContext`] this span was
    /// created from, or `0` for roots and node-local children. Non-zero
    /// proves the recording node *saw* its remote parent.
    pub ctx_lamport: u64,
    /// True when the span was still open at export time (crash or
    /// in-flight protocol when the run ended).
    pub open: bool,
}

impl TraceEvent {
    /// The node a span id was allocated on.
    pub fn node_of(span_id: u64) -> u64 {
        (span_id >> NODE_SHIFT).saturating_sub(1)
    }

    /// Event duration in simulated microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A span's name: a static verb and, optionally, what it acts on — an
/// instance name shared with whoever holds it, or a node. The recorder keeps
/// it as it is, open and closed; it is rendered to text, `verb/subject` or
/// the bare verb, only when the span is exported ([`FlightRecorder::events`],
/// [`FlightRecorder::open_events`]). Naming a span allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanName {
    verb: &'static str,
    subject: Subject,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Subject {
    None,
    Shared(Arc<str>),
    Node(u64),
}

impl SpanName {
    /// A span named by its verb alone (`shutdown`).
    pub const fn verb(verb: &'static str) -> Self {
        SpanName {
            verb,
            subject: Subject::None,
        }
    }

    /// `verb/<subject>`, sharing `subject` (`adopt/<instance>`).
    pub fn of(verb: &'static str, subject: &Arc<str>) -> Self {
        SpanName {
            verb,
            subject: Subject::Shared(Arc::clone(subject)),
        }
    }

    /// `verb/n<node>` (`drain/n3`).
    pub const fn node(verb: &'static str, node: u64) -> Self {
        SpanName {
            verb,
            subject: Subject::Node(node),
        }
    }
}

impl std::fmt::Display for SpanName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.verb)?;
        match &self.subject {
            Subject::None => Ok(()),
            Subject::Shared(subject) => write!(f, "/{subject}"),
            Subject::Node(node) => write!(f, "/n{node}"),
        }
    }
}

struct SpanRec {
    trace_id: u64,
    parent_span: u64,
    name: SpanName,
    start_us: u64,
    lamport_start: u64,
    ctx_lamport: u64,
}

impl SpanRec {
    /// The span as an exported event: closed at `(end_us, lamport_end)`,
    /// or still open.
    fn event(&self, node: u64, span_id: u64, end: Option<(u64, u64)>) -> TraceEvent {
        let (end_us, lamport_end) = end.unwrap_or((self.start_us, self.lamport_start));
        TraceEvent {
            trace_id: self.trace_id,
            span_id,
            parent_span: self.parent_span,
            node,
            name: self.name.to_string(),
            start_us: self.start_us,
            end_us,
            lamport_start: self.lamport_start,
            lamport_end,
            ctx_lamport: self.ctx_lamport,
            open: end.is_none(),
        }
    }
}

/// A closed span in the ring.
struct ClosedSpan {
    span_id: u64,
    span: SpanRec,
    end_us: u64,
    lamport_end: u64,
}

struct RecInner {
    node: u64,
    clock: u64,
    next_seq: u64,
    open: BTreeMap<u64, SpanRec>,
    closed: VecDeque<ClosedSpan>,
    capacity: usize,
    dropped: u64,
    rejected: u64,
}

impl RecInner {
    /// Opens a span of `trace_id` under `parent_span` at the clock's
    /// current value, and returns its id.
    fn open(
        &mut self,
        trace_id: Option<u64>,
        parent_span: u64,
        name: SpanName,
        start_us: u64,
        ctx_lamport: u64,
    ) -> TraceRef {
        let span_id = ((self.node + 1) << NODE_SHIFT) | self.next_seq;
        self.next_seq += 1;
        let trace_id = trace_id.unwrap_or(span_id);
        let span = SpanRec {
            trace_id,
            parent_span,
            name,
            start_us,
            lamport_start: self.clock,
            ctx_lamport,
        };
        self.open.insert(span_id, span);
        TraceRef { trace_id, span_id }
    }
}

/// Cheap-clone per-node flight recorder (or a no-op when disabled).
///
/// Mirrors the [`crate::Telemetry`] handle discipline: library types
/// hold one unconditionally, [`FlightRecorder::disabled`] (the
/// `Default`) makes every operation free, clones share the ring.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Rc<RefCell<RecInner>>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl FlightRecorder {
    /// An enabled recorder for `node` with the default ring capacity.
    pub fn new(node: u64) -> Self {
        Self::with_capacity(node, DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled recorder keeping at most `capacity` closed events.
    pub fn with_capacity(node: u64, capacity: usize) -> Self {
        FlightRecorder {
            inner: Some(Rc::new(RefCell::new(RecInner {
                node,
                clock: 0,
                next_seq: 1,
                open: BTreeMap::new(),
                closed: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                rejected: 0,
            }))),
        }
    }

    /// The no-op handle.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// Whether this handle points at a live ring.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn ring(&self) -> Option<RefMut<'_, RecInner>> {
        self.inner.as_ref().map(|m| m.borrow_mut())
    }

    /// The node this recorder stamps events with.
    pub fn node(&self) -> Option<u64> {
        self.ring().map(|g| g.node)
    }

    /// Current Lamport clock value (0 when disabled).
    pub fn clock(&self) -> u64 {
        self.ring().map(|g| g.clock).unwrap_or(0)
    }

    /// Open a new root span: starts a fresh trace whose id is the root's
    /// own span id.
    pub fn root(&self, name: SpanName, now_us: u64) -> TraceRef {
        let Some(mut g) = self.ring() else {
            return TraceRef::NONE;
        };
        g.clock += 1;
        g.open(None, 0, name, now_us, 0)
    }

    /// Open a child span from an imported wire context (a *receive*:
    /// the local clock is folded with the context's stamp first).
    pub fn child(&self, ctx: TraceContext, name: SpanName, now_us: u64) -> TraceRef {
        let Some(mut g) = self.ring() else {
            return TraceRef::NONE;
        };
        g.clock = g.clock.max(ctx.lamport) + 1;
        g.open(
            Some(ctx.trace_id),
            ctx.parent_span,
            name,
            now_us,
            ctx.lamport,
        )
    }

    /// Open a node-local child of a span this recorder owns.
    pub fn child_of(&self, parent: TraceRef, name: SpanName, now_us: u64) -> TraceRef {
        if !parent.is_some() {
            return TraceRef::NONE;
        }
        let Some(mut g) = self.ring() else {
            return TraceRef::NONE;
        };
        g.clock += 1;
        g.open(Some(parent.trace_id), parent.span_id, name, now_us, 0)
    }

    /// Export a wire context under `of` (a *send*: ticks the clock).
    ///
    /// Returns `None` for [`TraceRef::NONE`] or a disabled recorder, so
    /// untraced flows stay untraced end to end.
    pub fn context(&self, of: TraceRef) -> Option<TraceContext> {
        if !of.is_some() {
            return None;
        }
        let mut g = self.ring()?;
        g.clock += 1;
        Some(TraceContext {
            trace_id: of.trace_id,
            parent_span: of.span_id,
            lamport: g.clock,
        })
    }

    /// Fold a received context's stamp into the local clock without
    /// opening a span (every traced delivery must call this so later
    /// local spans causally follow it).
    pub fn observe(&self, ctx: TraceContext) {
        if let Some(mut g) = self.ring() {
            g.clock = g.clock.max(ctx.lamport) + 1;
        }
    }

    /// Close span `r` at sim-time `now_us`.
    ///
    /// Unknown / double closes are rejected and counted; closing
    /// [`TraceRef::NONE`] on any handle (or anything on a disabled one)
    /// is an accepted no-op.
    pub fn end(&self, r: TraceRef, now_us: u64) -> bool {
        let Some(mut g) = self.ring() else {
            return true;
        };
        if !r.is_some() {
            return true;
        }
        let Some(span) = g.open.remove(&r.span_id) else {
            g.rejected += 1;
            return false;
        };
        g.clock += 1;
        let closed = ClosedSpan {
            span_id: r.span_id,
            span,
            end_us: now_us,
            lamport_end: g.clock,
        };
        if g.closed.len() >= g.capacity {
            g.closed.pop_front();
            g.dropped += 1;
        }
        g.closed.push_back(closed);
        true
    }

    /// Closed events, oldest first (bounded by the ring capacity), their
    /// names rendered.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring()
            .map(|g| {
                g.closed
                    .iter()
                    .map(|c| {
                        let end = (c.end_us, c.lamport_end);
                        c.span.event(g.node, c.span_id, Some(end))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Snapshot of spans still open (crashed or in-flight protocol),
    /// exported with `open = true` and `end_us == start_us`, their names
    /// rendered.
    pub fn open_events(&self) -> Vec<TraceEvent> {
        self.ring()
            .map(|g| {
                g.open
                    .iter()
                    .map(|(&id, s)| s.event(g.node, id, None))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Events dropped from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring().map(|g| g.dropped).unwrap_or(0)
    }

    /// Unknown / double closes rejected so far.
    pub fn rejected(&self) -> u64 {
        self.ring().map(|g| g.rejected).unwrap_or(0)
    }
}

/// A cluster-wide merge of per-node flight recorders, exportable as
/// Chrome trace-event JSON.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All events, sorted by `(trace_id, lamport_start, span_id)` — a
    /// deterministic causal order (Lamport ties are broken by span id,
    /// which encodes the node).
    pub events: Vec<TraceEvent>,
    /// Total events dropped across all merged recorders.
    pub dropped: u64,
    /// Total rejected closes across all merged recorders.
    pub rejected: u64,
}

impl TraceLog {
    /// Merge recorders (closed *and* still-open events) into one log.
    pub fn merge<'a, I: IntoIterator<Item = &'a FlightRecorder>>(recorders: I) -> TraceLog {
        let mut log = TraceLog::default();
        for r in recorders {
            log.events.extend(r.events());
            log.events.extend(r.open_events());
            log.dropped += r.dropped();
            log.rejected += r.rejected();
        }
        log.events
            .sort_by_key(|e| (e.trace_id, e.lamport_start, e.span_id));
        log
    }

    /// Serialize as Chrome trace-event JSON (complete `"ph":"X"` events,
    /// `ts`/`dur` in microseconds, `pid` = node). Causal metadata rides
    /// in `args`, which `chrome://tracing`/Perfetto display but ignore.
    /// Byte-deterministic: events are pre-sorted and every value is an
    /// integer or a string, written by the crate's one JSON string writer
    /// whatever characters a name holds.
    pub fn to_chrome_json(&self, label: &str, seed: u64) -> String {
        // Dense per-trace track ids so Perfetto draws each trace on its
        // own row; ordering follows first appearance in the sorted log.
        let mut tids: BTreeMap<u64, u64> = BTreeMap::new();
        for e in &self.events {
            let next = tids.len() as u64 + 1;
            tids.entry(e.trace_id).or_insert(next);
        }
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{},\"cat\":\"dosgi\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent_span\":{},\"lamport_start\":{},\"lamport_end\":{},\"ctx_lamport\":{},\"open\":{}}}}}",
                if i > 0 { "," } else { "" },
                JsonStr(&e.name),
                e.start_us,
                e.duration_us(),
                e.node,
                tids[&e.trace_id],
                e.trace_id,
                e.span_id,
                e.parent_span,
                e.lamport_start,
                e.lamport_end,
                e.ctx_lamport,
                u64::from(e.open),
            );
        }
        let _ = writeln!(
            out,
            "],\"metadata\":{{\"schema\":{},\"label\":{},\"seed\":{},\"events\":{},\"dropped\":{},\"rejected\":{}}}}}",
            TRACE_SCHEMA_VERSION,
            JsonStr(label),
            seed,
            self.events.len(),
            self.dropped,
            self.rejected
        );
        out
    }

    /// Write `trace_<label>.json` into `dir` (created if needed).
    pub fn write_to(&self, dir: &Path, label: &str, seed: u64) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace_{label}.json"));
        std::fs::write(&path, self.to_chrome_json(label, seed))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled();
        let root = r.root(SpanName::verb("m"), 0);
        assert_eq!(root, TraceRef::NONE);
        assert!(r.context(root).is_none());
        assert!(r.end(root, 1));
        assert_eq!(r.clock(), 0);
        assert!(r.events().is_empty());
        assert!(r.open_events().is_empty());
    }

    #[test]
    fn a_span_name_renders_at_export() {
        let name: Arc<str> = Arc::from("web-01");
        let r = FlightRecorder::new(0);
        let names = [
            SpanName::verb("shutdown"),
            SpanName::of("adopt", &name),
            SpanName::node("drain", 3),
        ];
        for (i, n) in names.into_iter().enumerate() {
            let s = r.root(n, i as u64);
            if i > 0 {
                r.end(s, 9);
            }
        }
        let mut rendered: Vec<String> = r.events().into_iter().map(|e| e.name).collect();
        rendered.extend(r.open_events().into_iter().map(|e| e.name));
        assert_eq!(rendered, ["adopt/web-01", "drain/n3", "shutdown"]);
    }

    #[test]
    fn span_ids_encode_the_node() {
        let r = FlightRecorder::new(3);
        let a = r.root(SpanName::verb("a"), 0);
        let b = r.root(SpanName::verb("b"), 0);
        assert_eq!(TraceEvent::node_of(a.span_id), 3);
        assert_eq!(TraceEvent::node_of(b.span_id), 3);
        assert_ne!(a.span_id, b.span_id);
        let other = FlightRecorder::new(4);
        let c = other.root(SpanName::verb("c"), 0);
        assert_ne!(a.span_id, c.span_id);
    }

    #[test]
    fn lamport_stamps_order_cross_node_edges() {
        let sender = FlightRecorder::new(0);
        let receiver = FlightRecorder::new(1);
        let root = sender.root(SpanName::verb("migrate"), 100);
        let ctx = sender.context(root).expect("ctx");
        let child = receiver.child(ctx, SpanName::verb("adopt"), 200);
        assert!(receiver.end(child, 250));
        assert!(sender.end(root, 300));
        let s = &sender.events()[0];
        let c = &receiver.events()[0];
        assert_eq!(c.trace_id, s.span_id);
        assert_eq!(c.parent_span, s.span_id);
        assert_eq!(c.ctx_lamport, ctx.lamport);
        assert!(s.lamport_start < ctx.lamport);
        assert!(ctx.lamport < c.lamport_start);
    }

    #[test]
    fn observe_advances_the_clock() {
        let r = FlightRecorder::new(2);
        r.observe(TraceContext {
            trace_id: 9,
            parent_span: 9,
            lamport: 50,
        });
        assert_eq!(r.clock(), 51);
        // A later local root causally follows the observed stamp.
        let root = r.root(SpanName::verb("later"), 0);
        assert!(root.is_some());
        assert_eq!(r.clock(), 52);
    }

    #[test]
    fn unknown_and_double_end_are_rejected() {
        let r = FlightRecorder::new(0);
        let root = r.root(SpanName::verb("a"), 0);
        assert!(r.end(root, 1));
        assert!(!r.end(root, 2));
        assert!(!r.end(
            TraceRef {
                trace_id: 1,
                span_id: 77,
            },
            3
        ));
        assert_eq!(r.rejected(), 2);
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let r = FlightRecorder::with_capacity(0, 2);
        for (i, name) in ["s0", "s1", "s2", "s3"].into_iter().enumerate() {
            let i = i as u64;
            let s = r.root(SpanName::verb(name), i * 10);
            assert!(r.end(s, i * 10 + 1));
        }
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "s2");
        assert_eq!(evs[1].name, "s3");
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn open_spans_survive_into_the_export() {
        let r = FlightRecorder::new(0);
        let root = r.root(SpanName::verb("crashed-mid-flight"), 40);
        let open = r.open_events();
        assert_eq!(open.len(), 1);
        assert!(open[0].open);
        assert_eq!(open[0].span_id, root.span_id);
        assert_eq!(open[0].end_us, open[0].start_us);
        let log = TraceLog::merge([&r]);
        assert_eq!(log.events.len(), 1);
        assert!(log.to_chrome_json("t", 0).contains("\"open\":1"));
    }

    #[test]
    fn merged_log_is_sorted_and_deterministic() {
        let build = || {
            let a = FlightRecorder::new(0);
            let b = FlightRecorder::new(1);
            let root = a.root(SpanName::verb("migrate"), 0);
            let ctx = a.context(root).unwrap();
            let adopt = b.child(ctx, SpanName::verb("adopt"), 5);
            b.end(adopt, 9);
            a.end(root, 12);
            let other = b.root(SpanName::verb("redirect"), 20);
            b.end(other, 21);
            TraceLog::merge([&a, &b]).to_chrome_json("unit", 7)
        };
        let j = build();
        assert_eq!(j, build());
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"metadata\":{\"schema\":1,\"label\":\"unit\",\"seed\":7"));
        assert!(j.ends_with("}\n"));
        // The root sorts before its child (lower Lamport stamp).
        let migrate = j.find("\"name\":\"migrate\"").unwrap();
        let adopt = j.find("\"name\":\"adopt\"").unwrap();
        assert!(migrate < adopt);
    }

    #[test]
    fn write_to_names_file_after_label() {
        let dir = std::env::temp_dir().join(format!("dosgi-trace-test-{}", std::process::id()));
        let r = FlightRecorder::new(0);
        let s = r.root(SpanName::verb("x"), 0);
        r.end(s, 1);
        let log = TraceLog::merge([&r]);
        let path = log.write_to(&dir, "unit", 3).expect("write trace");
        assert!(path.ends_with("trace_unit.json"));
        let bytes = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(bytes, log.to_chrome_json("unit", 3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
