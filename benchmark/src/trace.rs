//! Outside-in tracing: the harness wraps every public call it makes into
//! the program in a span, so the per-layer ledger needs no change to the
//! program itself.
//!
//! [`Off`] compiles to nothing and is what every end-to-end number is
//! measured with. [`Recorder`] keeps, in memory, a total per call site
//! over the whole window plus the full span tree of the first
//! [`DETAIL_OPS`] ops (a serve repetition makes 1.6 million calls; a file of
//! all of them would measure the disk), and writes both out at exit.

use crate::alloc::AllocCount;
use std::fmt::Write as _;
use std::time::Instant;

/// Ops whose complete span tree goes into the trace file.
pub const DETAIL_OPS: u32 = 32;

/// The public calls the harness makes, i.e. the span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `DosgiCluster::step`
    Step,
    /// `DosgiCluster::call`
    Invoke,
    /// `DosgiCluster::migrate`
    Migrate,
    /// `DosgiCluster::crash_node`
    CrashNode,
    /// `DosgiCluster::restart_node`
    RestartNode,
    /// `DosgiCluster::take_events`
    TakeEvents,
    /// `IpvsDirector::admit`
    Admit,
    /// `IpvsDirector::drain`
    Drain,
}

impl Call {
    /// Every call site, in ledger order.
    pub const ALL: [Call; 8] = [
        Call::Step,
        Call::Invoke,
        Call::Migrate,
        Call::CrashNode,
        Call::RestartNode,
        Call::TakeEvents,
        Call::Admit,
        Call::Drain,
    ];

    /// The span name: layer, then function.
    pub fn name(self) -> &'static str {
        match self {
            Call::Step => "core.step",
            Call::Invoke => "core.call",
            Call::Migrate => "core.migrate",
            Call::CrashNode => "core.crash_node",
            Call::RestartNode => "core.restart_node",
            Call::TakeEvents => "core.take_events",
            Call::Admit => "ipvs.admit",
            Call::Drain => "ipvs.drain",
        }
    }
}

/// What the workloads report their calls to.
pub trait Trace {
    /// Opens the span of one op.
    fn op_begin(&mut self);
    /// Closes it.
    fn op_end(&mut self);
    /// Runs `f` inside a child span named after `call`.
    fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: every hook is empty and inlines away.
#[derive(Debug, Default)]
pub struct Off;

impl Trace for Off {
    #[inline(always)]
    fn op_begin(&mut self) {}
    #[inline(always)]
    fn op_end(&mut self) {}
    #[inline(always)]
    fn call<R>(&mut self, _call: Call, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the span list.
    pub id: u32,
    /// The span that caused this one (`None` for an op).
    pub parent: Option<u32>,
    /// `"op"` or a [`Call::name`].
    pub name: &'static str,
    /// Index of the op this span belongs to: the shared identifier.
    pub op: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Allocation requests made inside the span.
    pub allocs: u64,
    /// Bytes requested inside the span.
    pub alloc_bytes: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children never overlap: the harness is single-threaded).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_ns();
        }
    }
    own
}

/// Whole-window total of one call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotal {
    /// Calls made.
    pub count: u64,
    /// Time inside them, ns.
    pub ns: u64,
    /// Allocation requests inside them.
    pub allocs: u64,
    /// Bytes requested inside them.
    pub alloc_bytes: u64,
}

struct OpenOp {
    span: Option<u32>,
    start: Instant,
    allocs: AllocCount,
    children_ns: u64,
}

/// Tracing on.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    totals: [CallTotal; Call::ALL.len()],
    ops: u32,
    ops_ns: u64,
    ops_self_ns: u64,
    open: Option<OpenOp>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            // Reserved up front so that recording never allocates inside
            // an op: 1 + step + 80 admits + 80 calls + drain per serve op.
            spans: Vec::with_capacity(DETAIL_OPS as usize * 164),
            totals: [CallTotal::default(); Call::ALL.len()],
            ops: 0,
            ops_ns: 0,
            ops_self_ns: 0,
            open: None,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn detailed(&self) -> bool {
        self.ops < DETAIL_OPS && self.spans.len() < self.spans.capacity()
    }

    /// The whole-window total of one call site.
    pub fn total(&self, call: Call) -> CallTotal {
        self.totals[call as usize]
    }

    /// Ops recorded.
    pub fn ops(&self) -> u32 {
        self.ops
    }

    /// Time inside op spans, ns.
    pub fn ops_ns(&self) -> u64 {
        self.ops_ns
    }

    /// Time inside op spans but outside every child: the harness's own
    /// share (input generation, bookkeeping, the spans themselves).
    pub fn ops_self_ns(&self) -> u64 {
        self.ops_self_ns
    }

    /// The detailed spans (first [`DETAIL_OPS`] ops).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: per-call totals for the whole window, then the
    /// span tree of the first ops with self times filled in.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"ops\": {},\n  \"ops_ns\": {},\n  \"ops_self_ns\": {},\n  \"totals\": [",
            self.ops, self.ops_ns, self.ops_self_ns
        );
        for (i, call) in Call::ALL.iter().enumerate() {
            let t = self.total(*call);
            let _ = write!(
                out,
                "{}\n    {{\"name\": \"{}\", \"count\": {}, \"ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                if i == 0 { "" } else { "," },
                call.name(),
                t.count,
                t.ns,
                t.allocs,
                t.alloc_bytes
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"detail_ops\": {DETAIL_OPS},\n  \"spans\": ["
        );
        let own = self_times_ns(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n    {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                own[i],
                s.allocs,
                s.alloc_bytes
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl Trace for Recorder {
    fn op_begin(&mut self) {
        let span = self.detailed().then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: None,
                name: "op",
                op: self.ops,
                start_ns: 0,
                end_ns: 0,
                allocs: 0,
                alloc_bytes: 0,
            });
            id
        });
        let allocs = AllocCount::now();
        self.open = Some(OpenOp {
            span,
            start: Instant::now(),
            allocs,
            children_ns: 0,
        });
    }

    fn op_end(&mut self) {
        let end = Instant::now();
        let used = AllocCount::now();
        let Some(op) = self.open.take() else { return };
        let ns = end.duration_since(op.start).as_nanos() as u64;
        self.ops += 1;
        self.ops_ns += ns;
        self.ops_self_ns += ns.saturating_sub(op.children_ns);
        if let Some(id) = op.span {
            let used = used.since(op.allocs);
            let (start_ns, end_ns) = (self.ns(op.start), self.ns(end));
            let s = &mut self.spans[id as usize];
            s.start_ns = start_ns;
            s.end_ns = end_ns;
            s.allocs = used.allocs;
            s.alloc_bytes = used.bytes;
        }
    }

    fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let before = AllocCount::now();
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let used = AllocCount::now().since(before);
        let ns = end.duration_since(start).as_nanos() as u64;
        let t = &mut self.totals[call as usize];
        t.count += 1;
        t.ns += ns;
        t.allocs += used.allocs;
        t.alloc_bytes += used.bytes;
        let parent = self.open.as_mut().and_then(|op| {
            op.children_ns += ns;
            op.span
        });
        if parent.is_some() && self.spans.len() < self.spans.capacity() {
            let id = self.spans.len() as u32;
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                id,
                parent,
                name: call.name(),
                op: self.ops,
                start_ns,
                end_ns,
                allocs: used.allocs,
                alloc_bytes: used.bytes,
            });
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            op: 0,
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_on_a_hand_built_tree() {
        // op [0,1000)
        //   a [100,400)
        //     a1 [150,250)
        //     a2 [250,300)
        //   b [500,900)
        // leaf op [1000,1100)
        let spans = vec![
            span(0, None, 0, 1000),
            span(1, Some(0), 100, 400),
            span(2, Some(1), 150, 250),
            span(3, Some(1), 250, 300),
            span(4, Some(0), 500, 900),
            span(5, None, 1000, 1100),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![
                1000 - 300 - 400, // op: minus a and b, not a's children
                300 - 100 - 50,
                100,
                50,
                400,
                100
            ]
        );
        // Self times add up to the roots' durations: nothing is counted
        // twice and nothing is lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1000 + 100);
    }

    #[test]
    fn recorder_totals_cover_every_op_and_details_only_the_first() {
        let mut r = Recorder::new();
        for _ in 0..DETAIL_OPS + 8 {
            r.op_begin();
            let v = r.call(Call::Step, || vec![1u8; 64]);
            r.call(Call::Drain, || drop(v));
            r.op_end();
        }
        assert_eq!(r.ops(), DETAIL_OPS + 8);
        assert_eq!(r.total(Call::Step).count, u64::from(DETAIL_OPS) + 8);
        assert_eq!(r.total(Call::Drain).count, u64::from(DETAIL_OPS) + 8);
        assert_eq!(r.total(Call::Admit), CallTotal::default());
        assert!(r.total(Call::Step).allocs >= u64::from(DETAIL_OPS) + 8);
        assert_eq!(r.spans().len(), 3 * DETAIL_OPS as usize);
        let own = self_times_ns(r.spans());
        for s in r.spans().iter().filter(|s| s.parent.is_none()) {
            let children: u64 = r
                .spans()
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(Span::duration_ns)
                .sum();
            assert_eq!(own[s.id as usize], s.duration_ns() - children);
            assert!(children <= s.duration_ns());
        }
        assert!(r.ops_self_ns() <= r.ops_ns());
        let json = dosgi_testkit::Json::parse(&r.to_json("t", 1)).expect("valid json");
        assert_eq!(
            json.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(3 * DETAIL_OPS as usize)
        );
    }
}
