//! Causal analyzer for exported flight-recorder traces.
//!
//! Reads `results/trace_*.json` (Chrome trace-event files written by the
//! chaos sweep and the migration bench; explicit paths may be given as
//! arguments instead), reassembles each distributed trace from the causal
//! metadata in `args`, and fails on any happens-before violation:
//!
//! * **missing root** — a trace with no span whose id equals the trace id;
//! * **orphaned child** — a span naming a parent that appears nowhere in
//!   its trace;
//! * **blind remote child** — a span recorded on a different node than its
//!   parent without an imported context stamp (`ctx_lamport == 0`), i.e. a
//!   span closed on a node that never saw its parent;
//! * **Lamport inversion** — a child (or imported context) not strictly
//!   after its parent's open stamp;
//! * **adopt before release** — within one trace, an `adopt/<name>` span
//!   whose Lamport open does not follow the `release/<name>` close (the
//!   single-activation invariant, causally stated);
//! * **upgrade-adopt before handoff** — in an `upgrade/`-rooted trace, a
//!   `u_adopt/<bundle>` span starting before the old revision's
//!   `u_quiesce/<bundle>` or `u_persist/<bundle>` finished: the new
//!   revision must only adopt state that is quiesced *and* durable;
//! * **un-drain before adopt** — an `undrain/*` span not causally after
//!   every `u_adopt/*` close in its trace: traffic must not be steered
//!   back onto a node whose swap has not finished.
//!
//! Each rule counts the traces, spans or span pairs it examined. Run with
//! no arguments, that is on the committed capture set, the analyzer also
//! fails naming any rule that examined nothing: a rule over spans that no
//! run emits checks nothing.
//!
//! Ring overflow (`dropped > 0` in the file metadata) makes missing
//! spans indistinguishable from causal bugs, so the structural checks are
//! skipped for such files (still reported).
//!
//! For every complete `migrate/<name>`-rooted trace the analyzer also
//! emits the end-to-end latency breakdown the paper's §3.2 claim is about:
//! quiesce, final persist, registry hand-off (release close → adopt open),
//! adopt, and total (root open → adopt close), aggregated min/mean/max.

use dosgi_bench::print_table;
use dosgi_telemetry::{TraceEvent, TRACE_SCHEMA_VERSION};
use dosgi_testkit::{workspace_root, Json};
use std::collections::BTreeMap;

/// One parsed trace file: the event list plus the metadata that decides
/// how strictly it can be checked.
struct ParsedTrace {
    events: Vec<TraceEvent>,
    dropped: u64,
}

fn field_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer `{key}`"))
}

fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let meta = json.get("metadata").ok_or("missing `metadata` object")?;
    let schema = field_u64(meta, "schema")?;
    if schema != TRACE_SCHEMA_VERSION {
        return Err(format!(
            "trace schema {schema} != supported {TRACE_SCHEMA_VERSION}"
        ));
    }
    let dropped = field_u64(meta, "dropped")?;
    let raw = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing array `traceEvents`")?;
    let mut events = Vec::with_capacity(raw.len());
    for e in raw {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event missing string `name`")?
            .to_owned();
        let start_us = field_u64(e, "ts")?;
        let args = e.get("args").ok_or("event missing `args`")?;
        events.push(TraceEvent {
            trace_id: field_u64(args, "trace_id")?,
            span_id: field_u64(args, "span_id")?,
            parent_span: field_u64(args, "parent_span")?,
            node: field_u64(e, "pid")?,
            name,
            start_us,
            end_us: start_us + field_u64(e, "dur")?,
            lamport_start: field_u64(args, "lamport_start")?,
            lamport_end: field_u64(args, "lamport_end")?,
            ctx_lamport: field_u64(args, "ctx_lamport")?,
            open: field_u64(args, "open")? != 0,
        });
    }
    Ok(ParsedTrace { events, dropped })
}

/// The rules, as the module doc names them.
const RULES: [&str; 7] = [
    "missing root",
    "orphaned child",
    "blind remote child",
    "Lamport inversion",
    "adopt before release",
    "upgrade-adopt before handoff",
    "un-drain before adopt",
];

/// What the rules found in one event log: the violations, and how many
/// traces (*missing root*), spans or span pairs each rule examined.
#[derive(Default)]
struct Verdict {
    violations: Vec<String>,
    examined: BTreeMap<&'static str, usize>,
}

impl Verdict {
    /// Counts one trace, span or span pair that `rule`, one of [`RULES`],
    /// examined.
    fn examine(&mut self, rule: &'static str) {
        debug_assert!(RULES.contains(&rule), "unknown rule {rule}");
        *self.examined.entry(rule).or_default() += 1;
    }
}

/// The events of each trace, by trace id.
fn by_trace(events: &[TraceEvent]) -> BTreeMap<u64, Vec<&TraceEvent>> {
    let mut traces: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        traces.entry(e.trace_id).or_default().push(e);
    }
    traces
}

/// Runs every rule over one event log. `complete` is false when ring
/// overflow was reported, disabling the structural (missing-span) checks.
fn check(events: &[TraceEvent], complete: bool) -> Verdict {
    let mut verdict = Verdict::default();
    for (trace_id, evs) in &by_trace(events) {
        let by_span: BTreeMap<u64, &TraceEvent> = evs.iter().map(|e| (e.span_id, *e)).collect();
        if complete {
            verdict.examine("missing root");
            if !by_span.contains_key(trace_id) {
                verdict
                    .violations
                    .push(format!("trace {trace_id}: missing root span"));
            }
        }
        for e in evs {
            if e.parent_span == 0 {
                continue;
            }
            if complete {
                verdict.examine("orphaned child");
            }
            let Some(parent) = by_span.get(&e.parent_span) else {
                if complete {
                    verdict.violations.push(format!(
                        "trace {trace_id}: orphaned child `{}` (parent {} absent)",
                        e.name, e.parent_span
                    ));
                }
                continue;
            };
            if TraceEvent::node_of(e.parent_span) != e.node {
                // Cross-node edge: the child's node must have imported a
                // context minted after the parent opened.
                verdict.examine("blind remote child");
                if e.ctx_lamport == 0 {
                    verdict.violations.push(format!(
                        "trace {trace_id}: `{}` closed on node {} which never \
                         saw its parent `{}` (no context stamp)",
                        e.name, e.node, parent.name
                    ));
                } else {
                    verdict.examine("Lamport inversion");
                    if e.ctx_lamport <= parent.lamport_start {
                        verdict.violations.push(format!(
                            "trace {trace_id}: context for `{}` stamped {} <= \
                             parent `{}` open {}",
                            e.name, e.ctx_lamport, parent.name, parent.lamport_start
                        ));
                    }
                    if e.lamport_start <= e.ctx_lamport {
                        verdict.violations.push(format!(
                            "trace {trace_id}: `{}` opened at {} despite \
                             importing context {}",
                            e.name, e.lamport_start, e.ctx_lamport
                        ));
                    }
                }
            } else {
                verdict.examine("Lamport inversion");
                if e.lamport_start <= parent.lamport_start {
                    verdict.violations.push(format!(
                        "trace {trace_id}: child `{}` open {} <= parent `{}` open {}",
                        e.name, e.lamport_start, parent.name, parent.lamport_start
                    ));
                }
            }
        }
        // Single activation, causally stated: the destination's adoption
        // must follow the source's release of the same instance.
        for rel in evs.iter().filter(|e| !e.open) {
            let Some(instance) = rel.name.strip_prefix("release/") else {
                continue;
            };
            for adopt in evs
                .iter()
                .filter(|e| e.name.strip_prefix("adopt/") == Some(instance))
            {
                verdict.examine("adopt before release");
                if adopt.lamport_start <= rel.lamport_end {
                    verdict.violations.push(format!(
                        "trace {trace_id}: `{}` before `{}` released \
                         (lamport {} <= {})",
                        adopt.name, rel.name, adopt.lamport_start, rel.lamport_end
                    ));
                }
                if !adopt.open && adopt.start_us < rel.end_us {
                    verdict.violations.push(format!(
                        "trace {trace_id}: `{}` adopted at {}us before release \
                         finished at {}us",
                        adopt.name, adopt.start_us, rel.end_us
                    ));
                }
            }
        }
        // Hot-swap ordering (E14). Rule 1: the new revision adopts only
        // after the old revision's quiesce AND final persist have closed —
        // an earlier adopt would read state still being written.
        for adopt in evs.iter().filter(|e| e.name.starts_with("u_adopt/")) {
            let instance = adopt.name.strip_prefix("u_adopt/").unwrap_or_default();
            for phase in ["u_quiesce/", "u_persist/"] {
                for prev in evs
                    .iter()
                    .filter(|e| !e.open && e.name.strip_prefix(phase) == Some(instance))
                {
                    verdict.examine("upgrade-adopt before handoff");
                    if adopt.lamport_start <= prev.lamport_end {
                        verdict.violations.push(format!(
                            "trace {trace_id}: `{}` before `{}` finished \
                             (lamport {} <= {})",
                            adopt.name, prev.name, adopt.lamport_start, prev.lamport_end
                        ));
                    }
                    if adopt.start_us < prev.end_us {
                        verdict.violations.push(format!(
                            "trace {trace_id}: `{}` adopted at {}us before `{}` \
                             finished at {}us",
                            adopt.name, adopt.start_us, prev.name, prev.end_us
                        ));
                    }
                }
            }
        }
        // Rule 2: traffic is steered back (un-drained) only after every
        // swap in the trace has adopted — causally, not just by clock.
        for u in evs.iter().filter(|e| e.name.starts_with("undrain/")) {
            for adopt in evs
                .iter()
                .filter(|e| !e.open && e.name.starts_with("u_adopt/"))
            {
                verdict.examine("un-drain before adopt");
                if u.lamport_start <= adopt.lamport_end {
                    verdict.violations.push(format!(
                        "trace {trace_id}: `{}` before `{}` adopted \
                         (lamport {} <= {})",
                        u.name, adopt.name, u.lamport_start, adopt.lamport_end
                    ));
                }
            }
        }
    }
    verdict
}

/// Phase latencies (simulated µs) of one complete graceful migration.
struct Breakdown {
    quiesce: u64,
    persist: u64,
    handoff: u64,
    adopt: u64,
    total: u64,
}

/// Extracts the latency breakdown of every `migrate/<name>`-rooted trace
/// whose five phase spans are all present and closed.
fn migration_breakdowns(events: &[TraceEvent]) -> Vec<Breakdown> {
    let mut out = Vec::new();
    for (trace_id, evs) in &by_trace(events) {
        let Some(root) = evs.iter().find(|e| e.span_id == *trace_id) else {
            continue;
        };
        let Some(instance) = root.name.strip_prefix("migrate/") else {
            continue;
        };
        let find = |prefix: &str| {
            evs.iter()
                .find(|e| !e.open && e.name.strip_prefix(prefix) == Some(instance))
        };
        let (Some(release), Some(quiesce), Some(persist), Some(adopt)) = (
            find("release/"),
            find("quiesce/"),
            find("persist/"),
            find("adopt/"),
        ) else {
            continue;
        };
        out.push(Breakdown {
            quiesce: quiesce.duration_us(),
            persist: persist.duration_us(),
            handoff: adopt.start_us.saturating_sub(release.end_us),
            adopt: adopt.duration_us(),
            total: adopt.end_us.saturating_sub(root.start_us),
        });
    }
    out
}

fn stats_row(name: &str, samples: impl Iterator<Item = u64> + Clone) -> Vec<String> {
    let (mut min, mut max, mut sum, mut n) = (u64::MAX, 0u64, 0u64, 0u64);
    for v in samples {
        min = min.min(v);
        max = max.max(v);
        sum += v;
        n += 1;
    }
    vec![
        name.to_owned(),
        format!("{min}"),
        format!("{}", sum / n.max(1)),
        format!("{max}"),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // No arguments: the committed capture set, on which every rule must
    // examine something.
    let committed = args.is_empty();
    let files: Vec<std::path::PathBuf> = if committed {
        let dir = workspace_root().join("results");
        let mut found: Vec<_> = std::fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("trace_") && n.ends_with(".json"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        found.sort();
        if found.is_empty() {
            eprintln!(
                "no traces under {} — run the chaos sweep first",
                dir.display()
            );
            std::process::exit(1);
        }
        found
    } else {
        args.iter().map(std::path::PathBuf::from).collect()
    };

    let mut failed = false;
    let mut total_violations = 0usize;
    let mut examined = BTreeMap::from(RULES.map(|rule| (rule, 0)));
    let mut breakdowns = Vec::new();
    for path in &files {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|text| parse_trace(&text));
        let trace = match parsed {
            Ok(t) => t,
            Err(e) => {
                failed = true;
                println!("  BAD {}: {e}", path.display());
                continue;
            }
        };
        let complete = trace.dropped == 0;
        let Verdict {
            violations,
            examined: seen,
        } = check(&trace.events, complete);
        for (rule, n) in seen {
            *examined.entry(rule).or_default() += n;
        }
        let migrations = migration_breakdowns(&trace.events);
        let note = if complete {
            ""
        } else {
            "  [ring overflow: structural checks skipped]"
        };
        if violations.is_empty() {
            println!(
                "  ok  {}  (events {}, traces {}, migrations {}){note}",
                path.display(),
                trace.events.len(),
                by_trace(&trace.events).len(),
                migrations.len()
            );
        } else {
            failed = true;
            println!(
                "  BAD {}: {} causal violation(s)",
                path.display(),
                violations.len()
            );
            for v in &violations {
                println!("      {v}");
            }
        }
        total_violations += violations.len();
        breakdowns.extend(migrations);
    }

    if breakdowns.is_empty() {
        println!("\nno complete migrate/-rooted traces — no latency breakdown");
    } else {
        print_table(
            &format!(
                "Migration latency breakdown (simulated µs, {} migration(s))",
                breakdowns.len()
            ),
            &["phase", "min", "mean", "max"],
            &[
                stats_row("quiesce", breakdowns.iter().map(|b| b.quiesce)),
                stats_row("persist", breakdowns.iter().map(|b| b.persist)),
                stats_row("registry hand-off", breakdowns.iter().map(|b| b.handoff)),
                stats_row("adopt", breakdowns.iter().map(|b| b.adopt)),
                stats_row("total", breakdowns.iter().map(|b| b.total)),
            ],
        );
    }

    print_table(
        "Traces, spans or span pairs each rule examined",
        &["rule", "examined"],
        &RULES.map(|rule| vec![rule.to_owned(), examined[rule].to_string()]),
    );
    // A rule that examined nothing in the committed captures checks
    // nothing: its spans are not emitted, or it looks for the wrong name.
    if committed {
        for rule in RULES.iter().filter(|rule| examined[*rule] == 0) {
            failed = true;
            println!("  BAD rule `{rule}` examined nothing");
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "\n{} trace file(s), {total_violations} causal violations",
        files.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_telemetry::{FlightRecorder, SpanName, TraceLog};
    use std::sync::Arc;

    /// Drives two recorders through a full graceful migration and returns
    /// the merged log: the reference "good" trace.
    fn migration_log() -> TraceLog {
        let src = FlightRecorder::new(0);
        let dst = FlightRecorder::new(1);
        let web: Arc<str> = Arc::from("web");
        let root = src.root(SpanName::of("migrate", &web), 1_000);
        let root_ctx = src.context(root).unwrap();
        let rel = src.child(root_ctx, SpanName::of("release", &web), 2_000);
        let rel_ctx = src.context(rel).unwrap();
        let q = src.child(rel_ctx, SpanName::of("quiesce", &web), 2_000);
        src.end(q, 2_500);
        let p = src.child(rel_ctx, SpanName::of("persist", &web), 2_500);
        src.end(p, 4_000);
        src.end(rel, 4_000);
        let released = src.context(rel).unwrap();
        src.end(root, 4_100);
        let adopt = dst.child(released, SpanName::of("adopt", &web), 5_000);
        dst.end(adopt, 7_000);
        TraceLog::merge([&src, &dst])
    }

    fn events() -> Vec<TraceEvent> {
        migration_log().events
    }

    fn causal_violations(events: &[TraceEvent], complete: bool) -> Vec<String> {
        check(events, complete).violations
    }

    #[test]
    fn clean_migration_has_no_violations() {
        assert_eq!(causal_violations(&events(), true), Vec::<String>::new());
    }

    #[test]
    fn export_parse_roundtrip_preserves_the_verdict() {
        let json = migration_log().to_chrome_json("t", 7);
        let parsed = parse_trace(&json).expect("parses");
        assert_eq!(parsed.events, events(), "roundtrip is lossless");
        assert!(causal_violations(&parsed.events, parsed.dropped == 0).is_empty());
    }

    #[test]
    fn breakdown_measures_every_phase() {
        let b = migration_breakdowns(&events());
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].quiesce, 500);
        assert_eq!(b[0].persist, 1_500);
        assert_eq!(b[0].handoff, 1_000, "release end 4000 -> adopt start 5000");
        assert_eq!(b[0].adopt, 2_000);
        assert_eq!(b[0].total, 6_000, "root open 1000 -> adopt end 7000");
    }

    #[test]
    fn missing_root_is_flagged() {
        let evs: Vec<_> = events()
            .into_iter()
            .map(|mut e| {
                // Re-home the whole trace onto a span id that no event has
                // (span sequence numbers here stay far below 1000).
                e.trace_id += 1_000;
                e
            })
            .collect();
        let v = causal_violations(&evs, true);
        assert!(v.iter().any(|v| v.contains("missing root")), "{v:?}");
        // Incomplete logs (ring overflow) skip the structural check.
        assert!(causal_violations(&evs, false).is_empty());
    }

    #[test]
    fn orphaned_child_is_flagged() {
        let evs: Vec<_> = events()
            .into_iter()
            .filter(|e| e.name != "release/web")
            .collect();
        let v = causal_violations(&evs, true);
        assert!(v.iter().any(|v| v.contains("orphaned child")), "{v:?}");
    }

    #[test]
    fn blind_remote_adopt_is_flagged() {
        let mut evs = events();
        let adopt = evs.iter_mut().find(|e| e.name == "adopt/web").unwrap();
        adopt.ctx_lamport = 0;
        let v = causal_violations(&evs, true);
        assert!(
            v.iter().any(|v| v.contains("never saw its parent")),
            "{v:?}"
        );
    }

    #[test]
    fn adopt_before_release_is_flagged() {
        let mut evs = events();
        let rel_end = evs
            .iter()
            .find(|e| e.name == "release/web")
            .unwrap()
            .lamport_end;
        let adopt = evs.iter_mut().find(|e| e.name == "adopt/web").unwrap();
        adopt.lamport_start = rel_end; // not strictly after the release
        adopt.start_us = 3_000; // and wall-clock inside the release window
        let v = causal_violations(&evs, true);
        assert!(
            v.iter()
                .any(|v| v.contains("before `release/web` released")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|v| v.contains("before release finished")),
            "{v:?}"
        );
    }

    #[test]
    fn local_lamport_inversion_is_flagged() {
        let mut evs = events();
        let q = evs.iter_mut().find(|e| e.name == "quiesce/web").unwrap();
        q.lamport_start = 1; // claims to precede its parent's open
        let v = causal_violations(&evs, true);
        assert!(v.iter().any(|v| v.contains("child `quiesce/web`")), "{v:?}");
    }

    /// Drives a node recorder and a load-balancer recorder through one
    /// clean hot-swap (drain → quiesce → persist → adopt → un-drain): the
    /// reference "good" upgrade trace for the E14 rules.
    fn upgrade_log() -> TraceLog {
        let node = FlightRecorder::new(0);
        let lb = FlightRecorder::new(9);
        let (ctr, bundle): (Arc<str>, Arc<str>) = ("ctr-0".into(), "org.app.counter-wt".into());
        let root = node.root(SpanName::of("upgrade", &ctr), 1_000);
        let ctx = node.context(root).unwrap();
        let q = node.child(ctx, SpanName::of("u_quiesce", &bundle), 1_000);
        node.end(q, 1_050);
        let p = node.child(ctx, SpanName::of("u_persist", &bundle), 1_050);
        node.end(p, 1_400);
        let a = node.child(ctx, SpanName::of("u_adopt", &bundle), 1_400);
        node.end(a, 1_550);
        node.end(root, 1_550);
        let done = node.context(root).unwrap();
        let u = lb.child(done, SpanName::node("undrain", 0), 2_000);
        lb.end(u, 2_010);
        TraceLog::merge([&node, &lb])
    }

    fn upgrade_events() -> Vec<TraceEvent> {
        upgrade_log().events
    }

    #[test]
    fn clean_upgrade_has_no_violations() {
        assert_eq!(
            causal_violations(&upgrade_events(), true),
            Vec::<String>::new()
        );
    }

    /// Rule 1: an adopt stamped before the final persist closed — the new
    /// revision would be reading state still in flight.
    #[test]
    fn upgrade_adopt_before_persist_end_is_flagged() {
        let mut evs = upgrade_events();
        let persist = evs
            .iter()
            .find(|e| e.name == "u_persist/org.app.counter-wt")
            .unwrap()
            .clone();
        let adopt = evs
            .iter_mut()
            .find(|e| e.name == "u_adopt/org.app.counter-wt")
            .unwrap();
        adopt.lamport_start = persist.lamport_end; // not strictly after
        adopt.start_us = 1_200; // and wall-clock inside the persist window
        let v = causal_violations(&evs, true);
        assert!(
            v.iter()
                .any(|v| v.contains("before `u_persist/org.app.counter-wt` finished")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|v| v.contains("adopted at 1200us before")),
            "{v:?}"
        );
    }

    /// Between them the two reference traces reach every rule, as the
    /// committed captures must.
    #[test]
    fn the_reference_traces_reach_every_rule() {
        let migration = check(&events(), true).examined;
        let upgrade = check(&upgrade_events(), true).examined;
        for rule in RULES {
            let examined = migration.contains_key(rule) || upgrade.contains_key(rule);
            assert!(examined, "{rule} examined nothing");
        }
    }

    /// Rule 2: traffic steered back onto the node before the swap adopted
    /// — the un-drain must be causally after every adopt in the trace.
    #[test]
    fn undrain_before_adopt_is_flagged() {
        let mut evs = upgrade_events();
        let adopt = evs
            .iter()
            .find(|e| e.name == "u_adopt/org.app.counter-wt")
            .unwrap()
            .clone();
        let undrain = evs.iter_mut().find(|e| e.name == "undrain/n0").unwrap();
        undrain.lamport_start = adopt.lamport_end; // tie: not strictly after
        let v = causal_violations(&evs, true);
        assert!(
            v.iter()
                .any(|v| v.contains("`undrain/n0` before `u_adopt/org.app.counter-wt` adopted")),
            "{v:?}"
        );
    }
}
