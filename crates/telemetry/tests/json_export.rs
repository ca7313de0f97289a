//! Both JSON exporters — the trace log's Chrome trace and the telemetry
//! snapshot — write strings any JSON reader parses back to the same text,
//! whatever characters they hold. Instance names are not validated, and
//! they flow into span names (`adopt/<name>`) and metric names. A span's
//! name is exported as exactly the text its verb and subject make.

use dosgi_telemetry::{
    AlertEvent, AlertWindow, FlightRecorder, SpanName, Telemetry, TraceEvent, TraceLog,
};
use dosgi_testkit::prop::{self, Config, Gen};
use dosgi_testkit::{prop_verify_eq, Json};
use std::sync::Arc;

/// Names a JSON writer must escape, or must leave alone, to stay JSON.
const NAMES: [&str; 7] = [
    "a\u{7f}b",
    "zw\u{200b}j",
    "\u{1}",
    "nul\u{0}",
    "q\"uote\\back/slash",
    "tab\tnl\ncr\r",
    "wide-名前-é",
];

/// The span names a Chrome trace holds, parsed back.
fn chrome_names(log: &TraceLog) -> Vec<String> {
    let json = Json::parse(&log.to_chrome_json("prop", 0)).expect("the trace file is JSON");
    let events = json.get("traceEvents").and_then(Json::as_arr);
    let name = |e: &Json| e.get("name").and_then(Json::as_str).map(str::to_owned);
    events
        .expect("an event array")
        .iter()
        .filter_map(name)
        .collect()
}

#[test]
fn a_span_name_exports_as_its_verb_and_subject_make_it() {
    const VERBS: [&str; 4] = ["adopt", "release", "failover", "u_quiesce"];
    const CHARS: [char; 16] = [
        'a', 'Z', '7', '-', '"', '\\', '/', 'é', '名', '😀', '\u{200b}', '\u{7f}', '\u{1}', '\0',
        '\n', '\u{feff}',
    ];
    let subject = Gen::new(|rng| {
        let len = rng.usize_in(0, 12);
        (0..len)
            .map(|_| CHARS[rng.usize_in(0, CHARS.len() - 1)])
            .collect::<String>()
    });
    let gen = Gen::new(move |rng| {
        let verb = VERBS[rng.usize_in(0, VERBS.len() - 1)];
        (verb, subject.sample(rng), rng.usize_in(0, 1) == 1)
    });
    prop::check_with(
        &Config::with_cases(300),
        "span_name_exports_verb_slash_subject",
        &gen,
        |(verb, subject, closed)| {
            let recorder = FlightRecorder::new(1);
            let span = recorder.root(SpanName::of(verb, &Arc::from(subject.as_str())), 10);
            if *closed {
                recorder.end(span, 20);
            }
            let expected = format!("{verb}/{subject}");
            let exported: Vec<TraceEvent> = if *closed {
                recorder.events()
            } else {
                recorder.open_events()
            };
            prop_verify_eq!(exported.len(), 1);
            prop_verify_eq!(exported[0].name, expected);
            prop_verify_eq!(chrome_names(&TraceLog::merge([&recorder])), [expected]);
            Ok(())
        },
    );
}

#[test]
fn a_chrome_trace_parses_back_to_its_span_names_and_label() {
    let recorder = FlightRecorder::new(0);
    for (i, name) in NAMES.iter().enumerate() {
        let span = recorder.root(SpanName::of("adopt", &Arc::from(*name)), i as u64);
        recorder.end(span, i as u64 + 1);
    }
    let label = "label\u{1}\"";
    let text = TraceLog::merge([&recorder]).to_chrome_json(label, 7);
    let json = Json::parse(&text).expect("the trace file is JSON");
    let names: Vec<&str> = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("an event array")
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("a name"))
        .collect();
    let expected: Vec<String> = NAMES.iter().map(|n| format!("adopt/{n}")).collect();
    assert_eq!(names, expected);
    let metadata = json.get("metadata").expect("metadata");
    assert_eq!(metadata.get("label").and_then(Json::as_str), Some(label));
}

#[test]
fn a_snapshot_parses_back_to_its_metric_names_label_and_alerts() {
    let t = Telemetry::new();
    for (i, name) in NAMES.iter().enumerate() {
        t.incr(&format!("c.{name}"));
        t.gauge_set(&format!("monitor.{name}.calls"), i as i64);
        t.record(&format!("h.{name}"), i as u64);
        t.record_alert(AlertEvent {
            slo: (*name).to_owned(),
            at_us: i as u64,
            firing: true,
            window: AlertWindow::Fast,
            burn_x100: 100,
        });
    }
    let label = "snap\u{7f}\u{1}";
    let text = t.snapshot(label, 3).to_json();
    let json = Json::parse(&text).expect("the snapshot is JSON");
    assert_eq!(json.get("label").and_then(Json::as_str), Some(label));
    let keys = |section: &str| -> Vec<String> {
        let obj = json.get(section).and_then(Json::as_obj).expect(section);
        obj.keys().cloned().collect()
    };
    let expected = |prefix: &str, suffix: &str| -> Vec<String> {
        let mut v: Vec<String> = NAMES
            .iter()
            .map(|n| format!("{prefix}{n}{suffix}"))
            .collect();
        v.sort();
        v
    };
    assert_eq!(keys("counters"), expected("c.", ""));
    assert_eq!(keys("gauges"), expected("monitor.", ".calls"));
    assert_eq!(keys("histograms"), expected("h.", ""));
    let slos: Vec<&str> = json
        .get("alerts")
        .and_then(Json::as_arr)
        .expect("an alert array")
        .iter()
        .map(|a| a.get("slo").and_then(Json::as_str).expect("an slo"))
        .collect();
    assert_eq!(slos, NAMES);
}
