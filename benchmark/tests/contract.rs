//! `BENCHMARK.json` and the program agree: the same workloads, and in each
//! mode exactly the metrics the file lists, with the units it lists.

use dosgi_benchmark::{result_line, run, Size, WORKLOADS};
use dosgi_testkit::Json;
use std::collections::BTreeMap;
use std::path::Path;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the root"))
        .expect("BENCHMARK.json parses")
}

fn listed(spec: &Json, key: &str) -> BTreeMap<String, String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(workload: &str, trace: bool) -> BTreeMap<String, String> {
    let out = std::env::temp_dir().join(format!("dosgi-benchmark-contract-{}", std::process::id()));
    let outcome = run(workload, 12, Size::Ops(10), trace, &out).expect("the run completes");
    if trace {
        let file = out.join(format!("trace_{workload}.json"));
        let trace = Json::parse(&std::fs::read_to_string(&file).expect("span file")).expect("json");
        assert!(!trace
            .get("spans")
            .and_then(Json::as_arr)
            .expect("spans")
            .is_empty());
        std::fs::remove_dir_all(&out).expect("temporary directory");
    }
    assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
    assert!(outcome.attempted >= 1 && outcome.failed == 0);
    // The result line carries exactly the four keys of the contract.
    let line = Json::parse(&result_line(&outcome)).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
    assert_eq!(metrics.len(), outcome.metrics.len(), "a name is used once");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} is a number", m.name);
    }
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

// One test: a second one running beside it would allocate while the first
// counts allocations, and the runs below would disagree with themselves.
#[test]
fn the_file_and_the_program_agree() {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(
        spec.get("run_seconds").and_then(Json::as_u64),
        Some(u64::from(dosgi_benchmark::harness::RUN_SECONDS))
    );

    let (end_to_end, per_layer) = (listed(&spec, "end_to_end"), listed(&spec, "per_layer"));
    assert!(end_to_end.contains_key("setup_s"));
    for workload in WORKLOADS {
        assert_eq!(
            reported(workload, false),
            end_to_end,
            "{workload} --trace 0"
        );
        assert_eq!(reported(workload, true), per_layer, "{workload} --trace 1");
    }
}
