//! A 50-op smoke run of every workload: state checks pass, no op fails,
//! and the exact metrics are bit-identical across two repetitions in one
//! process and across two processes.

use dosgi_benchmark::harness::{repetition, Count};
use dosgi_benchmark::trace::Off;
use dosgi_benchmark::workloads::{Failover, Migrate, ServeRead, ServeWrite, Workload};
use dosgi_telemetry::Telemetry;
use dosgi_testkit::Json;
use std::process::Command;

const OPS: u32 = 50;

fn two_repetitions_agree<W: Workload>() {
    let a = repetition::<W>(12, OPS, Telemetry::new(), &mut Off).ledger;
    let b = repetition::<W>(12, OPS, Telemetry::new(), &mut Off).ledger;
    assert_eq!(a.get(Count::FailedOps), 0, "{}: failed ops", W::NAME);
    assert_eq!(a.get(Count::WrongState), 0, "{}: state check", W::NAME);
    assert!(a.get(Count::Allocs) > 0 && a.get(Count::SimP50) > 0);
    assert_eq!(a, b, "{}: exact metrics repeat", W::NAME);
    // Another seed is another input: the counts must be able to differ,
    // or the comparison above would prove nothing.
    let other = repetition::<W>(13, OPS, Telemetry::new(), &mut Off).ledger;
    assert_eq!(
        other.get(Count::FailedOps) + other.get(Count::WrongState),
        0
    );
    assert_ne!(a, other, "{}: the seed reaches the program", W::NAME);
}

/// The result lines of `--workload all --ops 50`, one per workload.
fn process_results() -> Vec<Json> {
    let out = Command::new(env!("CARGO_BIN_EXE_dosgi-benchmark"))
        .args(["--workload", "all", "--ops", "50", "--seed", "12"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("a result line is JSON"))
        .collect()
}

// One test, so that nothing else in this process allocates while a
// repetition counts its allocations.
#[test]
fn every_workload_repeats_exactly() {
    two_repetitions_agree::<ServeRead>();
    two_repetitions_agree::<ServeWrite>();
    two_repetitions_agree::<Migrate>();
    two_repetitions_agree::<Failover>();

    let (a, b) = (process_results(), process_results());
    assert_eq!(a.len(), 4);
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(ra.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(ra.get("attempted"), rb.get("attempted"));
        for name in [
            "sim_op_p50_us",
            "sim_op_p90_us",
            "allocs_per_op",
            "alloc_kib_per_op",
        ] {
            let value = |r: &Json| r.get("metrics")?.get(name)?.get("value").cloned();
            assert!(value(ra).is_some(), "{name} is reported");
            assert_eq!(value(ra), value(rb), "{name} differs between processes");
        }
    }
}
