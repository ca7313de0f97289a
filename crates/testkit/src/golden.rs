//! Golden-file (committed-fixture) test harness.
//!
//! A golden test renders some observable surface to a deterministic string,
//! then compares it byte-for-byte against a fixture committed under the
//! workspace root. On mismatch the test fails with a unified diff; setting
//! the suite's regeneration environment variable (e.g.
//! `SAN_FIXTURE_WRITE=1`) rewrites the fixture from the current output so
//! an *intentional* contract change is a reviewed file diff, not a silent
//! drift.
//!
//! The harness is generic: it knows about paths, diffs and the regen
//! protocol, not about what is being pinned. The SAN backend conformance
//! suite (`dosgi-san::conformance`) is its first client.

use crate::workspace_root;
use std::fs;
use std::path::PathBuf;

/// Outcome of a golden comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenOutcome {
    /// Fixture exists and matches the rendered output byte-for-byte.
    Match,
    /// The regen variable was set: the fixture was (re)written.
    Updated,
    /// Fixture differs; payload is a unified diff (`-` fixture, `+` actual).
    Mismatch(String),
    /// Fixture file does not exist and regeneration was not requested.
    Missing(PathBuf),
}

/// Resolves a fixture path relative to the workspace root.
pub fn fixture_path(rel: &str) -> PathBuf {
    workspace_root().join(rel)
}

/// Compares `actual` against the fixture at `rel` (workspace-relative).
/// When the environment variable `write_env` is set to a non-empty value
/// other than `0`, rewrites the fixture instead of comparing.
pub fn compare(rel: &str, actual: &str, write_env: &str) -> GoldenOutcome {
    let path = fixture_path(rel);
    let regen = std::env::var(write_env).is_ok_and(|v| !v.is_empty() && v != "0");
    if regen {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create fixture directory");
        }
        fs::write(&path, actual).expect("write fixture");
        return GoldenOutcome::Updated;
    }
    match fs::read_to_string(&path) {
        Err(_) => GoldenOutcome::Missing(path),
        Ok(expected) if expected == actual => GoldenOutcome::Match,
        Ok(expected) => GoldenOutcome::Mismatch(unified_diff(&expected, actual, rel)),
    }
}

/// Asserts `actual` matches the fixture, panicking with a unified diff and
/// regeneration instructions otherwise. This is the assertion golden tests
/// call.
pub fn assert_golden(rel: &str, actual: &str, write_env: &str) {
    match compare(rel, actual, write_env) {
        GoldenOutcome::Match => {}
        GoldenOutcome::Updated => {
            eprintln!("golden: rewrote {rel} ({write_env} set)");
        }
        GoldenOutcome::Missing(path) => {
            panic!(
                "golden fixture missing: {}\n  run with {write_env}=1 to create it",
                path.display()
            );
        }
        GoldenOutcome::Mismatch(diff) => {
            panic!(
                "golden fixture mismatch: {rel}\n{diff}\n  if the change is intentional, \
                 rerun with {write_env}=1 and commit the updated fixture"
            );
        }
    }
}

/// A minimal unified diff: common prefix and suffix are elided to a few
/// context lines, the differing middle is shown in full as `-` (fixture)
/// and `+` (actual) lines. Line-exact, not word-exact — fixtures are
/// line-oriented by construction.
pub fn unified_diff(expected: &str, actual: &str, label: &str) -> String {
    const CONTEXT: usize = 3;
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();

    let mut prefix = 0;
    while prefix < e.len() && prefix < a.len() && e[prefix] == a[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < e.len() - prefix && suffix < a.len() - prefix {
        if e[e.len() - 1 - suffix] != a[a.len() - 1 - suffix] {
            break;
        }
        suffix += 1;
    }

    let mut out = String::new();
    out.push_str(&format!("--- fixture {label}\n+++ actual\n"));
    let ctx_start = prefix.saturating_sub(CONTEXT);
    out.push_str(&format!(
        "@@ -{},{} +{},{} @@\n",
        ctx_start + 1,
        e.len() - suffix - ctx_start,
        ctx_start + 1,
        a.len() - suffix - ctx_start
    ));
    for line in &e[ctx_start..prefix] {
        out.push_str(&format!(" {line}\n"));
    }
    for line in &e[prefix..e.len() - suffix] {
        out.push_str(&format!("-{line}\n"));
    }
    for line in &a[prefix..a.len() - suffix] {
        out.push_str(&format!("+{line}\n"));
    }
    let ctx_end = (e.len() - suffix + CONTEXT).min(e.len());
    for line in &e[e.len() - suffix..ctx_end] {
        out.push_str(&format!(" {line}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_diff_to_headers_only() {
        let d = unified_diff("a\nb\n", "a\nb\n", "t");
        assert!(!d.contains("\n-"));
        assert!(!d.contains("\n+a"));
    }

    #[test]
    fn diff_marks_changed_middle_with_context() {
        let expected = "l1\nl2\nl3\nl4\nl5\nl6\nl7\n";
        let actual = "l1\nl2\nl3\nCHANGED\nl5\nl6\nl7\n";
        let d = unified_diff(expected, actual, "t");
        assert!(d.contains("-l4\n"), "{d}");
        assert!(d.contains("+CHANGED\n"), "{d}");
        assert!(d.contains(" l3\n"), "context before: {d}");
        assert!(d.contains(" l5\n"), "context after: {d}");
        assert!(!d.contains("-l1"), "unchanged prefix must not appear as -");
    }

    #[test]
    fn diff_handles_pure_insertion_and_deletion() {
        let d = unified_diff("a\nb\n", "a\nx\nb\n", "t");
        assert!(d.contains("+x\n"), "{d}");
        let d = unified_diff("a\nx\nb\n", "a\nb\n", "t");
        assert!(d.contains("-x\n"), "{d}");
    }

    #[test]
    fn compare_missing_fixture_reports_missing() {
        match compare(
            "results/definitely/not/a/real/fixture.txt",
            "x",
            "DOSGI_GOLDEN_TEST_NO_SUCH_VAR",
        ) {
            GoldenOutcome::Missing(p) => {
                assert!(p.ends_with("results/definitely/not/a/real/fixture.txt"));
            }
            other => panic!("expected Missing, got {other:?}"),
        }
    }
}
